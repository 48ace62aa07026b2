"""The float functions the 1 kHz step loop calls whose rounding is not
fixed by IEEE 754, listed with the reason each is there.

The golden telemetry bytes hold only where every float operation of the
step rounds the same way on every machine. +, -, *, / and sqrt are
correctly rounded. A float power is C's `pow`, and `exp`, `atan2`, `sin`
and `cos` are the C library's own, so their last bit may differ between
libms. The scan below fails on any math name and on any power whose
exponent is not an integer literal (or a `pow` call) that is not in its
allow-list, so a new one is seen and given a reason (see ROADMAP item 5)
rather than found by a moved digest.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "flybat"

# the modules whose code runs inside World.step
STEP_LOOP_MODULES = (
    "engine", "dynamics", "control", "aero", "powertrain", "docking", "geom", "telemetry",
)

# math names the step loop may use, each with its reason
MATH_ALLOWED = {
    "sqrt": "correctly rounded (IEEE 754)",
    "isfinite": "exact",
    "inf": "exact",
    "nextafter": "exact",
    "hypot": "CPython's own code: depends on the Python version, not the libm",
    "exp": "from libm (aero.downwash_force); the golden bytes depend on its rounding",
    "atan2": "from libm (control.attitude_flat); the golden bytes depend on its rounding",
    "sin": "from libm (host oscillation, the yaw heading); the golden bytes depend on its rounding",
    "cos": "from libm (host oscillation, the yaw heading); the golden bytes depend on its rounding",
}

# float powers with an exponent that is not an integer literal, by
# (module, enclosing function, source), each with its reason
POW_ALLOWED = {
    ("dynamics", "rk4_flat", "(nqw * nqw + nqx * nqx + nqy * nqy + nqz * nqz) ** 0.5"): (
        "the quaternion norm; C's pow, which glibc 2.36 rounds away from sqrt on "
        "(1 - 2**-53), and the full paper_demo's bytes depend on it (ROADMAP item 5)"
    ),
}


def _integer_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _libm_uses(module: str) -> tuple[set[str], list[tuple[str, str, str]]]:
    """The math names module uses, and its powers whose exponent is not
    an integer literal as (module, enclosing function, source)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names, powers = set(), []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            # an alias would hide its names from the scan
            aliases = [a.asname for a in node.names if a.name == "math" and a.asname]
            names.update(f"import math as {alias}" for alias in aliases)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math":
                names.add(node.attr)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not _integer_literal(node.right):
                powers.append((module, func, ast.unparse(node)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "pow":
                powers.append((module, func, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return names, powers


def test_step_loop_calls_only_listed_libm_functions():
    unlisted_names, unlisted_powers = [], []
    for module in STEP_LOOP_MODULES:
        names, powers = _libm_uses(module)
        unlisted_names += [(module, n) for n in sorted(names - MATH_ALLOWED.keys())]
        unlisted_powers += [p for p in powers if p not in POW_ALLOWED]
    assert unlisted_names == [], "math names not in MATH_ALLOWED"
    assert unlisted_powers == [], "float powers not in POW_ALLOWED"


def test_allow_lists_name_only_what_the_step_loop_uses():
    # an entry whose call is gone must leave its list
    names, powers = set(), []
    for module in STEP_LOOP_MODULES:
        n, p = _libm_uses(module)
        names |= n
        powers += p
    assert set(MATH_ALLOWED) <= names
    assert set(POW_ALLOWED) <= set(powers)


def test_libm_pow_rounds_the_quaternion_norm_as_the_golden_bytes_need():
    x = 1.0 - 2.0**-53
    assert x**0.5 == 1.0, (
        "this libm's pow(1 - 2**-53, 0.5) is not 1.0: rk4_flat's ** 0.5 quaternion "
        "norm rounds another way here, so the full paper_demo's golden bytes differ "
        "(ROADMAP item 5)"
    )
