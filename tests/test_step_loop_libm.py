"""The float functions the 1 kHz step loop calls whose rounding is not
fixed by IEEE 754, listed with the reason each is there.

The golden telemetry bytes hold only where every float operation of the
step rounds the same way on every machine. +, -, *, / and sqrt are
correctly rounded. A float power is C's `pow`, and `exp`, `atan2`, `sin`
and `cos` are the C library's own, so their last bit may differ between
libms. The scan below fails on any math name and on any power whose
exponent is not an integer literal (or a `pow` call) that is not in its
allow-list, so a new one is seen and given a reason (see ROADMAP item 5)
rather than found by a moved digest. It also pins the functions that
call each libm function, so a call that moves into another function
fails by that function's name. Probes check each libm function on
inputs recorded from the golden runs, so a libm that rounds them another
way fails by the function's name.
"""

import ast
import math
from pathlib import Path

import pytest

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
    "exp": "from libm (aero._envelope); the golden bytes depend on its rounding",
    "atan2": "from libm (control.attitude_flat); the golden bytes depend on its rounding",
    "sin": "from libm (the host oscillation setpoint); the golden bytes depend on its rounding",
    "cos": "from libm (the host oscillation setpoint); the golden bytes depend on its rounding",
}

# the functions that call each libm function, as (module, qualified name)
LIBM_CALL_SITES = {
    "exp": {("aero", "_envelope")},
    "atan2": {("control", "CascadedPid.attitude_flat")},
    "sin": {("engine", "World.step")},
    "cos": {("engine", "World.step")},
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


def _libm_uses(module: str) -> tuple[set[str], list[tuple[str, str, str]], set[tuple]]:
    """The math names module uses; its powers whose exponent is not an
    integer literal as (module, enclosing function, source); and its
    calls of a math function as (math name, module, qualified name of
    the enclosing function)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for a in node.names
    }
    names, powers, calls = set(imported), [], set()

    def visit(node, func, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.ClassDef):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in imported:
                calls.add((f.id, module, func))
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                if f.value.id == "math":
                    calls.add((f.attr, module, func))
        if isinstance(node, ast.Import):
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
            visit(child, func, scope)

    visit(tree, None, None)
    return names, powers, calls


def test_step_loop_calls_only_listed_libm_functions():
    unlisted_names, unlisted_powers = [], []
    for module in STEP_LOOP_MODULES:
        names, powers, _ = _libm_uses(module)
        unlisted_names += [(module, n) for n in sorted(names - MATH_ALLOWED.keys())]
        unlisted_powers += [p for p in powers if p not in POW_ALLOWED]
    assert unlisted_names == [], "math names not in MATH_ALLOWED"
    assert unlisted_powers == [], "float powers not in POW_ALLOWED"


def test_allow_lists_name_only_what_the_step_loop_uses():
    # an entry whose call is gone must leave its list
    names, powers = set(), []
    for module in STEP_LOOP_MODULES:
        n, p, _ = _libm_uses(module)
        names |= n
        powers += p
    assert set(MATH_ALLOWED) <= names
    assert set(POW_ALLOWED) <= set(powers)


def test_libm_functions_are_called_only_from_their_pinned_functions():
    # a trig call that returns to position_flat, for one, fails here by
    # that function's name
    libm = {name for name, reason in MATH_ALLOWED.items() if "from libm" in reason}
    sites = {name: set() for name in libm}
    for module in STEP_LOOP_MODULES:
        for name, mod, func in _libm_uses(module)[2]:
            if name in libm:
                sites[name].add((mod, func))
    assert sites == LIBM_CALL_SITES


def test_libm_pow_rounds_the_quaternion_norm_as_the_golden_bytes_need():
    x = 1.0 - 2.0**-53
    assert x**0.5 == 1.0, (
        "this libm's pow(1 - 2**-53, 0.5) is not 1.0: rk4_flat's ** 0.5 quaternion "
        "norm rounds another way here, so the full paper_demo's golden bytes differ "
        "(ROADMAP item 5)"
    )


# Inputs recorded from the golden prefixes of tests/test_golden_bytes.py,
# with the result each needs, as glibc 2.36 gives it. The exp and atan2
# inputs are the ones nearest a rounding midpoint: glibc rounds the three
# exp inputs and the first atan2 input away from the correctly rounded
# result, as it does 73 of the 73,650 distinct exp inputs and 1 of the
# 82,536 atan2 inputs. sin and cos take the fleet's home angles
# 2 * pi * i / n of scenario.build_world_inputs, for n = 9 and 4.
LIBM_PROBES = {
    "exp": [
        (("-0x1.eebe7eefab3a0p-1",), "0x1.859eff5e5dfa2p-2"),
        (("-0x1.73876e213951ap+8",), "0x1.fee867bf15d12p-537"),
        (("-0x1.df76281713d5cp+5",), "0x1.730835b6666c9p-87"),
    ],
    "atan2": [
        (("0x1.4aae8ce221b18p-4", "0x1.fe5426c22a07ep-1"), "0x1.4b0ac8022ec16p-4"),
        (("0x1.350aa0320ee39p-24", "0x1.fffffffffffe9p-1"), "0x1.350aa0320ee3dp-24"),
        (("0x1.350a7fc6a1b8cp-24", "0x1.fffffffffffe9p-1"), "0x1.350a7fc6a1b91p-24"),
    ],
    "cos": [
        (("0x1.657184ae74487p-1",), "0x1.8836fa2cf5039p-1"),
        (("0x1.657184ae74487p+0",), "0x1.63a1a7e0b738cp-3"),
        (("0x1.2d97c7f3321d2p+2",), "-0x1.a79394c9e8a0ap-53"),
    ],
    "sin": [
        (("0x1.657184ae74487p-1",), "0x1.491b7523c161cp-1"),
        (("0x1.0c152382d7365p+1",), "0x1.bb67ae8584cabp-1"),
        (("0x1.921fb54442d18p+1",), "0x1.1a62633145c07p-53"),
    ],
}


def test_libm_probes_cover_the_libm_functions_the_golden_bytes_use():
    libm = {name for name, reason in MATH_ALLOWED.items() if "from libm" in reason}
    assert set(LIBM_PROBES) == libm


@pytest.mark.parametrize("name", sorted(LIBM_PROBES))
def test_libm_rounds_golden_inputs_as_the_golden_bytes_need(name):
    f = getattr(math, name)
    results = [(args, f(*map(float.fromhex, args)).hex(), want) for args, want in LIBM_PROBES[name]]
    wrong = [r for r in results if r[1] != r[2]]
    assert not wrong, (
        f"this libm's {name} rounds inputs of the golden runs another way, as "
        f"(inputs, result, needed): {wrong}; the golden bytes differ here (ROADMAP item 5)"
    )
