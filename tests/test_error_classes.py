"""Every exception class flybat defines is a ValueError, so that
`flybat.cli.main` can turn any bad input into exit code 2 with one
`except` clause. The one exception is `SimNumericsError`, a failure of
the simulation rather than of its input, which is a RuntimeError and
exits 3."""

import importlib
import pkgutil

import flybat


def _exception_classes():
    for info in pkgutil.iter_modules(flybat.__path__):
        module = importlib.import_module(f"flybat.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ):
                yield obj


def test_every_flybat_error_is_a_value_error():
    classes = list(_exception_classes())
    assert {c.__name__ for c in classes} >= {"ScenarioError", "SimNumericsError"}
    for cls in classes:
        if cls.__name__ == "SimNumericsError":
            assert issubclass(cls, RuntimeError) and not issubclass(cls, ValueError)
        else:
            assert issubclass(cls, ValueError), f"{cls.__module__}.{cls.__name__}"
