"""The package's export list: every layer module's ``__all__``, in
module order, and nothing else but ``__version__``."""

from __future__ import annotations

import importlib
import pkgutil

import pdrnav

LAYERS = ("allan", "calibration", "ekf", "gait", "io", "quat", "tracker", "zupt")


def layer_modules():
    return [importlib.import_module(f"pdrnav.{name}") for name in LAYERS]


def test_layers_are_every_module_but_the_front_end_and_constants():
    found = {info.name for info in pkgutil.iter_modules(pdrnav.__path__)}
    assert found - {"__main__", "cli", "constants", "_fields"} == set(LAYERS)


def test_package_exports_the_ordered_union_of_the_layers():
    union = [name for module in layer_modules() for name in module.__all__]
    assert pdrnav.__all__ == union + ["__version__"]
    assert len(pdrnav.__all__) == 79
    # Each name is listed by one module only; `io` imports `ImuLog`
    # from `tracker`, which lists it.
    assert len(set(union)) == len(union)
    assert pdrnav.io.ImuLog is pdrnav.tracker.ImuLog


def test_every_listed_name_resolves_to_its_module_object():
    for module in layer_modules():
        for name in module.__all__:
            assert getattr(pdrnav, name) is getattr(module, name), (
                f"{module.__name__}.{name}")
    namespace: dict = {}
    exec("from pdrnav import *", namespace)
    assert set(pdrnav.__all__) <= namespace.keys()
