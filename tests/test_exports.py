import importlib
import pkgutil
import types

import glracks

MODULES = [
    importlib.import_module(f"glracks.{info.name}")
    for info in pkgutil.iter_modules(glracks.__path__)
    if info.name != "__main__"
]


def test_every_module_export_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_package_name_is_a_module_export():
    exported = {
        name: getattr(module, name)
        for module in MODULES
        for name in getattr(module, "__all__", ())
    }
    for name, value in vars(glracks).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert exported.get(name) is value, f"glracks.{name}"
