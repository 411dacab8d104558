"""The package namespace is exactly its modules' ``__all__``: nothing more leaks in."""

import types

import multicat
from multicat import marginals, photon, states, wellsolver, wigner

MODULES = (states, wigner, marginals, photon, wellsolver)


def test_public_names_are_the_union_of_module_all():
    # a module without __all__ would star-export its imports (np, math, dataclass)
    public = {name for name, value in vars(multicat).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for module in MODULES for name in module.__all__}


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(multicat, name) is getattr(module, name), f"{module.__name__}.{name}"
