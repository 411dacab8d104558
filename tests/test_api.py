"""The package namespace carries every public name of its modules."""

import pytest

import multicat
from multicat import marginals, photon, states, wellsolver, wigner


@pytest.mark.parametrize("module", [states, wigner, marginals, photon, wellsolver],
                         ids=lambda m: m.__name__)
def test_module_all_is_exported(module):
    missing = [name for name in module.__all__ if not hasattr(multicat, name)]
    assert not missing, f"{module.__name__}.__all__ names missing from multicat: {missing}"
