"""Every name a module lists in `__all__` resolves under a star import."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["mfnet", "mfnet.meanfield"])
def test_star_import_resolves_every_exported_name(module):
    namespace: dict = {}
    # A name in `__all__` that the module does not define raises here.
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert exported and all(name in namespace for name in exported)
