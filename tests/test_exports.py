import importlib

import pytest

# Each package exports the names its callers import through it; every
# other name is imported from the module that defines it.
EXPORTS = {
    "satkit": ["__version__"],
    "satkit.rl": ["Policy", "PolicyHeuristic", "PpoConfig", "save_policy_file", "train"],
    "satkit.solver": ["Solver", "Verdict", "VsidsHeuristic"],
    "satkit.logic": ["compile_document"],
}


@pytest.mark.parametrize("module", list(EXPORTS))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert sorted(mod.__all__) == sorted(EXPORTS[module])
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
