"""The package namespace exports exactly what ``__all__`` lists."""

import types

import graphprob
from graphprob import cumulants, operators

# Brute-force references kept as test oracles; they stay in their modules.
REFERENCES = {
    cumulants: ("NCPartition", "catalan", "enumerate_nc", "nested_evaluate", "moment_to_cumulant"),
    operators: ("fock_apply", "apply_generator_word"),
}


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(graphprob).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(graphprob.__all__) == len(set(graphprob.__all__))
    assert set(graphprob.__all__) == public | {"__version__"}


def test_references_live_only_in_their_modules():
    for module, names in REFERENCES.items():
        for name in names:
            assert name not in graphprob.__all__
            assert not hasattr(graphprob, name)
            assert callable(getattr(module, name))
