"""The package namespace exports exactly what ``__all__`` lists."""

import importlib
import types

import pytest

import graphprob
from graphprob import analyzers, audit, cumulants, nestings, operators, records, structure

# Brute-force references kept as test oracles; they stay in their modules.
REFERENCES = {
    nestings: ("NCPartition", "catalan", "enumerate_nc", "nested_evaluate", "moment_to_cumulant"),
    operators: ("fock_apply", "apply_generator_word"),
}


def test_all_lists_exactly_the_public_names():
    # The names resolve on first use, so vars(graphprob) holds only those
    # already read; dir() and a star import see them all.
    assert len(graphprob.__all__) == len(set(graphprob.__all__))
    public = {
        name
        for name in dir(graphprob)
        if not name.startswith("_") and not isinstance(getattr(graphprob, name), types.ModuleType)
    }
    assert public | {"__version__"} == set(graphprob.__all__)
    namespace = {}
    exec("from graphprob import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(graphprob.__all__)


def test_each_name_resolves_to_its_module():
    for name, module in graphprob._MODULES.items():
        value = getattr(graphprob, name)
        assert value is getattr(importlib.import_module(f"graphprob.{module}"), name)
        assert getattr(value, "__module__", f"graphprob.{module}") == f"graphprob.{module}"


def test_references_live_only_in_their_modules():
    for module, names in REFERENCES.items():
        for name in names:
            assert name not in graphprob.__all__
            assert not hasattr(graphprob, name)
            assert callable(getattr(module, name))


def test_moved_names_stay_reachable_from_their_old_modules():
    # bench/trace_op.py looks up the decomposition and the audit in
    # analyzers, and the nesting sums and references in cumulants, by name.
    for name in ("decompose", "DecompositionReport"):
        assert getattr(analyzers, name) is getattr(structure, name)
    assert analyzers.format_table is records.format_table
    for name in ("claims_audit", "AuditReport"):
        assert getattr(analyzers, name) is getattr(audit, name)
    for name in ("catalan", "enumerate_nc", "nested_evaluate", "moment_to_cumulant",
                 "cumulant_to_moment", "PairSource"):
        assert getattr(cumulants, name) is getattr(nestings, name)


def test_unknown_and_dropped_names_raise_naming_their_module():
    for module in (graphprob, analyzers, cumulants):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'bogus'"):
            module.bogus
    # Rows, blocks and limits are read from the modules that define them.
    dropped = {
        analyzers: {structure: ("BasicLoopRow", "DiagonalBlock", "EdgeBlock"),
                    audit: ("AUDIT_DEPTHS", "AuditRow")},
        cumulants: {nestings: ("NCPartition", "NC_ENUMERATION_LIMIT", "DressedTag",
                               "dressed_tags")},
    }
    for shim, homes in dropped.items():
        for home, names in homes.items():
            for name in names:
                with pytest.raises(AttributeError, match=f"'{shim.__name__}' has no attribute"):
                    getattr(shim, name)
                assert getattr(home, name) is not None
