"""Exact workbench for operator distributions indexed by a directed multigraph.

The objects live over a finite directed multigraph: admissible edge words
form a partial monoid, each word carries a creation generator and its
adjoint, and the diagonal subalgebra spanned by vertex projections plays
the role of the scalars.  Two backends realize the same generators by
the same rewriting: the axiomatic one also imposes ``L[e]L*[e] = P_v``
where ``e`` is the sole edge out of ``v``, the fock one never does and
refuses words longer than its path-space depth.  Every computation is
exact over rational complex coefficients.  Analyzers compare moments,
cumulants, and structural predictions across the two backends.
"""

# Each public name and the module that defines it.  A name's module is
# imported on first use (PEP 562), so a command loads only its layers.
_MODULES = {
    **dict.fromkeys(
        ("AlgebraElement", "DiagonalElement", "faithfulness_probe"), "algebra"
    ),
    **dict.fromkeys(
        ("FreenessReport", "RDiagonalReport", "SemicircularReport",
         "build_semicircular_system", "check_freeness", "check_r_diagonal",
         "check_semicircular"),
        "analyzers",
    ),
    **dict.fromkeys(("AuditReport", "claims_audit"), "audit"),
    **dict.fromkeys(("CumulantFunctional", "mixed_cumulant_scan"), "cumulants"),
    **dict.fromkeys(
        ("DressedTag", "PairSource", "cumulant_to_moment", "dressed_tags"), "nestings"
    ),
    **dict.fromkeys(
        ("ArityBoundError", "BackendMismatchError", "DepthError", "DomainError",
         "GraphSyntaxError"),
        "errors",
    ),
    **dict.fromkeys(
        ("Edge", "EdgeClasses", "Graph", "PathWord", "classify_edges", "concat",
         "diagram_distinct", "enumerate_paths", "parse_graph", "parse_word",
         "primitive_root", "strip_prefix"),
        "graphs",
    ),
    **dict.fromkeys(
        ("AXIOMATIC", "FOCK", "Backend", "Monomial", "reduce_word", "required_depth"),
        "operators",
    ),
    "Scalar": "scalars",
    **dict.fromkeys(("DecompositionReport", "decompose"), "structure"),
}

__version__ = "0.1.0"

__all__ = [*_MODULES, "__version__"]


def _first_use(namespace, table):
    """The PEP 562 ``__getattr__`` of the module whose globals are
    ``namespace``: a name in ``table`` is read from ``graphprob.<table[name]>``
    on first use and cached in ``namespace``; any other name raises
    AttributeError naming the module."""

    def __getattr__(name):
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(__import__(f"graphprob.{module}", fromlist=[name]), name)
        return value

    return __getattr__


__getattr__ = _first_use(globals(), _MODULES)


def __dir__():
    return sorted(set(globals()) | set(_MODULES))
