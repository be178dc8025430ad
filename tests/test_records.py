"""The ``Record`` contract: what a frozen dataclass would give each value
type, checked on every ``Record`` subclass in the package."""

from fractions import Fraction

import pytest

from graphprob import (  # noqa: F401  (every module, see RECORDS)
    algebra, analyzers, audit, cli, cumulants, errors, graphs, nestings, operators, records,
    scalars, structure,
)
from graphprob.algebra import AlgebraElement, DiagonalElement
from graphprob.graphs import Edge, EdgeClasses, PathWord, parse_word
from graphprob.nestings import DressedTag
from graphprob.operators import Backend, Monomial
from graphprob.records import Record, to_json
from graphprob.scalars import Scalar

# Every module is imported above: the package loads its modules on first
# use, and a class is among the subclasses only once its module is loaded.
RECORDS = sorted(
    (cls for cls in Record.__subclasses__() if cls.__module__.startswith("graphprob.")),
    key=lambda cls: (cls.__module__, cls.__name__),
)


class _Hashed:
    """A field value that counts how often it is hashed."""

    calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def _raw(cls, values):
    """An instance with the given field values, without the class's own
    checks, so the base class's behaviour can be tested on every class."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj


def _values(cls, tag):
    return tuple(f"{tag}{i}" for i in range(len(cls._fields)))


def test_every_value_type_is_a_record():
    assert len(RECORDS) == 23
    assert all(cls._fields for cls in RECORDS)


def test_only_scalar_constructs_and_only_record_hashes():
    assert [cls for cls in RECORDS if "__init__" in vars(cls)] == [Scalar]
    assert [cls for cls in RECORDS if "__hash__" in vars(cls)] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_frozen(cls):
    obj = _raw(cls, _values(cls, "x"))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, "y")
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) != "y"
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_field_tuple(cls):
    values = _values(cls, "x")
    a, b, c = _raw(cls, values), _raw(cls, values), _raw(cls, _values(cls, "z"))
    assert a == b and not a != b
    assert a != c
    assert a != values
    assert hash(a) == hash(values) == hash(b)
    # The hash is computed once per instance, on first use.
    key = _Hashed()
    d = _raw(cls, (key, *values[1:]))
    h = hash(d)
    assert hash(d) == h and key.calls == 1
    assert h == hash((key, *values[1:]))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_has_the_dataclass_format(cls):
    if "__repr__" in vars(cls):
        return
    obj = _raw(cls, _values(cls, "x"))
    body = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, _values(cls, "x")))
    assert repr(obj) == f"{cls.__name__}({body})"
    if "__str__" not in vars(cls):
        assert str(obj) == repr(obj)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fast_init_takes_the_fields_in_order(cls, monkeypatch):
    # A full positional call stores the values in field order and reaches
    # a __post_init__ patched onto the class, the way the benchmark's
    # tracer counts PathWord and Monomial.  Scalar's own __init__ only
    # normalizes its parts and has no hook.
    seen = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self._values(self)))
    values = tuple(range(1, len(cls._fields) + 1))
    by_position = cls(*values)
    assert by_position._values(by_position) == values
    assert seen == ([] if cls is Scalar else [values])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_is_positional_only(cls):
    # One value per field, by position, is the only construction: a
    # keyword, a short call and a long call are each a TypeError, before
    # any check of the values.  Scalar's own __init__ keeps its defaults
    # and keyword names, so there only the long call is wrong.
    n = len(cls._fields)
    values = tuple(range(1, n + 1))
    with pytest.raises(TypeError):
        cls(*values, 0)
    if cls is Scalar:
        return
    for args in (values[:-1], (*values, 0)):
        with pytest.raises(TypeError) as err:
            cls(*args)
        assert str(err.value) == f"{cls.__name__}() takes {n} fields, got {len(args)}"
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        cls(**dict(zip(cls._fields, values)))


def test_equality_is_per_class():
    assert DressedTag(("v",), ()) != EdgeClasses(("v",), ())
    assert EdgeClasses(("v",), ()) != DressedTag(("v",), ())
    assert Scalar() != (Fraction(0), Fraction(0))
    assert (Fraction(0), Fraction(0)) != Scalar()
    assert Scalar.of(1, 2) == Scalar(Fraction(1), Fraction(2))


def test_defaults():
    assert Scalar() == Scalar(Fraction(0), Fraction(0))
    assert Scalar(im=Fraction(1)) == Scalar(Fraction(0), Fraction(1))
    assert Backend.axiomatic() == Backend("axiomatic", 0)


def test_keyword_construction():
    # A keyword is refused, alone or after positions, in any order; the
    # same values by position build the record.
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        Edge(id="e", initial="a", final="b")
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        Edge("e", final="b", initial="a")
    edge = Edge("e", "a", "b")
    assert (edge.id, edge.initial, edge.final) == ("e", "a", "b")
    assert edge.is_loop is False


# Each bad call, by the fault it has, and the one TypeError it now raises:
# a wrong count names the class and its field count, and any keyword is
# refused by Python itself before the fields are looked at.
_BAD_CONSTRUCTION = {
    "missing field 'final'": r"^Edge\(\) takes 3 fields, got 2$",
    "unexpected field 'colour'": r"unexpected keyword argument 'colour'",
    "multiple values for field 'id'": r"unexpected keyword argument 'id'",
    "takes 3 fields, got 4": r"^Edge\(\) takes 3 fields, got 4$",
}


@pytest.mark.parametrize(
    "args, kwargs, fault",
    [
        (("e", "a"), {}, "missing field 'final'"),
        (("e", "a", "b"), {"colour": "red"}, "unexpected field 'colour'"),
        (("e", "a", "b"), {"id": "f"}, "multiple values for field 'id'"),
        (("e", "a", "b", "c"), {}, "takes 3 fields, got 4"),
    ],
)
def test_bad_construction_raises_type_error(args, kwargs, fault):
    with pytest.raises(TypeError, match=_BAD_CONSTRUCTION[fault]):
        Edge(*args, **kwargs)


def test_fast_init_rejects_bad_arguments():
    with pytest.raises(TypeError):
        Scalar(Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(TypeError):
        Scalar(imag=Fraction(1))
    with pytest.raises(TypeError):
        Scalar(Fraction(1), re=Fraction(1))


def test_fast_init_runs_post_init_through_the_instance(one_loop, monkeypatch):
    # Replacing __post_init__ on the class must reach every construction:
    # the benchmark's tracer counts PathWord and Monomial that way.
    seen = []
    for cls in (PathWord, Monomial, DiagonalElement, AlgebraElement):
        original = cls.__post_init__

        def counted(self, _original=original, _cls=cls):
            seen.append(_cls)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    backend = Backend.axiomatic()
    w = PathWord.from_edges(one_loop, ["l"])
    m = Monomial.vertex(one_loop, "v")
    d = DiagonalElement.zero(one_loop)
    a = AlgebraElement.zero(one_loop, backend)
    assert seen == [PathWord, PathWord, Monomial, DiagonalElement, AlgebraElement]
    assert (w.length, m.is_vertex, d.is_zero, a.is_zero) == (1, True, True, True)


def test_derived_state_stays_out_of_the_fields(one_loop):
    # __post_init__ stores caches such as Graph.sole_exits beside the
    # fields, and the first hash stores _hash there; neither takes part in
    # equality or repr.
    w = parse_word(one_loop, "l")
    hash(one_loop)
    assert repr(one_loop).startswith("Graph(vertices=('v',), edges=(Edge(")
    assert "sole_exits" not in repr(one_loop) and "_hash" not in repr(one_loop)
    assert w == PathWord(one_loop, ("l",), "v", "v")
    a = AlgebraElement.generator(one_loop, Backend.axiomatic(), w)
    b = AlgebraElement.generator(one_loop, Backend.axiomatic(), w)
    assert a.degree == 1 and a == b and hash(a) == hash(b)



class _Sum(Record):
    left: int
    right: Fraction
    _json_keys = ("right", "total")

    @property
    def total(self):
        return self.left + self.right


def test_to_json_walks_fields_and_key_lists():
    assert to_json(Edge("e", "a", "b")) == {"id": "e", "initial": "a", "final": "b"}
    # A key list picks and orders the keys, and may name a property.
    assert to_json(_Sum(1, Fraction(1, 2))) == {"right": "1/2", "total": "3/2"}
    assert to_json({"k": (Scalar.of(1, -2), None, True, [3])}) == {
        "k": [{"re": "1/1", "im": "-2/1"}, None, True, [3]]
    }
