"""Immutable value records without ``dataclasses``, and their JSON form.

``Record`` gives a subclass what ``@dataclass(frozen=True)`` would
generate: fields, construction, equality, hash and repr.  Importing
``dataclasses`` loads ``inspect`` and compiles every class's methods with
``exec``, which costs each short command tens of milliseconds at start-up.
``to_json`` is the one walk that turns records into JSON-ready values,
and ``format_table`` the one text table every report renders through.
"""

from numbers import Rational
from operator import attrgetter


class Record:
    """Base of the package's frozen value types.

    A subclass's fields are its own annotations, in order.  Instances are
    equal only within one class, with equal field tuples, and hash as
    their field tuple, computed on first use and cached as ``_hash``.
    The one way to build a record is a call with one positional value
    per field; ``Record.__init__`` stores them and calls
    ``self.__post_init__()``, where a subclass may check or derive state.
    A subclass defines ``__init__`` only to rewrite its arguments before
    they are stored, as ``Scalar`` does.  Fields are set with
    ``object.__setattr__``, not through ``self.__dict__``, because reading
    ``__dict__`` turns the instance's inline attribute values into a
    separate dict, and every later attribute read gets slower.

    The JSON form is a dict over ``_json_keys``: the fields, unless the
    class names its own keys, which may include properties.  A class
    whose JSON is not keyed by its attributes overrides ``json_form``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._json_keys = cls.__dict__.get("_json_keys", fields)
        getter = attrgetter(*fields)
        cls._values = staticmethod(getter if len(fields) > 1 else lambda obj: (getter(obj),))

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, got {len(args)}")
        for f, value in zip(fields, args):
            object.__setattr__(self, f, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def json_form(self):
        """The value ``to_json`` writes for this record, before its parts
        are walked in turn."""
        return {key: getattr(self, key) for key in self._json_keys}

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._values(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def num_den(x) -> str:
    """A rational's JSON form ``"num/den"``; an int ``n`` is ``"n/1"``."""
    return f"{x.numerator}/{x.denominator}"


def to_json(value):
    """The JSON-ready form of a value: a record by its ``json_form``, a
    tuple or list as a list, a dict with each value walked, a rational
    that is not an int (a ``Fraction``) as ``"num/den"``, and anything else
    (str, int, bool, None) as it is."""
    if isinstance(value, Record):
        value = value.json_form()
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, Rational) and not isinstance(value, int):
        return num_den(value)
    return value


def format_table(headers, rows) -> str:
    """Left-aligned columns two spaces apart under a dashed rule, with
    trailing blanks stripped from every line."""
    widths = [len(h) for h in headers]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
