"""Formal statement language for plane-geometry facts.

Defines the closed predicate vocabulary, canonical forms, the text grammar
(EBNF in the README), parsing, and serialization. Everything downstream
relies on one guarantee: two statements are equal exactly when their
canonical serializations are byte-identical.

Statements carry exact rational values only; floating point lives in the
numeric kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable


class StatementError(ValueError):
    """Base error for the statement language."""


class MalformedStatementError(StatementError):
    """Arity, value-range, or point-distinctness violation."""


class ParseError(StatementError):
    """Input text does not conform to the statement grammar."""

    def __init__(self, text: str, offset: int, expected: tuple[str, ...]):
        self.text = text
        self.offset = offset
        self.expected = expected
        super().__init__(f"at byte {offset}: expected {' | '.join(expected)} (input: {text!r})")


class UnknownPredicateError(ParseError):
    pass


class UnknownPointError(ParseError):
    pass


class Unit(Enum):
    DEGREES = "degrees"
    LENGTH = "length"
    RATIO = "ratio"


class Predicate(Enum):
    COLLINEAR = "collinear"
    PARALLEL = "parallel"
    PERPENDICULAR = "perp"
    EQUAL_SEGMENTS = "eq_seg"
    EQUAL_ANGLES = "eq_angle"
    SEGMENT_LENGTH = "seg_len"
    ANGLE_MEASURE = "angle_val"
    RIGHT_ANGLE = "right_angle"
    MIDPOINT = "midpoint"
    ON_CIRCLE = "on_circle"
    CONGRUENT_TRIANGLES = "congruent"
    SIMILAR_TRIANGLES = "similar"
    SEGMENT_RATIO = "seg_ratio"

    # identity hashing in C: Enum's own __hash__ is a Python-level call, and
    # every Statement hash includes its predicate
    __hash__ = object.__hash__


# group sizes, and the unit of the trailing rational (None = no value slot)
_SHAPES: dict[Predicate, tuple[tuple[int, ...], Unit | None]] = {
    Predicate.COLLINEAR: ((3,), None),
    Predicate.PARALLEL: ((2, 2), None),
    Predicate.PERPENDICULAR: ((2, 2), None),
    Predicate.EQUAL_SEGMENTS: ((2, 2), None),
    Predicate.EQUAL_ANGLES: ((3, 3), None),
    Predicate.SEGMENT_LENGTH: ((2,), Unit.LENGTH),
    Predicate.ANGLE_MEASURE: ((3,), Unit.DEGREES),
    Predicate.RIGHT_ANGLE: ((3,), None),
    Predicate.MIDPOINT: ((1, 2), None),
    Predicate.ON_CIRCLE: ((1, 1, 2), None),
    Predicate.CONGRUENT_TRIANGLES: ((3, 3), None),
    Predicate.SIMILAR_TRIANGLES: ((3, 3), None),
    Predicate.SEGMENT_RATIO: ((2, 2), Unit.RATIO),
}

_BY_TOKEN = {p.value: p for p in Predicate}

VALUE_PREDICATES = frozenset(p for p, (_, u) in _SHAPES.items() if u is not None)

_POINT_RE = re.compile(r"[A-Z][0-9]?")
# the labels _POINT_RE accepts, for membership tests on built statements
_LABELS = frozenset(f"{c}{d}" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" for d in ("", *"0123456789"))
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


@dataclass(frozen=True)
class Statement:
    """One atomic geometric fact over named points.

    ``groups`` follows the per-predicate shape in ``_SHAPES`` (e.g. two
    2-point groups for segment pairs). ``value`` is present exactly for the
    value-bearing predicates; ``value=None`` on those denotes a query form
    (the "find this" slot) and never appears in a scene's premise dict.
    The hash and the text are computed once, on first use, and never
    pickled: the hash depends on the process's hash seed.
    """

    predicate: Predicate
    groups: tuple[tuple[str, ...], ...]
    value: Fraction | None = None

    # kept by object.__setattr__: cached_property reads __dict__, which drops
    # CPython 3.11's inline attribute values, slowing saturation by about 5 %
    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.predicate, self.groups, self.value)))
            return self._hash

    def __reduce__(self):
        return Statement, (self.predicate, self.groups, self.value)

    @property
    def unit(self) -> Unit | None:
        return _SHAPES[self.predicate][1]

    def text(self) -> str:
        try:
            return self._text
        except AttributeError:
            object.__setattr__(self, "_text", serialize_statement(self))
            return self._text

    __str__ = text

    def without_value(self) -> "Statement":
        """Query form of a value-bearing statement, canonical and shared."""
        if self.predicate not in VALUE_PREDICATES:
            raise MalformedStatementError(f"{self.predicate.value} has no value slot")
        return _canonical(self.predicate, self.groups, None)


def _canon_segment(group: tuple[str, ...]) -> tuple[str, str]:
    a, b = group
    if a == b:
        raise MalformedStatementError(f"degenerate segment {a}{b}")
    return (a, b) if a < b else (b, a)


def _canon_angle(group: tuple[str, ...]) -> tuple[str, str, str]:
    a, v, c = group
    if len({a, v, c}) != 3:
        raise MalformedStatementError(f"degenerate angle {a}{v}{c}")
    return (a, v, c) if a < c else (c, v, a)


def _canon_triangle(group: tuple[str, ...]) -> tuple[str, ...]:
    if len(set(group)) != 3:
        raise MalformedStatementError(f"degenerate triangle {''.join(group)}")
    return group


def _canon_triangle_pair(
    t1: tuple[str, ...], t2: tuple[str, ...]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    # Any identical index permutation of both triangles preserves the vertex
    # correspondence, as does swapping the two triangles. Of the 12 variants
    # this allows, the least one leads with a sorted triangle, and with
    # distinct vertices one permutation sorts each: 2 candidates suffice.
    _canon_triangle(t1)
    _canon_triangle(t2)
    return min(tuple(zip(*sorted(zip(t1, t2)))), tuple(zip(*sorted(zip(t2, t1)))))


def _check_value(pred: Predicate, value: Fraction | None) -> Fraction | None:
    if pred not in VALUE_PREDICATES:
        if value is not None:
            raise MalformedStatementError(f"{pred.value} takes no value")
        return None
    if value is None:
        return None  # query form
    if value.numerator <= 0:  # a Fraction's denominator is positive
        raise MalformedStatementError(f"{pred.value} value must be positive, got {value}")
    if pred is Predicate.ANGLE_MEASURE and value.numerator >= 180 * value.denominator:
        raise MalformedStatementError(f"angle value must lie in (0, 180), got {value}")
    return value


# Bound of the table of canonical statements: above the most distinct
# statements a 1000-seed ``generate`` builds (about 7 800). ``generate``,
# ``bootstrap`` and ``verify`` empty it when they return.
CANONICAL_TABLE_SIZE = 16384


@lru_cache(maxsize=CANONICAL_TABLE_SIZE, typed=True)
def _canonical(
    pred: Predicate, groups: tuple[tuple[str, ...], ...], value: Fraction | None
) -> Statement:
    """The canonical statement of raw arguments, built once per distinct
    ``(pred, groups, value)`` while the table holds it, so equal canonical
    statements are one shared object (hash-consing). ``typed`` keeps an int
    value apart from an equal ``Fraction``; malformed arguments raise and
    are never stored."""
    shape, _ = _SHAPES[pred]
    sizes = tuple(map(len, groups))
    if sizes != shape:
        raise MalformedStatementError(f"{pred.value} expects groups {shape}, got {sizes}")
    for group in groups:
        for label in group:
            if label not in _LABELS:
                raise MalformedStatementError(f"bad point label {label!r}")
    value = _check_value(pred, value)

    if pred is Predicate.COLLINEAR:
        pts = groups[0]
        if len(set(pts)) != 3:
            raise MalformedStatementError("collinear points must be distinct")
        canon: tuple[tuple[str, ...], ...] = (tuple(sorted(pts)),)
    elif pred in (Predicate.PARALLEL, Predicate.PERPENDICULAR, Predicate.EQUAL_SEGMENTS):
        s1 = _canon_segment(groups[0])
        s2 = _canon_segment(groups[1])
        if s1 == s2:
            raise MalformedStatementError(f"{pred.value} of a segment with itself")
        if pred is Predicate.PARALLEL and set(s1) & set(s2):
            raise MalformedStatementError("parallel segments may not share a point")
        canon = (s1, s2) if s1 < s2 else (s2, s1)
    elif pred is Predicate.EQUAL_ANGLES:
        a1 = _canon_angle(groups[0])
        a2 = _canon_angle(groups[1])
        if a1 == a2:
            raise MalformedStatementError("equal-angles with itself")
        canon = (min(a1, a2), max(a1, a2))
    elif pred in (Predicate.ANGLE_MEASURE, Predicate.RIGHT_ANGLE):
        canon = (_canon_angle(groups[0]),)
    elif pred is Predicate.SEGMENT_LENGTH:
        canon = (_canon_segment(groups[0]),)
    elif pred is Predicate.MIDPOINT:
        (m,), seg = groups
        cs = _canon_segment(seg)
        if m in cs:
            raise MalformedStatementError("midpoint coincides with an endpoint")
        canon = ((m,), cs)
    elif pred is Predicate.ON_CIRCLE:
        (p,), (o,), radius = groups
        cr = _canon_segment(radius)
        if p == o:
            raise MalformedStatementError("circle point coincides with the center")
        canon = ((p,), (o,), cr)
    elif pred in (Predicate.CONGRUENT_TRIANGLES, Predicate.SIMILAR_TRIANGLES):
        t1, t2 = _canon_triangle_pair(groups[0], groups[1])
        if t1 == t2:
            raise MalformedStatementError(f"{pred.value} of a triangle with itself")
        canon = (t1, t2)
    elif pred is Predicate.SEGMENT_RATIO:
        s1 = _canon_segment(groups[0])
        s2 = _canon_segment(groups[1])
        if s1 == s2:
            raise MalformedStatementError("ratio of a segment with itself")
        if s1 > s2:
            s1, s2 = s2, s1
            if value is not None:
                value = 1 / value
        canon = (s1, s2)
    else:  # pragma: no cover - exhaustive over Predicate
        raise AssertionError(pred)

    return Statement(pred, canon, value)


def clear_canonical_table() -> None:
    """Empty the table of canonical statements that ``_canonical`` keeps."""
    _canonical.cache_clear()


def canonicalize(s: Statement) -> Statement:
    """Return the unique canonical representative of ``s``.

    Idempotent; raises :class:`MalformedStatementError` for wrong arity,
    required-distinct points that coincide, or out-of-range values.
    """
    try:
        return _canonical(s.predicate, s.groups, s.value)
    except TypeError:
        # groups the table cannot hash (lists, say) are canonicalized
        # without it; any other TypeError raises again from the same body
        return _canonical.__wrapped__(s.predicate, s.groups, s.value)


def serialize_statement(s: Statement) -> str:
    """Deterministic ASCII, newline-free rendering; inverse of the parser."""
    body = ";".join(",".join(group) for group in s.groups)
    if s.value is not None:
        body += f";{s.value}"
    return f"{s.predicate.value}({body})"


def parse_statement(text: str, known_points: Iterable[str] | None = None) -> Statement:
    """Parse grammar text into a canonical Statement.

    ``known_points``, when given, restricts point tokens to that set
    (used when interpreting statements against a concrete scene).
    """
    known = None if known_points is None else frozenset(known_points)
    pos = 0

    def expect(literal: str) -> None:
        nonlocal pos
        if not text.startswith(literal, pos):
            raise ParseError(text, pos, (repr(literal),))
        pos += len(literal)

    m = re.match(r"[a-z_]+", text)
    if not m:
        raise ParseError(text, 0, ("predicate name",))
    pred = _BY_TOKEN.get(m.group(0))
    if pred is None:
        raise UnknownPredicateError(text, 0, ("known predicate name",))
    pos = m.end()
    expect("(")

    shape, unit = _SHAPES[pred]
    groups: list[tuple[str, ...]] = []
    for gi, size in enumerate(shape):
        group: list[str] = []
        for i in range(size):
            pm = _POINT_RE.match(text, pos)
            if not pm:
                raise ParseError(text, pos, ("point",))
            label = pm.group(0)
            if known is not None and label not in known:
                raise UnknownPointError(text, pos, ("known point",))
            group.append(label)
            pos = pm.end()
            if i < size - 1:
                expect(",")
        groups.append(tuple(group))
        if gi < len(shape) - 1:
            expect(";")

    value: Fraction | None = None
    if unit is not None and text.startswith(";", pos):
        pos += 1
        vm = _RATIONAL_RE.match(text, pos)
        if not vm:
            raise ParseError(text, pos, ("rational",))
        value = Fraction(vm.group(0))
        pos = vm.end()

    expect(")")
    if pos != len(text):
        raise ParseError(text, pos, ("end of input",))
    return _canonical(pred, tuple(groups), value)


Seg = tuple[str, str]
Ang = tuple[str, str, str]


def collinear(a: str, b: str, c: str) -> Statement:
    return _canonical(Predicate.COLLINEAR, ((a, b, c),), None)


def parallel(s1: Seg, s2: Seg) -> Statement:
    return _canonical(Predicate.PARALLEL, (tuple(s1), tuple(s2)), None)


def perpendicular(s1: Seg, s2: Seg) -> Statement:
    return _canonical(Predicate.PERPENDICULAR, (tuple(s1), tuple(s2)), None)


def equal_segments(s1: Seg, s2: Seg) -> Statement:
    return _canonical(Predicate.EQUAL_SEGMENTS, (tuple(s1), tuple(s2)), None)


def equal_angles(a1: Ang, a2: Ang) -> Statement:
    return _canonical(Predicate.EQUAL_ANGLES, (tuple(a1), tuple(a2)), None)


def _fraction(value) -> Fraction | None:
    return value if value is None or type(value) is Fraction else Fraction(value)


def segment_length(s: Seg, value) -> Statement:
    return _canonical(Predicate.SEGMENT_LENGTH, (tuple(s),), _fraction(value))


def angle_measure(a: Ang, value) -> Statement:
    return _canonical(Predicate.ANGLE_MEASURE, (tuple(a),), _fraction(value))


def right_angle(a: Ang) -> Statement:
    return _canonical(Predicate.RIGHT_ANGLE, (tuple(a),), None)


def midpoint(m: str, seg: Seg) -> Statement:
    return _canonical(Predicate.MIDPOINT, ((m,), tuple(seg)), None)


def on_circle(p: str, center: str, radius_seg: Seg) -> Statement:
    return _canonical(Predicate.ON_CIRCLE, ((p,), (center,), tuple(radius_seg)), None)


def congruent_triangles(t1: Ang, t2: Ang) -> Statement:
    return _canonical(Predicate.CONGRUENT_TRIANGLES, (tuple(t1), tuple(t2)), None)


def similar_triangles(t1: Ang, t2: Ang) -> Statement:
    return _canonical(Predicate.SIMILAR_TRIANGLES, (tuple(t1), tuple(t2)), None)


def segment_ratio(s1: Seg, s2: Seg, value) -> Statement:
    return _canonical(Predicate.SEGMENT_RATIO, (tuple(s1), tuple(s2)), _fraction(value))
