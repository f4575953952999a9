"""Geometric theorem catalog for the forward-chaining reasoner.

Each rule is a matcher plus its triggers, the predicates its newest premise
may have. Given a match context and the id of its newest statement, whose
predicate the matcher may assume is a trigger, it yields every (premise ids,
conclusion) the rule licenses with that statement as the newest premise
(semi-naive evaluation: every premise combination fires exactly once, when
its newest premise is processed). A matcher reads only statements with ids
<= the newest, so a combination is new exactly when it cites the newest id.
Two helpers state the join's policies once: ``_role`` picks the
statements that may fill a premise of one predicate (the newest alone if it
has that predicate, else the earlier ones), and ``_fire`` drops a conclusion
that is not a well-formed statement.
The triangle matchers yield each (premises, vertex correspondence) once per
call: they try one labelling of each triangle pair, since the others give
the same correspondence again or reversed, and they skip earlier facts that
cannot be a side or angle pair of the new fact's triangles. They read hash
indexes that ``MatchContext.note`` keeps (equal-segments facts by segment
pair, equal-angles facts by triangle pair and by angle vertices); a lookup
returns ascending ids below a bound, so a matcher fires in the order a scan
of all earlier facts would.
Saturation runs only the rules a new statement's predicate triggers; replay
refuses a step whose newest cited premise is not a trigger and otherwise
runs the same matcher over a context holding only the cited premises, so the
matchers are the single definition of what each rule derives. Rules carry
numeric side-condition guards so that a fired rule's conclusion always holds
on the instantiated scene; a conclusion failing the kernel check therefore
signals a bug, not a filterable event.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .geometry import SceneGeometry
from .statements import (
    MalformedStatementError,
    Predicate,
    Statement,
    angle_measure,
    congruent_triangles,
    equal_angles,
    equal_segments,
    parallel,
    right_angle,
    segment_length,
    segment_ratio,
    similar_triangles,
)

Match = tuple[tuple[int, ...], Statement]


@dataclass(eq=False, repr=False)
class MatchContext:
    """What a matcher reads: statements by id (ids are insertion order), the
    id of a statement, and the ids of each predicate in insertion order.

    Saturation runs over the reasoning graph, a subclass that ``note``s each
    id it adds; ``of`` builds a standalone context over a statement list.
    ``note`` also keeps the join indexes: the first equal-segments id of each
    segment pair, and the equal-angles ids, ascending, by triangle-pair key
    and by their two angle vertices (sorted)."""

    geometry: SceneGeometry
    statements: list[Statement] = field(default_factory=list)
    index: dict[Statement, int] = field(default_factory=dict)
    by_pred: dict[Predicate, list[int]] = field(default_factory=dict, init=False)
    eq_segments: dict[tuple[tuple[str, ...], ...], int] = field(default_factory=dict, init=False)
    angles_by_pair: dict[frozenset, list[int]] = field(default_factory=dict, init=False)
    angles_by_vertices: dict[tuple[str, str], list[int]] = field(default_factory=dict, init=False)

    @classmethod
    def of(cls, geometry: SceneGeometry, statements: Iterable[Statement]) -> "MatchContext":
        ctx = cls(geometry, list(statements))
        for sid, stmt in enumerate(ctx.statements):
            ctx.index.setdefault(stmt, sid)
            ctx.note(sid)
        return ctx

    def note(self, sid: int) -> None:
        stmt = self.statements[sid]
        self.by_pred.setdefault(stmt.predicate, []).append(sid)
        if stmt.predicate is Predicate.EQUAL_SEGMENTS:
            self.eq_segments.setdefault(stmt.groups, sid)
        elif stmt.predicate is Predicate.EQUAL_ANGLES:
            g1, g2 = stmt.groups
            self.angles_by_pair.setdefault(_triangle_pair_key(stmt), []).append(sid)
            self.angles_by_vertices.setdefault(_seg(g1[1], g2[1]), []).append(sid)

    def stmt(self, sid: int) -> Statement:
        return self.statements[sid]

    def ids_of(self, pred: Predicate) -> Sequence[int]:
        return self.by_pred.get(pred, ())

    def lookup(self, stmt: Statement) -> int | None:
        return self.index.get(stmt)


Matcher = Callable[[MatchContext, int], Iterator[Match]]


@dataclass(frozen=True)
class Rule:
    """A theorem: its id, its premise matcher and the predicates its newest
    premise may have."""

    id: str
    match: Matcher
    triggers: frozenset[Predicate]

    def recheck(self, geometry: SceneGeometry, premises: Sequence[Statement], conclusion: Statement) -> bool:
        """Replay one recorded step: run the matcher on a context holding only
        the cited premises, the last one newest, and accept the step only if
        it derives exactly ``conclusion`` from exactly these premises. A last
        premise whose predicate is not a trigger is refused before the
        matcher, which assumes a trigger predicate, sees it."""
        if not premises or premises[-1].predicate not in self.triggers:
            return False
        ctx = MatchContext.of(geometry, premises)
        cited = tuple(range(len(premises)))
        return any(
            derived == conclusion and tuple(sorted(ids)) == cited
            for ids, derived in self.match(ctx, len(premises) - 1)
        )


def _others(ctx: MatchContext, pred: Predicate, before: int) -> Iterator[tuple[int, Statement]]:
    for i in ctx.ids_of(pred):
        if i >= before:
            break
        yield i, ctx.stmt(i)


def _role(ctx: MatchContext, sid: int, pred: Predicate) -> Iterable[tuple[int, Statement]]:
    """The statements that may fill a premise of predicate ``pred`` when
    ``sid`` is the newest premise: the newest statement alone if it has
    ``pred``, otherwise the earlier statements of ``pred``."""
    new = ctx.stmt(sid)
    return ((sid, new),) if new.predicate is pred else _others(ctx, pred, sid)


def _fire(premises: tuple[int, ...], factory: Callable[..., Statement], *args) -> Iterator[Match]:
    """Yield ``(premises, factory(*args))``, or nothing when the arguments
    make no well-formed statement."""
    try:
        conclusion = factory(*args)
    except MalformedStatementError:
        return
    yield premises, conclusion


def _below(ids: Sequence[int], before: int) -> Sequence[int]:
    """The ids < ``before`` of an ascending id list."""
    return ids[: bisect_left(ids, before)]


def _seg(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _shared_point(s1: Sequence[str], s2: Sequence[str]) -> str | None:
    common = set(s1) & set(s2)
    return common.pop() if len(common) == 1 else None


def _other_end(seg: Sequence[str], p: str) -> str:
    return seg[1] if seg[0] == p else seg[0]


def _not_collinear(g: SceneGeometry, a: str, b: str, c: str) -> bool:
    return len({a, b, c}) == 3 and g.collinear_residual(a, b, c) > 1e-7


def _position_deg(g: SceneGeometry, center: str, p: str) -> float:
    pc, pp = g.point(center), g.point(p)
    return math.degrees(math.atan2(pp[1] - pc[1], pp[0] - pc[0]))


def _on_major_arc(g: SceneGeometry, center: str, a: str, b: str, c: str) -> bool:
    """True when c lies strictly on the arc of the circle not subtending a-b."""
    ta = _position_deg(g, center, a)
    tb = _position_deg(g, center, b)
    tc = _position_deg(g, center, c)
    ds = (tb - ta) % 360.0
    if ds > 180.0:
        ta, tb = tb, ta
        ds = 360.0 - ds
    dc = (tc - ta) % 360.0
    eps = 1e-9
    if dc < eps or abs(dc - ds) < eps or abs(dc - 360.0) < eps:
        return False  # coincides with an endpoint
    return dc > ds


def _side_sign(g: SceneGeometry, p: str, a: str, b: str) -> int:
    """-1/+1 for a point strictly off the directed line a->b, else 0."""
    pa, pb, pp = g.point(a), g.point(b), g.point(p)
    ux, uy = pb[0] - pa[0], pb[1] - pa[1]
    cross = ux * (pp[1] - pa[1]) - uy * (pp[0] - pa[0])
    scale = math.hypot(ux, uy) * math.hypot(pp[0] - pa[0], pp[1] - pa[1])
    if scale == 0.0 or abs(cross) / scale <= 1e-7:
        return 0
    return 1 if cross > 0 else -1


def _sqrt_fraction(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


# --- matchers ---------------------------------------------------------------


def _m_isosceles_base_angles(ctx: MatchContext, sid: int) -> Iterator[Match]:
    s1, s2 = ctx.stmt(sid).groups
    apex = _shared_point(s1, s2)
    if apex is None:
        return
    b, c = _other_end(s1, apex), _other_end(s2, apex)
    if _not_collinear(ctx.geometry, apex, b, c):
        yield from _fire((sid,), equal_angles, (apex, b, c), (apex, c, b))


def _base_angle_pattern(a1: Sequence[str], a2: Sequence[str]) -> tuple[str, str, str] | None:
    """Detect base angles of one triangle: returns (apex, base1, base2)."""
    v1, v2 = a1[1], a2[1]
    r1, r2 = {a1[0], a1[2]}, {a2[0], a2[2]}
    if v1 == v2 or v2 not in r1 or v1 not in r2:
        return None
    w1 = (r1 - {v2}).pop()
    w2 = (r2 - {v1}).pop()
    if w1 != w2:
        return None
    return w1, v1, v2


def _m_isosceles_converse(ctx: MatchContext, sid: int) -> Iterator[Match]:
    pat = _base_angle_pattern(*ctx.stmt(sid).groups)
    if pat is None:
        return
    apex, b, c = pat
    if _not_collinear(ctx.geometry, apex, b, c):
        yield from _fire((sid,), equal_segments, (apex, b), (apex, c))


def _m_triangle_angle_sum(ctx: MatchContext, sid: int) -> Iterator[Match]:
    new = ctx.stmt(sid)
    if new.value is None:
        return
    tri = set(new.groups[0])
    for oid, other in _others(ctx, Predicate.ANGLE_MEASURE, sid):
        if other.value is None or set(other.groups[0]) != tri:
            continue
        v1, v2 = new.groups[0][1], other.groups[0][1]
        if v1 == v2:
            continue
        rest = 180 - new.value - other.value
        if not 0 < rest < 180:
            continue
        third = (tri - {v1, v2}).pop()
        yield from _fire((oid, sid), angle_measure, (v1, third, v2), rest)


def _m_angle_sum_equal_pair(ctx: MatchContext, sid: int) -> Iterator[Match]:
    """Base angles equal plus a known apex angle fixes both base angles."""
    for eq_id, eq in _role(ctx, sid, Predicate.EQUAL_ANGLES):
        pat = _base_angle_pattern(*eq.groups)
        if pat is None:
            continue
        apex, b, c = pat
        for val_id, val in _role(ctx, sid, Predicate.ANGLE_MEASURE):
            ang = val.groups[0]
            if val.value is None or ang[1] != apex or {ang[0], ang[2]} != {b, c}:
                continue
            each = (180 - val.value) / 2
            if not 0 < each < 180:
                continue
            premises = tuple(sorted((eq_id, val_id)))
            for base, other in ((b, c), (c, b)):
                yield from _fire(premises, angle_measure, (apex, base, other), each)


def _m_vertical_angles(ctx: MatchContext, sid: int) -> Iterator[Match]:
    new = ctx.stmt(sid)
    g = ctx.geometry
    for oid, other in _others(ctx, Predicate.COLLINEAR, sid):
        common = set(new.groups[0]) & set(other.groups[0])
        if len(common) != 1:
            continue
        x = common.pop()
        a, b = (p for p in new.groups[0] if p != x)
        c, d = (p for p in other.groups[0] if p != x)
        if not (g.strictly_between(a, x, b) and g.strictly_between(c, x, d)):
            continue
        if _side_sign(g, c, a, b) == 0:  # same line, no crossing
            continue
        for c1, c2 in (((a, x, c), (b, x, d)), ((a, x, d), (b, x, c))):
            yield from _fire((oid, sid), equal_angles, c1, c2)


def _m_alternate_interior(ctx: MatchContext, sid: int) -> Iterator[Match]:
    g = ctx.geometry
    s1, s2 = ctx.stmt(sid).groups
    for b in s1:
        for c in s2:
            a, d = _other_end(s1, b), _other_end(s2, c)
            sa, sd = _side_sign(g, a, b, c), _side_sign(g, d, b, c)
            if sa == 0 or sd == 0 or sa == sd:
                continue
            yield from _fire((sid,), equal_angles, (a, b, c), (b, c, d))


def _m_corresponding_angles(ctx: MatchContext, sid: int) -> Iterator[Match]:
    g = ctx.geometry
    for par_id, par in _role(ctx, sid, Predicate.PARALLEL):
        s1, s2 = par.groups
        for col_id, col in _role(ctx, sid, Predicate.COLLINEAR):
            pts = set(col.groups[0])
            for b in s1:
                for c in s2:
                    if {b, c} - pts:
                        continue
                    e = (pts - {b, c}).pop() if len(pts - {b, c}) == 1 else None
                    if e is None or not g.strictly_between(b, c, e):
                        continue
                    a, d = _other_end(s1, b), _other_end(s2, c)
                    sa, sd = _side_sign(g, a, b, c), _side_sign(g, d, b, c)
                    if sa == 0 or sd == 0 or sa != sd:
                        continue
                    premises = tuple(sorted((par_id, col_id)))
                    yield from _fire(premises, equal_angles, (a, b, c), (d, c, e))


def _m_perpendicular_right_angle(ctx: MatchContext, sid: int) -> Iterator[Match]:
    new = ctx.stmt(sid)
    if new.predicate is Predicate.PERPENDICULAR:  # the two segments share an endpoint
        s1, s2 = new.groups
        v = _shared_point(s1, s2)
        if v is not None:
            yield from _fire((sid,), right_angle, (_other_end(s1, v), v, _other_end(s2, v)))
    # one segment lies on a line through the other's foot
    for perp_id, perp in _role(ctx, sid, Predicate.PERPENDICULAR):
        for col_id, col in _role(ctx, sid, Predicate.COLLINEAR):
            pts = set(col.groups[0])
            for sa, sb in ((perp.groups[0], perp.groups[1]), (perp.groups[1], perp.groups[0])):
                if not set(sb) <= pts:
                    continue
                feet = (set(sa) & pts) - set(sb)
                if len(feet) != 1:
                    continue
                foot = feet.pop()
                apex = _other_end(sa, foot)
                if apex in pts:
                    continue
                premises = tuple(sorted((perp_id, col_id)))
                for end in sb:
                    yield from _fire(premises, right_angle, (apex, foot, end))


def _m_right_angle_measure(ctx: MatchContext, sid: int) -> Iterator[Match]:
    yield from _fire((sid,), angle_measure, ctx.stmt(sid).groups[0], 90)


def _m_midpoint_equal_halves(ctx: MatchContext, sid: int) -> Iterator[Match]:
    (m,), (a, b) = ctx.stmt(sid).groups
    yield from _fire((sid,), equal_segments, (a, m), (m, b))


def _m_midpoint_half_ratio(ctx: MatchContext, sid: int) -> Iterator[Match]:
    (m,), (a, b) = ctx.stmt(sid).groups
    for end in (a, b):
        yield from _fire((sid,), segment_ratio, (end, m), (a, b), Fraction(1, 2))


def _midsegment_pattern(
    ctx: MatchContext, sid: int
) -> Iterator[tuple[tuple[int, ...], tuple[str, str], tuple[str, str]]]:
    (m,), seg1 = ctx.stmt(sid).groups
    for oid, other in _others(ctx, Predicate.MIDPOINT, sid):
        (n,), seg2 = other.groups
        apex = _shared_point(seg1, seg2)
        if apex is None or m == n:
            continue
        b, c = _other_end(seg1, apex), _other_end(seg2, apex)
        if not _not_collinear(ctx.geometry, apex, b, c):
            continue
        yield (oid, sid), (m, n), (b, c)


def _m_midsegment_parallel(ctx: MatchContext, sid: int) -> Iterator[Match]:
    for premises, mid_seg, base in _midsegment_pattern(ctx, sid):
        yield from _fire(premises, parallel, mid_seg, base)


def _m_midsegment_half_length(ctx: MatchContext, sid: int) -> Iterator[Match]:
    for premises, mid_seg, base in _midsegment_pattern(ctx, sid):
        yield from _fire(premises, segment_ratio, mid_seg, base, Fraction(1, 2))


def _right_angle_with_lengths(
    ctx: MatchContext, sid: int
) -> Iterator[tuple[int, Statement, int, Statement, int, Statement]]:
    """Enumerate (right-angle stmt, two segment lengths) combinations with sid newest."""
    new = ctx.stmt(sid)
    if new.predicate is Predicate.RIGHT_ANGLE:
        lens = list(_others(ctx, Predicate.SEGMENT_LENGTH, sid))
        for (i1, l1), (i2, l2) in combinations(lens, 2):
            yield sid, new, i1, l1, i2, l2
    else:
        for rid, ra in _others(ctx, Predicate.RIGHT_ANGLE, sid):
            for oid, other in _others(ctx, Predicate.SEGMENT_LENGTH, sid):
                yield rid, ra, oid, other, sid, new


def _m_pythagoras(ctx: MatchContext, sid: int) -> Iterator[Match]:
    for rid, ra, i1, l1, i2, l2 in _right_angle_with_lengths(ctx, sid):
        if l1.value is None or l2.value is None:
            continue
        x, v, y = ra.groups[0]
        legs = {_seg(v, x): None, _seg(v, y): None}
        segs = {l1.groups[0]: l1.value, l2.groups[0]: l2.value}
        if set(segs) != set(legs):
            continue
        hyp = _sqrt_fraction(sum(val * val for val in segs.values()))
        if hyp is not None:
            yield from _fire(tuple(sorted((rid, i1, i2))), segment_length, (x, y), hyp)


def _m_pythagoras_leg(ctx: MatchContext, sid: int) -> Iterator[Match]:
    for rid, ra, i1, l1, i2, l2 in _right_angle_with_lengths(ctx, sid):
        if l1.value is None or l2.value is None:
            continue
        x, v, y = ra.groups[0]
        hyp_seg = _seg(x, y)
        for hyp, leg in ((l1, l2), (l2, l1)):
            if hyp.groups[0] != hyp_seg:
                continue
            if leg.groups[0] == _seg(v, x):
                target = (v, y)
            elif leg.groups[0] == _seg(v, y):
                target = (v, x)
            else:
                continue
            sq = hyp.value * hyp.value - leg.value * leg.value
            if sq <= 0:
                continue
            other_leg = _sqrt_fraction(sq)
            if other_leg is not None:
                yield from _fire(tuple(sorted((rid, i1, i2))), segment_length, target, other_leg)


def _triangle_correspondence(
    sides1: Sequence[tuple[str, str]], sides2: Sequence[tuple[str, str]]
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    pts1 = set(sides1[0]) | set(sides1[1]) | set(sides1[2])
    pts2 = set(sides2[0]) | set(sides2[1]) | set(sides2[2])
    if len(pts1) != 3 or len(pts2) != 3:
        return None
    mapping: dict[str, str] = {}
    for i, j in combinations(range(3), 2):
        c1 = _shared_point(sides1[i], sides1[j])
        c2 = _shared_point(sides2[i], sides2[j])
        if c1 is None or c2 is None:
            return None
        if mapping.get(c1, c2) != c2:
            return None
        mapping[c1] = c2
    if len(mapping) != 3 or len(set(mapping.values())) != 3:
        return None
    for k in range(3):
        if {mapping[p] for p in sides1[k]} != set(sides2[k]):
            return None
    t1 = tuple(sorted(pts1))
    return t1, tuple(mapping[p] for p in t1)


def _m_sss_congruence(ctx: MatchContext, sid: int) -> Iterator[Match]:
    a, b = ctx.stmt(sid).groups
    g = ctx.geometry

    def congruent(premises: tuple[int, ...], sides1, sides2) -> Iterator[Match]:
        pair = _triangle_correspondence(sides1, sides2)
        if pair is not None and _not_collinear(g, *pair[0]) and _not_collinear(g, *pair[1]):
            yield from _fire(premises, congruent_triangles, *pair)

    # The new fact's segments a and b are sides of the first and the second
    # triangle; the other labelling swaps the triangles, which is the same
    # correspondence reversed. Sides of a triangle meet pairwise, so an
    # earlier equality is a side pair only when it can be laid with one
    # segment meeting a and the other meeting b; each keeps those layings.
    eqs = []
    for i, eq in _others(ctx, Predicate.EQUAL_SEGMENTS, sid):
        layings = [
            (eq.groups[o], eq.groups[1 - o])
            for o in (0, 1)
            if _shared_point(a, eq.groups[o]) is not None
            and _shared_point(b, eq.groups[1 - o]) is not None
        ]
        if layings:
            eqs.append((i, layings))
    # three explicit equalities
    for (i2, layings2), (i3, layings3) in combinations(eqs, 2):
        for x1, x2 in layings2:
            for y1, y2 in layings3:
                yield from congruent((i2, i3, sid), [a, x1, y1], [b, x2, y2])
    # two equalities plus a literally shared third side
    for i2, layings in eqs:
        for x1, x2 in layings:
            loose = {*a, *x1} - {_shared_point(a, x1)}
            if loose == {*b, *x2} - {_shared_point(b, x2)}:
                third = _seg(*loose)
                yield from congruent((i2, sid), [a, x1, third], [b, x2, third])


def _eq_or_identical(
    ctx: MatchContext, seg1: tuple[str, str], seg2: tuple[str, str], before: int
) -> tuple[bool, int | None]:
    """Is seg1 = seg2 available: identical segments or an eq statement < before."""
    s1, s2 = _seg(*seg1), _seg(*seg2)
    if s1 == s2:
        return True, None
    sid = ctx.eq_segments.get((s1, s2) if s1 < s2 else (s2, s1))
    return (True, sid) if sid is not None and sid < before else (False, None)


def _triangle_pair_key(eq_ang: Statement) -> frozenset[frozenset[str]]:
    """The two angles' vertex sets. Two equal-angle facts can describe the
    same pair of triangles only when their keys are equal."""
    g1, g2 = eq_ang.groups
    return frozenset((frozenset(g1), frozenset(g2)))


def _same_pair(ctx: MatchContext, eq_ang: Statement, before: int) -> list[tuple[int, Statement]]:
    """The equal-angles facts with ids < ``before`` and the key of ``eq_ang``."""
    ids = _below(ctx.angles_by_pair.get(_triangle_pair_key(eq_ang), ()), before)
    return [(i, ctx.stmt(i)) for i in ids]


def _angles_on(ctx: MatchContext, eq_seg: Statement, before: int) -> list[tuple[int, Statement]]:
    """The equal-angles facts with ids < ``before`` that have one angle
    vertex on each of ``eq_seg``'s segments, ascending. A side equality of
    SAS or ASA equates a side through the fact's vertex in one triangle with
    the side through its vertex in the other, so no other fact can use
    ``eq_seg`` as one."""
    s1, s2 = eq_seg.groups
    keys = {_seg(p, q) for p in s1 for q in s2}
    ids = sorted(i for key in keys for i in _below(ctx.angles_by_vertices.get(key, ()), before))
    return [(i, ctx.stmt(i)) for i in ids]


def _same_key_pairs(facts: list[tuple[int, Statement]]) -> list[tuple[tuple[int, Statement], ...]]:
    """The pairs of equal-angles ``facts`` with the same triangle-pair key,
    the only ones that can share triangles, in ascending (first, second)
    id order."""
    by_key: dict[frozenset, list[tuple[int, Statement]]] = {}
    for fact in facts:
        by_key.setdefault(_triangle_pair_key(fact[1]), []).append(fact)
    pairs = (pair for same in by_key.values() for pair in combinations(same, 2))
    return sorted(pairs, key=lambda pair: (pair[0][0], pair[1][0]))


def _m_sas_congruence(ctx: MatchContext, sid: int) -> Iterator[Match]:
    new = ctx.stmt(sid)
    g = ctx.geometry
    angles = ((sid, new),) if new.predicate is Predicate.EQUAL_ANGLES else _angles_on(ctx, new, sid)
    for ang_id, ang in angles:
        a1, (x2, v2, y2) = ang.groups
        # the two ray pairings; swapping the angles gives them reversed
        for x1, v1, y1 in (a1, a1[::-1]):
            ok1, eq1 = _eq_or_identical(ctx, (v1, x1), (v2, x2), sid + 1)
            ok2, eq2 = _eq_or_identical(ctx, (v1, y1), (v2, y2), sid + 1)
            if not (ok1 and ok2):
                continue
            ids = {ang_id} | {e for e in (eq1, eq2) if e is not None}
            if sid not in ids:
                continue
            if not (_not_collinear(g, x1, v1, y1) and _not_collinear(g, x2, v2, y2)):
                continue
            yield from _fire(tuple(sorted(ids)), congruent_triangles, (x1, v1, y1), (x2, v2, y2))


def _triangle_maps(
    t1: set[str], t2: set[str], v1: str, v2: str, w1: str, w2: str
) -> tuple[tuple[str, str, str], tuple[str, str, str]] | None:
    if v1 == w1 or v2 == w2:
        return None
    r1 = t1 - {v1, w1}
    r2 = t2 - {v2, w2}
    if len(r1) != 1 or len(r2) != 1:
        return None
    return (v1, w1, r1.pop()), (v2, w2, r2.pop())


def _two_angle_triangles(
    g: SceneGeometry, st_a: Statement, st_b: Statement
) -> Iterator[tuple[tuple[str, str, str], tuple[str, str, str]]]:
    """Non-degenerate triangle pairs (v, w, u) in which ``st_a`` equates the
    angles at v and ``st_b`` those at w. An angle's vertex set and vertex do
    not depend on its ray order, and swapping both facts' angles swaps the
    triangles, so fixing ``st_a``'s order leaves only ``st_b``'s two."""
    a1, a2 = st_a.groups
    for b1, b2 in (st_b.groups, st_b.groups[::-1]):
        if set(a1) != set(b1) or set(a2) != set(b2):
            continue
        tri = _triangle_maps(set(a1), set(a2), a1[1], a2[1], b1[1], b2[1])
        if tri is not None and _not_collinear(g, *tri[0]) and _not_collinear(g, *tri[1]):
            yield tri


def _m_asa_congruence(ctx: MatchContext, sid: int) -> Iterator[Match]:
    new = ctx.stmt(sid)
    if new.predicate is Predicate.EQUAL_ANGLES:
        pairs = (((sid, new), other) for other in _same_pair(ctx, new, sid))
    else:
        pairs = _same_key_pairs(_angles_on(ctx, new, sid))
    for (id_a, st_a), (id_b, st_b) in pairs:
        for (v1, w1, u1), (v2, w2, u2) in _two_angle_triangles(ctx.geometry, st_a, st_b):
            ok, eq_id = _eq_or_identical(ctx, (v1, w1), (v2, w2), sid + 1)
            if not ok:
                continue
            ids = {id_a, id_b} | ({eq_id} if eq_id is not None else set())
            if sid in ids:
                premises = tuple(sorted(ids))
                yield from _fire(premises, congruent_triangles, (v1, w1, u1), (v2, w2, u2))


def _corresponding_side_pairs(t1, t2):
    for i, j in ((0, 1), (1, 2), (0, 2)):
        yield (t1[i], t1[j]), (t2[i], t2[j])


def _m_congruent_sides(ctx: MatchContext, sid: int) -> Iterator[Match]:
    for s1, s2 in _corresponding_side_pairs(*ctx.stmt(sid).groups):
        yield from _fire((sid,), equal_segments, s1, s2)


def _m_congruent_angles(ctx: MatchContext, sid: int) -> Iterator[Match]:
    t1, t2 = ctx.stmt(sid).groups
    for i in range(3):
        a1 = (t1[(i + 1) % 3], t1[i], t1[(i + 2) % 3])
        a2 = (t2[(i + 1) % 3], t2[i], t2[(i + 2) % 3])
        yield from _fire((sid,), equal_angles, a1, a2)


def _m_aa_similarity(ctx: MatchContext, sid: int) -> Iterator[Match]:
    new = ctx.stmt(sid)
    for oid, other in _same_pair(ctx, new, sid):
        for t1, t2 in _two_angle_triangles(ctx.geometry, new, other):
            yield from _fire((oid, sid), similar_triangles, t1, t2)


def _m_similar_side_ratio(ctx: MatchContext, sid: int) -> Iterator[Match]:
    for sim_id, sim in _role(ctx, sid, Predicate.SIMILAR_TRIANGLES):
        pairs = [(_seg(*p1), _seg(*p2)) for p1, p2 in _corresponding_side_pairs(*sim.groups)]
        for i, (seg1, seg2) in enumerate(pairs):
            st1 = _lookup_len(ctx, seg1, sid + 1)
            st2 = _lookup_len(ctx, seg2, sid + 1)
            if st1 is None or st2 is None:
                continue
            (id1, v1), (id2, v2) = st1, st2
            ids = {sim_id, id1, id2}
            if sid not in ids:
                continue
            ratio = v1 / v2
            premises = tuple(sorted(ids))
            for j, (o1, o2) in enumerate(pairs):
                if j != i and o1 != o2:
                    yield from _fire(premises, segment_ratio, o1, o2, ratio)


def _lookup_len(ctx: MatchContext, seg: tuple[str, str], before: int) -> tuple[int, Fraction] | None:
    for i, s in _others(ctx, Predicate.SEGMENT_LENGTH, before):
        if s.groups[0] == seg and s.value is not None:
            return i, s.value
    return None


Circles = dict[str, dict[tuple[str, str], dict[str, int]]]


def _circles(ctx: MatchContext, sid: int) -> Circles:
    """The on-circle facts with ids <= ``sid``: center -> radius segment ->
    point -> id of the point's first fact, each in order of first appearance."""
    circles: Circles = {}
    for i, s in _others(ctx, Predicate.ON_CIRCLE, sid + 1):
        (p,), (o,), sr = s.groups
        circles.setdefault(o, {}).setdefault(sr, {}).setdefault(p, i)
    return circles


def _third_points(
    circles: Circles, center: str, a: str, b: str
) -> Iterator[tuple[str, tuple[int, int, int]]]:
    """Each point c other than a and b on a circle about ``center`` through
    a and b, with the ids of the three on-circle facts."""
    for on in circles.get(center, {}).values():
        if a in on and b in on:
            for c, cid in sorted(on.items()):
                if c not in (a, b):
                    yield c, (on[a], on[b], cid)


def _m_inscribed_angle(ctx: MatchContext, sid: int) -> Iterator[Match]:
    g = ctx.geometry
    circles = _circles(ctx, sid)
    if not circles:
        return
    for val_id, val in _role(ctx, sid, Predicate.ANGLE_MEASURE):
        a, center, b = val.groups[0]
        if val.value is None:
            continue
        for c, on_ids in _third_points(circles, center, a, b):
            ids = {*on_ids, val_id}
            if sid in ids and _on_major_arc(g, center, a, b, c):
                yield from _fire(tuple(sorted(ids)), angle_measure, (a, c, b), val.value / 2)


def _m_thales(ctx: MatchContext, sid: int) -> Iterator[Match]:
    g = ctx.geometry
    circles = _circles(ctx, sid)
    if not circles:
        return
    for mid_id, mid in _role(ctx, sid, Predicate.MIDPOINT):
        (center,), (a, b) = mid.groups
        for c, on_ids in _third_points(circles, center, a, b):
            ids = {*on_ids, mid_id}
            if sid in ids and _not_collinear(g, a, c, b):
                yield from _fire(tuple(sorted(ids)), right_angle, (a, c, b))


def _m_angle_addition(ctx: MatchContext, sid: int) -> Iterator[Match]:
    new = ctx.stmt(sid)
    if new.value is None:
        return
    g = ctx.geometry
    p1, v, q1 = new.groups[0]
    for oid, other in _others(ctx, Predicate.ANGLE_MEASURE, sid):
        if other.value is None or other.groups[0][1] != v:
            continue
        p2, _, q2 = other.groups[0]
        shared = {p1, q1} & {p2, q2}
        if len(shared) != 1:
            continue
        d = shared.pop()
        x = p1 if q1 == d else q1
        y = p2 if q2 == d else q2
        if x == y:
            continue
        total = new.value + other.value
        if not 0 < total < 180:
            continue
        pv, px, py, pd = g.point(v), g.point(x), g.point(y), g.point(d)
        cross1 = (px[0] - pv[0]) * (pd[1] - pv[1]) - (px[1] - pv[1]) * (pd[0] - pv[0])
        cross2 = (pd[0] - pv[0]) * (py[1] - pv[1]) - (pd[1] - pv[1]) * (py[0] - pv[0])
        if cross1 * cross2 <= 0:
            continue  # d must lie strictly inside the combined angle
        yield from _fire((oid, sid), angle_measure, (x, v, y), total)


def _transitive(pred: Predicate, factory) -> Matcher:
    def matcher(ctx: MatchContext, sid: int) -> Iterator[Match]:
        new = ctx.stmt(sid)
        for oid, other in _others(ctx, pred, sid):
            common = [x for x in new.groups if x in other.groups]
            if len(common) != 1:
                continue
            mid = common[0]
            a = new.groups[0] if new.groups[1] == mid else new.groups[1]
            b = other.groups[0] if other.groups[1] == mid else other.groups[1]
            yield from _fire((oid, sid), factory, a, b)

    return matcher


def _substitution(eq_pred: Predicate, val_pred: Predicate, factory) -> Matcher:
    def matcher(ctx: MatchContext, sid: int) -> Iterator[Match]:
        for eq_id, eq in _role(ctx, sid, eq_pred):
            for val_id, val in _role(ctx, sid, val_pred):
                if val.value is None:
                    continue
                target = val.groups[0]
                if target == eq.groups[0]:
                    other = eq.groups[1]
                elif target == eq.groups[1]:
                    other = eq.groups[0]
                else:
                    continue
                yield from _fire(tuple(sorted((eq_id, val_id))), factory, other, val.value)

    return matcher


def _m_ratio_length_substitution(ctx: MatchContext, sid: int) -> Iterator[Match]:
    for ratio_id, ratio in _role(ctx, sid, Predicate.SEGMENT_RATIO):
        if ratio.value is None:
            continue
        s1, s2 = ratio.groups
        for len_id, length in _role(ctx, sid, Predicate.SEGMENT_LENGTH):
            if length.value is None:
                continue
            premises = tuple(sorted((ratio_id, len_id)))
            if length.groups[0] == s2:
                yield from _fire(premises, segment_length, s1, ratio.value * length.value)
            elif length.groups[0] == s1:
                yield from _fire(premises, segment_length, s2, length.value / ratio.value)


_P = Predicate

DEFAULT_RULES: tuple[Rule, ...] = (
    Rule("isosceles_base_angles", _m_isosceles_base_angles, frozenset({_P.EQUAL_SEGMENTS})),
    Rule("isosceles_converse", _m_isosceles_converse, frozenset({_P.EQUAL_ANGLES})),
    Rule("triangle_angle_sum", _m_triangle_angle_sum, frozenset({_P.ANGLE_MEASURE})),
    Rule(
        "triangle_angle_sum_equal_pair",
        _m_angle_sum_equal_pair,
        frozenset({_P.EQUAL_ANGLES, _P.ANGLE_MEASURE}),
    ),
    Rule("vertical_angles", _m_vertical_angles, frozenset({_P.COLLINEAR})),
    Rule("alternate_interior_angles", _m_alternate_interior, frozenset({_P.PARALLEL})),
    Rule(
        "corresponding_angles", _m_corresponding_angles, frozenset({_P.PARALLEL, _P.COLLINEAR})
    ),
    Rule(
        "perpendicular_right_angle",
        _m_perpendicular_right_angle,
        frozenset({_P.PERPENDICULAR, _P.COLLINEAR}),
    ),
    Rule("right_angle_measure", _m_right_angle_measure, frozenset({_P.RIGHT_ANGLE})),
    Rule("midpoint_equal_halves", _m_midpoint_equal_halves, frozenset({_P.MIDPOINT})),
    Rule("midpoint_half_ratio", _m_midpoint_half_ratio, frozenset({_P.MIDPOINT})),
    Rule("midsegment_parallel", _m_midsegment_parallel, frozenset({_P.MIDPOINT})),
    Rule("midsegment_half_length", _m_midsegment_half_length, frozenset({_P.MIDPOINT})),
    Rule("pythagoras", _m_pythagoras, frozenset({_P.RIGHT_ANGLE, _P.SEGMENT_LENGTH})),
    Rule("pythagoras_leg", _m_pythagoras_leg, frozenset({_P.RIGHT_ANGLE, _P.SEGMENT_LENGTH})),
    Rule("sss_congruence", _m_sss_congruence, frozenset({_P.EQUAL_SEGMENTS})),
    Rule("sas_congruence", _m_sas_congruence, frozenset({_P.EQUAL_ANGLES, _P.EQUAL_SEGMENTS})),
    Rule("asa_congruence", _m_asa_congruence, frozenset({_P.EQUAL_ANGLES, _P.EQUAL_SEGMENTS})),
    Rule("congruent_sides", _m_congruent_sides, frozenset({_P.CONGRUENT_TRIANGLES})),
    Rule("congruent_angles", _m_congruent_angles, frozenset({_P.CONGRUENT_TRIANGLES})),
    Rule("aa_similarity", _m_aa_similarity, frozenset({_P.EQUAL_ANGLES})),
    Rule(
        "similar_side_ratio",
        _m_similar_side_ratio,
        frozenset({_P.SIMILAR_TRIANGLES, _P.SEGMENT_LENGTH}),
    ),
    Rule("inscribed_angle", _m_inscribed_angle, frozenset({_P.ANGLE_MEASURE, _P.ON_CIRCLE})),
    Rule("thales_right_angle", _m_thales, frozenset({_P.MIDPOINT, _P.ON_CIRCLE})),
    Rule("angle_addition", _m_angle_addition, frozenset({_P.ANGLE_MEASURE})),
    Rule(
        "equal_segments_transitive",
        _transitive(_P.EQUAL_SEGMENTS, equal_segments),
        frozenset({_P.EQUAL_SEGMENTS}),
    ),
    Rule(
        "equal_angles_transitive",
        _transitive(_P.EQUAL_ANGLES, equal_angles),
        frozenset({_P.EQUAL_ANGLES}),
    ),
    Rule(
        "segment_length_substitution",
        _substitution(_P.EQUAL_SEGMENTS, _P.SEGMENT_LENGTH, segment_length),
        frozenset({_P.EQUAL_SEGMENTS, _P.SEGMENT_LENGTH}),
    ),
    Rule(
        "angle_measure_substitution",
        _substitution(_P.EQUAL_ANGLES, _P.ANGLE_MEASURE, angle_measure),
        frozenset({_P.EQUAL_ANGLES, _P.ANGLE_MEASURE}),
    ),
    Rule(
        "ratio_length_substitution",
        _m_ratio_length_substitution,
        frozenset({_P.SEGMENT_RATIO, _P.SEGMENT_LENGTH}),
    ),
)

RULES_BY_ID = {r.id: r for r in DEFAULT_RULES}
