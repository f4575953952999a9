import dataclasses
import os
import pickle
import string
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoforge.reasoner import SolutionStep
from geoforge.statements import (
    CANONICAL_TABLE_SIZE,
    MalformedStatementError,
    ParseError,
    Predicate,
    Statement,
    UnknownPointError,
    UnknownPredicateError,
    _LABELS as LEGAL_LABELS,
    _POINT_RE,
    _canon_triangle_pair,
    _canonical,
    angle_measure,
    canonicalize,
    clear_canonical_table,
    collinear,
    congruent_triangles,
    equal_angles,
    equal_segments,
    midpoint,
    on_circle,
    parallel,
    parse_statement,
    perpendicular,
    right_angle,
    segment_length,
    segment_ratio,
    serialize_statement,
    similar_triangles,
)


class TestCanonicalization:
    def test_symmetric_argument_sort(self):
        assert equal_segments(("C", "D"), ("A", "B")).text() == "eq_seg(A,B;C,D)"

    def test_ray_sort_at_vertex(self):
        s = equal_angles(("C", "B", "A"), ("F", "E", "D"))
        assert s.text() == "eq_angle(A,B,C;D,E,F)"

    def test_collinear_argument_sort(self):
        assert collinear("C", "A", "B").text() == "collinear(A,B,C)"

    def test_idempotent(self):
        s = equal_segments(("C", "D"), ("A", "B"))
        assert canonicalize(s) == s

    def test_segment_endpoint_sort(self):
        assert segment_length(("B", "A"), 5).text() == "seg_len(A,B;5)"

    def test_angle_value_normalization(self):
        with pytest.raises(MalformedStatementError):
            angle_measure(("A", "B", "C"), 180)
        with pytest.raises(MalformedStatementError):
            angle_measure(("A", "B", "C"), 0)

    def test_degenerate_collinear_rejected(self):
        with pytest.raises(MalformedStatementError):
            collinear("A", "A", "B")

    def test_degenerate_segment_rejected(self):
        with pytest.raises(MalformedStatementError):
            segment_length(("A", "A"), 1)

    def test_equal_with_itself_rejected(self):
        with pytest.raises(MalformedStatementError):
            equal_segments(("A", "B"), ("B", "A"))

    def test_parallel_sharing_point_rejected(self):
        with pytest.raises(MalformedStatementError):
            parallel(("A", "B"), ("A", "C"))

    def test_midpoint_on_endpoint_rejected(self):
        with pytest.raises(MalformedStatementError):
            midpoint("A", ("A", "B"))

    def test_ratio_orientation_flip_inverts_value(self):
        s = segment_ratio(("C", "D"), ("A", "B"), Fraction(1, 2))
        assert s.text() == "seg_ratio(A,B;C,D;2)"

    def test_triangle_pair_correspondence_preserved(self):
        a = congruent_triangles(("B", "C", "A"), ("E", "F", "D"))
        b = congruent_triangles(("A", "B", "C"), ("D", "E", "F"))
        assert a == b
        # breaking the correspondence gives a different statement
        c = congruent_triangles(("A", "B", "C"), ("E", "D", "F"))
        assert c != b

    def test_triangle_pair_swap(self):
        a = similar_triangles(("D", "E", "F"), ("A", "B", "C"))
        b = similar_triangles(("A", "B", "C"), ("D", "E", "F"))
        assert a == b

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedStatementError):
            canonicalize(Statement(Predicate.COLLINEAR, (("A", "B"),)))

    def test_equality_is_byte_identity(self):
        a = equal_segments(("A", "B"), ("C", "D"))
        b = parse_statement("eq_seg(C,D;A,B)")
        assert a == b
        assert a.text() == b.text()
        assert hash(a) == hash(b)


def _table_size() -> int:
    return _canonical.cache_info().currsize


class TestCanonicalTable:
    """Equal canonical statements are one shared object while the table
    holds them; the table never changes what a statement is."""

    @pytest.fixture(autouse=True)
    def empty_table(self):
        clear_canonical_table()
        yield
        clear_canonical_table()

    def test_equal_arguments_return_the_same_object(self):
        a1, a2 = ("C", "B", "A"), ("F", "E", "D")
        assert equal_angles(a1, a2) is equal_angles(a1, a2)
        # every way in builds through the one table
        s = equal_angles(a1, a2)
        assert parse_statement("eq_angle(C,B,A;F,E,D)") is s
        assert canonicalize(Statement(Predicate.EQUAL_ANGLES, (a1, a2))) is s
        assert segment_ratio(("B", "A"), ("C", "D"), 2) is segment_ratio(("B", "A"), ("C", "D"), 2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: collinear("A", "A", "B"), "collinear points must be distinct"),
            (lambda: angle_measure(("A", "B", "C"), 180), r"angle value must lie in \(0, 180\)"),
            (lambda: parse_statement("parallel(A,B;B,C)"), "parallel segments may not share a point"),
            (lambda: canonicalize(Statement(Predicate.MIDPOINT, (("A",), ("A", "B")))), "midpoint coincides"),
        ],
        ids=["factory", "value", "parser", "canonicalize"],
    )
    def test_malformed_raises_every_call_and_is_not_stored(self, build, message):
        collinear("A", "B", "C")
        size = _table_size()
        for _ in range(3):
            with pytest.raises(MalformedStatementError, match=message):
                build()
        assert _table_size() == size == 1

    def test_int_and_equal_fraction_values_are_not_merged(self):
        groups = (("B", "A"),)
        as_int = canonicalize(Statement(Predicate.SEGMENT_LENGTH, groups, 3))
        as_fraction = canonicalize(Statement(Predicate.SEGMENT_LENGTH, groups, Fraction(3)))
        assert type(as_int.value) is int and type(as_fraction.value) is Fraction
        assert as_int == as_fraction and as_int is not as_fraction
        assert _table_size() == 2
        # the factories hand the table a Fraction whatever they are given
        assert segment_length(("A", "B"), 3) is segment_length(("A", "B"), Fraction(3))

    @pytest.mark.parametrize(
        "predicate, groups, value, text",
        [
            (Predicate.EQUAL_SEGMENTS, [["C", "D"], ["B", "A"]], None, "eq_seg(A,B;C,D)"),
            (Predicate.COLLINEAR, [["C", "A", "B"]], None, "collinear(A,B,C)"),
            (Predicate.MIDPOINT, [["M"], ["B", "A"]], None, "midpoint(M;A,B)"),
            (Predicate.CONGRUENT_TRIANGLES, [["E", "D", "F"], ["B", "A", "C"]], None, "congruent(A,B,C;D,E,F)"),
            (Predicate.SEGMENT_RATIO, [["C", "D"], ["A", "B"]], Fraction(2), "seg_ratio(A,B;C,D;1/2)"),
        ],
        ids=["eq_seg", "collinear", "midpoint", "congruent", "seg_ratio"],
    )
    def test_list_groups_canonicalize_as_before(self, predicate, groups, value, text):
        s = canonicalize(Statement(predicate, groups, value))
        assert s.text() == text and s == parse_statement(text)
        assert type(s.groups) is tuple and all(type(g) is tuple for g in s.groups)
        assert _table_size() == 1  # the parse above; the lists never enter the table

    def test_list_groups_malformed_raise_as_before(self):
        with pytest.raises(MalformedStatementError, match="collinear points must be distinct"):
            canonicalize(Statement(Predicate.COLLINEAR, [["A", "B", "A"]]))
        with pytest.raises(MalformedStatementError, match=r"expects groups \(2, 2\), got \(2,\)"):
            canonicalize(Statement(Predicate.PARALLEL, [["A", "B"]]))
        assert _table_size() == 0

    def test_bounded(self):
        assert _canonical.cache_info().maxsize == CANONICAL_TABLE_SIZE


SRC = Path(__file__).resolve().parents[1] / "src"

# unpickles (texts, rule, [statements..., step]) sent by the test, builds
# the same objects locally and compares; prints the local first hash
_UNPICKLE_AND_COMPARE = """
import pickle, sys
from geoforge.reasoner import SolutionStep
from geoforge.statements import parse_statement

texts, rule, unpickled = pickle.loads(sys.stdin.buffer.read())
assert not any("_hash" in vars(u) or "_text" in vars(u) for u in unpickled)
local = [parse_statement(t) for t in texts]
local.append(SolutionStep(tuple(local[:-1]), rule, local[-1]))
assert unpickled == local
assert [hash(u) for u in unpickled] == [hash(x) for x in local]
index = {x: i for i, x in enumerate(local)}
assert [index[u] for u in unpickled] == list(range(len(local)))
assert [u.text() for u in unpickled[:-1]] == texts
print(hash(local[0]))
"""


class TestKeptHashAndText:
    """A statement computes its hash and text once, and a step its hash;
    each is what the fields give, and none is pickled."""

    def test_hash_text_repr_and_replace_as_the_fields_give(self):
        s = segment_length(("B", "A"), Fraction(7, 2))
        assert hash(s) == hash((s.predicate, s.groups, s.value))
        assert s.text() == str(s) == serialize_statement(s) == "seg_len(A,B;7/2)"
        assert repr(s) == (
            "Statement(predicate=<Predicate.SEGMENT_LENGTH: 'seg_len'>, "
            "groups=(('A', 'B'),), value=Fraction(7, 2))"
        )
        query = dataclasses.replace(s, value=None)
        assert query.text() == "seg_len(A,B)" and hash(query) == hash((query.predicate, query.groups, None))
        assert query == s.without_value() and query != s
        step = SolutionStep((s,), "rule", query)
        assert hash(step) == hash(((s,), "rule", query))
        assert dataclasses.replace(step, rule="other") != step

    def test_pickle_carries_neither_and_another_hash_seed_recomputes(self):
        statements = [
            segment_length(("A", "B"), Fraction(7, 2)),
            angle_measure(("C", "B", "A"), 90),
            segment_ratio(("C", "D"), ("A", "B"), 2),
            equal_angles(("A", "B", "C"), ("D", "E", "F")),
            segment_length(("C", "D"), 3).without_value(),
        ]
        step = SolutionStep(tuple(statements[:-1]), "some_rule", statements[-1])
        for obj in (*statements, step):
            hash(obj)
        texts = [s.text() for s in statements]
        data = pickle.dumps((texts, step.rule, [*statements, step]))
        assert b"_hash" not in data and b"_text" not in data
        pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        child_hashes = set()
        for hash_seed in ("1", "2"):
            child = subprocess.run(
                [sys.executable, "-c", _UNPICKLE_AND_COMPARE],
                input=data,
                env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
            )
            assert child.returncode == 0, child.stderr.decode()
            child_hashes.add(int(child.stdout))
        # the hash moves with the seed, so a pickled one would be wrong
        assert len(child_hashes) == 2


class TestParsing:
    def test_examples(self):
        assert parse_statement("eq_seg(A,B;C,D)") == equal_segments(("A", "B"), ("C", "D"))
        assert parse_statement("angle_val(A,B,C;90)") == angle_measure(("A", "B", "C"), 90)
        assert parse_statement("seg_ratio(A,B;C,D;1/2)") == segment_ratio(
            ("A", "B"), ("C", "D"), Fraction(1, 2)
        )

    def test_arity_parse_error(self):
        with pytest.raises(ParseError) as exc_info:
            parse_statement("eq_seg(A,B)")
        assert "';'" in str(exc_info.value)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicateError):
            parse_statement("frobnicate(A,B)")

    def test_unknown_point(self):
        with pytest.raises(UnknownPointError):
            parse_statement("eq_seg(A,B;C,D)", known_points={"A", "B", "C"})

    def test_offset_reported(self):
        with pytest.raises(ParseError) as exc_info:
            parse_statement("eq_seg(A,;C,D)")
        assert exc_info.value.offset == 9

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_statement("collinear(A,B,C)x")

    def test_query_form(self):
        q = parse_statement("seg_len(A,B)")
        assert q.value is None

    def test_two_digit_labels(self):
        s = parse_statement("collinear(A1,B,C)")
        assert s.groups == (("A1", "B", "C"),)

    def test_label_set_is_the_point_grammar(self):
        # canonicalize checks labels by set membership, the parser by _POINT_RE
        chars = string.printable
        texts = [*chars, *(a + b for a in chars for b in chars)]
        assert [t for t in texts if t in LEGAL_LABELS] == [t for t in texts if _POINT_RE.fullmatch(t)]
        assert len(LEGAL_LABELS) == 286
        with pytest.raises(MalformedStatementError, match="bad point label 'a1'"):
            collinear("a1", "B", "C")


_LABELS = st.sampled_from([c + d for c in "ABCDEFGH" for d in ("", "1")])


@st.composite
def statements(draw) -> Statement:
    pred = draw(st.sampled_from(list(Predicate)))
    labels = draw(st.lists(_LABELS, min_size=6, max_size=6, unique=True))
    value = Fraction(draw(st.integers(1, 179)), draw(st.integers(1, 4)))
    a, b, c, d, e, f = labels
    builders = {
        Predicate.COLLINEAR: lambda: collinear(a, b, c),
        Predicate.PARALLEL: lambda: parallel((a, b), (c, d)),
        Predicate.PERPENDICULAR: lambda: perpendicular((a, b), (c, d)),
        Predicate.EQUAL_SEGMENTS: lambda: equal_segments((a, b), (c, d)),
        Predicate.EQUAL_ANGLES: lambda: equal_angles((a, b, c), (d, e, f)),
        Predicate.SEGMENT_LENGTH: lambda: segment_length((a, b), value),
        Predicate.ANGLE_MEASURE: lambda: angle_measure((a, b, c), value % 179 + Fraction(1, 2)),
        Predicate.RIGHT_ANGLE: lambda: right_angle((a, b, c)),
        Predicate.MIDPOINT: lambda: midpoint(a, (b, c)),
        Predicate.ON_CIRCLE: lambda: on_circle(a, b, (c, d)),
        Predicate.CONGRUENT_TRIANGLES: lambda: congruent_triangles((a, b, c), (d, e, f)),
        Predicate.SIMILAR_TRIANGLES: lambda: similar_triangles((a, b, c), (d, e, f)),
        Predicate.SEGMENT_RATIO: lambda: segment_ratio((a, b), (c, d), value),
    }
    return builders[pred]()


@st.composite
def triangle_pairs(draw) -> tuple[tuple[str, ...], tuple[str, ...]]:
    t1 = tuple(draw(st.lists(_LABELS, min_size=3, max_size=3, unique=True)))
    # the same point set relabelled, or any triangle (often sharing points)
    t2 = draw(st.permutations(t1) | st.lists(_LABELS, min_size=3, max_size=3, unique=True))
    return t1, tuple(t2)


class TestProperties:
    @given(triangle_pairs())
    @settings(max_examples=300)
    def test_triangle_pair_is_least_of_all_variants(self, pair):
        t1, t2 = pair
        variants = []
        for perm in permutations(range(3)):
            u1 = tuple(t1[i] for i in perm)
            u2 = tuple(t2[i] for i in perm)
            variants += [(u1, u2), (u2, u1)]
        assert _canon_triangle_pair(t1, t2) == min(variants)

    @given(statements())
    @settings(max_examples=300)
    def test_round_trip(self, s: Statement):
        assert parse_statement(serialize_statement(s)) == s

    @given(statements())
    def test_canonicalize_idempotent(self, s: Statement):
        assert canonicalize(s) == s

    @given(statements())
    def test_serialization_is_ascii_single_line(self, s: Statement):
        text = serialize_statement(s)
        assert text.isascii()
        assert "\n" not in text
