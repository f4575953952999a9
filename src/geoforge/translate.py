"""Formal-to-natural-language translation of solution paths.

Two passes: each transition becomes one sentence, then bridging rationales
are interleaved before every step (a summary of what is established, the
link to the upcoming step, and the goal orientation). The default template
backend is total, deterministic and offline; an HTTP chat-completion backend
can replace it, and its failures leave records formal-only rather than
corrupting them.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .dataset import decode_json
from .reasoner import SolutionStep
from .statements import Predicate, Statement

API_KEY_ENV = "GEOFORGE_LLM_KEY"


class TranslationError(RuntimeError):
    pass


class BackendUnavailableError(TranslationError):
    """External backend failed after retries; the record stays untranslated."""


def _seg(group: Sequence[str]) -> str:
    return "".join(group)


def _ang(group: Sequence[str]) -> str:
    return "∠" + "".join(group)


def _tri(group: Sequence[str]) -> str:
    return "△" + "".join(group)


# one formatter per predicate, called with (groups, value): one dict lookup
# costs less than testing the predicate against each enum member in turn
_NL: dict[Predicate, Callable[[tuple, object], str]] = {
    Predicate.COLLINEAR: lambda g, v: "points {}, {} and {} are collinear".format(*g[0]),
    Predicate.PARALLEL: lambda g, v: f"{_seg(g[0])} ∥ {_seg(g[1])}",
    Predicate.PERPENDICULAR: lambda g, v: f"{_seg(g[0])} ⊥ {_seg(g[1])}",
    Predicate.EQUAL_SEGMENTS: lambda g, v: f"{_seg(g[0])} = {_seg(g[1])}",
    Predicate.EQUAL_ANGLES: lambda g, v: f"{_ang(g[0])} = {_ang(g[1])}",
    Predicate.SEGMENT_LENGTH: lambda g, v: (
        f"the length of {_seg(g[0])} is unknown" if v is None else f"{_seg(g[0])} = {v}"
    ),
    Predicate.ANGLE_MEASURE: lambda g, v: (
        f"the measure of {_ang(g[0])} is unknown" if v is None else f"{_ang(g[0])} = {v}°"
    ),
    Predicate.RIGHT_ANGLE: lambda g, v: f"{_ang(g[0])} is a right angle",
    Predicate.MIDPOINT: lambda g, v: f"{g[0][0]} is the midpoint of {_seg(g[1])}",
    Predicate.ON_CIRCLE: lambda g, v: (
        f"{g[0][0]} lies on the circle centered at {g[1][0]} with radius {_seg(g[2])}"
    ),
    Predicate.CONGRUENT_TRIANGLES: lambda g, v: f"{_tri(g[0])} ≅ {_tri(g[1])}",
    Predicate.SIMILAR_TRIANGLES: lambda g, v: f"{_tri(g[0])} ∼ {_tri(g[1])}",
    Predicate.SEGMENT_RATIO: lambda g, v: (
        f"the ratio {_seg(g[0])} / {_seg(g[1])} is unknown"
        if v is None
        else f"{_seg(g[0])} / {_seg(g[1])} = {v}"
    ),
}


def statement_nl(s: Statement) -> str:
    """Natural-language clause for one statement; keeps every point label and
    numeric value verbatim."""
    return _NL[s.predicate](s.groups, s.value)


_RULE_PHRASES: dict[str, str] = {
    "isosceles_base_angles": "the triangle is isosceles, so its base angles are equal",
    "isosceles_converse": "equal base angles make the triangle isosceles",
    "triangle_angle_sum": "the angles of a triangle together form a straight angle",
    "triangle_angle_sum_equal_pair": (
        "the two equal base angles share the rest of the triangle's straight angle"
    ),
    "vertical_angles": "vertical angles are equal",
    "alternate_interior_angles": "alternate interior angles between parallels are equal",
    "corresponding_angles": "corresponding angles between parallels are equal",
    "perpendicular_right_angle": "perpendicular segments meet at a right angle",
    "right_angle_measure": "a right angle measures 90°",
    "midpoint_equal_halves": "a midpoint splits the segment into equal halves",
    "midpoint_half_ratio": "a midpoint cuts the segment in half",
    "midsegment_parallel": "the midsegment is parallel to the base",
    "midsegment_half_length": "the midsegment is half the base",
    "pythagoras": "by the Pythagorean theorem",
    "pythagoras_leg": "by the Pythagorean theorem",
    "sss_congruence": "the triangles are congruent by SSS",
    "sas_congruence": "the triangles are congruent by SAS",
    "asa_congruence": "the triangles are congruent by ASA",
    "congruent_sides": "corresponding sides of congruent triangles are equal",
    "congruent_angles": "corresponding angles of congruent triangles are equal",
    "aa_similarity": "the triangles are similar by AA",
    "similar_side_ratio": "corresponding sides of similar triangles are proportional",
    "inscribed_angle": "an inscribed angle is half the central angle on the same arc",
    "thales_right_angle": "an angle inscribed on a diameter is a right angle",
    "angle_addition": "adjacent angles add",
    "equal_segments_transitive": "both equal the same segment",
    "equal_angles_transitive": "both equal the same angle",
    "segment_length_substitution": "equal segments have equal lengths",
    "angle_measure_substitution": "equal angles have equal measures",
    "ratio_length_substitution": "applying the known ratio to the known length",
}


class TemplateBackend:
    """Deterministic, offline, rule-keyed translation.

    Each instance words each distinct step and bridge sentence once, keyed
    by value; ``ExternalBackend``'s ``__init__`` skips this memo."""

    def __init__(self) -> None:
        self.step_sentence = functools.cache(self.step_sentence)
        self.bridge_sentence = functools.cache(self.bridge_sentence)

    def step_sentence(self, step: SolutionStep) -> str:
        if step.rule == "isosceles_base_angles":
            # matches the classic narration for this rule exactly
            seg1, seg2 = step.premises[0].groups
            tri = step.conclusion.groups[0]
            apex = set(seg1) & set(seg2)
            verts = "".join(sorted(set(seg1) | set(seg2), key=lambda p: (p not in apex, p)))
            return (
                f"Since {_seg(seg1)} = {_seg(seg2)}, triangle {verts} is isosceles, "
                f"so {_ang(step.conclusion.groups[0])} = {_ang(step.conclusion.groups[1])}."
            )
        given = ", ".join(statement_nl(p) for p in step.premises)
        phrase = _RULE_PHRASES.get(step.rule, "applying a known theorem")
        return f"Since {given}, {phrase}, so {statement_nl(step.conclusion)}."

    def bridge_sentence(
        self, established: Statement | None, upcoming: SolutionStep, target: Statement
    ) -> str:
        goal = statement_nl(target)
        focus = ", ".join(statement_nl(p) for p in upcoming.premises)
        if established is None:
            summary = "Starting from the given premises"
        else:
            summary = f"So far we have established that {statement_nl(established)}"
        return (
            f"{summary}. Looking at {focus}, we can take the next step toward "
            f"showing {goal}."
        )

    def closing_sentence(self, target: Statement) -> str:
        return f"Therefore {statement_nl(target)}, which completes the solution."

    def pivot_sentence(self, wrong_conclusion: Statement, target: Statement) -> str:
        return (
            f"However, {statement_nl(wrong_conclusion)} does not lead to what was asked. "
            f"Re-examining the goal, we return to the shared reasoning and continue "
            f"toward {statement_nl(target)}."
        )


Transport = Callable[[str, dict, float], str]


def _http_transport(url: str, payload: dict, timeout: float) -> str:
    import urllib.request  # the HTTP and TLS stack loads at the first request

    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {os.environ.get(API_KEY_ENV, '')}",
        },
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


_EXEMPLARS: tuple[tuple[str, str], ...] = (
    (
        "eq_seg(A,B;A,C) |- isosceles_base_angles |- eq_angle(A,B,C;A,C,B)",
        "Since AB = AC, triangle ABC is isosceles, so ∠ABC = ∠ACB.",
    ),
    (
        "right_angle(A,B,C) |- right_angle_measure |- angle_val(A,B,C;90)",
        "Because ∠ABC is a right angle, its measure is 90°.",
    ),
)


TIMEOUT_S = 30.0  # seconds each request may take
RETRIES = 2  # further attempts after a failed request


@dataclass
class ExternalBackend(TemplateBackend):
    """JSON-over-HTTP chat-completion backend (temperature 0, few-shot) for
    step and bridge sentences; the closing and pivot are the template's.

    The exemplar prompts are written fresh for this engine and are not
    canonical. Failures raise BackendUnavailableError after ``RETRIES`` retries.
    """

    endpoint: str
    model: str
    transport: Transport = field(default=_http_transport)

    def _chat(self, system: str, user: str) -> str:
        payload = {
            "model": self.model,
            "temperature": 0,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        last: Exception | None = None
        for _ in range(RETRIES + 1):
            try:
                raw = self.transport(self.endpoint, payload, TIMEOUT_S)
                doc = decode_json(raw)
                return doc["choices"][0]["message"]["content"].strip()
            # URLError is an OSError; a response not JSON, or not of this shape, fails too
            except (OSError, KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
                last = exc
        raise BackendUnavailableError(str(last))

    def step_sentence(self, step: SolutionStep) -> str:
        shots = "\n".join(f"FORMAL: {f}\nNATURAL: {n}" for f, n in _EXEMPLARS)
        formal = (
            f"{'; '.join(p.text() for p in step.premises)} |- {step.rule} |- "
            f"{step.conclusion.text()}"
        )
        system = (
            "You translate one formal plane-geometry derivation step into a single "
            "fluent English sentence. Keep every point label and numeric value verbatim."
        )
        return self._chat(system, f"{shots}\nFORMAL: {formal}\nNATURAL:")

    def bridge_sentence(self, established, upcoming, target) -> str:
        system = (
            "You write one bridging sentence of a geometry solution: summarize what is "
            "already established, link it to the upcoming step, and point at the goal."
        )
        established_text = "the given premises" if established is None else statement_nl(established)
        user = (
            f"Established: {established_text}\n"
            f"Upcoming step premises: {'; '.join(p.text() for p in upcoming.premises)}\n"
            f"Goal: {target.text()}\nBridge:"
        )
        return self._chat(system, user)


def translate_steps(steps: Sequence[SolutionStep], backend: TemplateBackend) -> list[str]:
    """One sentence per transition, translated independently step by step."""
    return [backend.step_sentence(step) for step in steps]


def connect_thinking(
    steps: Sequence[SolutionStep],
    sentences: Sequence[str],
    target: Statement,
    backend: TemplateBackend,
) -> str:
    """The translated steps, each after one bridging rationale, then the
    closing sentence."""
    if not steps:
        raise TranslationError("cannot connect an empty solution")
    parts = []
    for i, (step, sentence) in enumerate(zip(steps, sentences)):
        established = steps[i - 1].conclusion if i > 0 else None
        parts.extend((backend.bridge_sentence(established, step, target), sentence))
    parts.append(backend.closing_sentence(target))
    return " ".join(parts)
