"""Path extraction over the reasoning graph.

Three samplers over the same reasoning graph, one per thinking template: the
backward trace along each statement's first derivation with
length/premise-ratio filters, exhaustive multi-derivation enumeration
(branching over alternative incoming transitions), and self-reflective
traceback composition (a wrong branch that shares enough of its prefix with
a correct derivation). Difficulty tiering and the formal core of each
problem also live here.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .constructions import Scene
from .reasoner import ReasoningGraph, SolutionStep, Transition
from .statements import VALUE_PREDICATES, Statement


class SamplerError(ValueError):
    pass


class TargetIsInitialError(SamplerError):
    pass


class NoEligibleErroneousStatementError(SamplerError):
    pass


class BelowTierRangeError(SamplerError):
    pass


class OracleMismatchError(SamplerError):
    """Path-derived answer disagrees with the coordinate oracle: engine bug."""


# Option choices ``geo_explore_m`` tries per target before it stops.
WORK_CAP = 20000
# Erroneous statements ``geo_explore_t`` draws per target.
TRACEBACK_ATTEMPTS = 100


@dataclass(frozen=True)
class ReasoningPath:
    """Forward presentation of a backward trace to ``target``."""

    transitions: tuple[Transition, ...]
    target: int
    used_premises: frozenset[int]
    premise_ratio: float

    @property
    def length(self) -> int:
        return len(self.transitions)

    def transition_set(self) -> frozenset[Transition]:
        return frozenset(self.transitions)

    def resolve(self, graph: ReasoningGraph) -> tuple[SolutionStep, ...]:
        return tuple(
            SolutionStep(
                premises=tuple(graph.stmt(p) for p in t.premises),
                rule=t.rule,
                conclusion=graph.stmt(t.conclusion),
            )
            for t in self.transitions
        )


@dataclass(frozen=True)
class Rejected:
    reason: str  # "length" | "premise_ratio"
    length: int
    premise_ratio: float


@dataclass(frozen=True)
class TracebackRecord:
    wrong_branch: ReasoningPath
    correct_path: ReasoningPath
    overlap: float


@dataclass(frozen=True)
class DifficultyTier:
    tier: int
    min_length: int  # exclusive except for tier 1 (inclusive 5)
    max_length: int | None  # inclusive


TIERS = (
    DifficultyTier(1, 5, 10),
    DifficultyTier(2, 10, 20),
    DifficultyTier(3, 20, 50),
    DifficultyTier(4, 50, None),
)


def tier_of(length: int) -> DifficultyTier:
    """Length 5-10 is tier 1, 11-20 tier 2, 21-50 tier 3, beyond is tier 4."""
    if length < TIERS[0].min_length:
        raise BelowTierRangeError(f"length {length} is below the tier range")
    for t in TIERS:
        if t.max_length is None or length <= t.max_length:
            return t
    raise AssertionError  # pragma: no cover


def _finish_path(graph: ReasoningGraph, transitions: list[Transition], target: int) -> ReasoningPath:
    ordered = tuple(sorted(transitions, key=lambda t: t.conclusion))
    used = frozenset(
        p for t in ordered for p in t.premises if graph.is_initial(p)
    )
    ratio = len(used) / graph.n_initial if graph.n_initial else 0.0
    return ReasoningPath(ordered, target, used, ratio)


def _filter(path: ReasoningPath, tau_l: int, tau_r: float) -> Rejected | None:
    if path.length < tau_l:
        return Rejected("length", path.length, path.premise_ratio)
    if path.premise_ratio < tau_r:
        return Rejected("premise_ratio", path.length, path.premise_ratio)
    return None


def geo_explore(
    graph: ReasoningGraph, target: int, tau_l: int, tau_r: float
) -> ReasoningPath | Rejected:
    """Trace ``target`` backward to the premises, following each statement's
    first derivation (the one that introduced it into the graph).

    The result either passes both filters or is returned as a Rejected
    verdict naming the failed metric.
    """
    if graph.is_initial(target):
        raise TargetIsInitialError(f"statement {target} is an initial premise")
    transitions: list[Transition] = []
    pending = [target]
    resolved: set[int] = set()
    while pending:
        sid = pending.pop()  # strictly descending ids: premises predate conclusions
        if sid in resolved:
            continue
        resolved.add(sid)
        t_idxs = graph.incoming.get(sid)
        if not t_idxs:
            raise SamplerError(f"derived statement {sid} has no derivation")
        t = graph.transitions[t_idxs[0]]
        transitions.append(t)
        for p in t.premises:
            if not graph.is_initial(p) and p not in resolved:
                insort(pending, p)
    path = _finish_path(graph, transitions, target)
    rejected = _filter(path, tau_l, tau_r)
    return path if rejected is None else rejected


def geo_explore_m(
    graph: ReasoningGraph,
    target: int,
    tau_l: int,
    tau_r: float,
    max_paths: int = 16,
) -> list[ReasoningPath]:
    """Enumerate distinct acyclic derivations of ``target``.

    Branches over every alternative incoming transition of every needed
    statement (options ordered by rule id then premise tuple), keeps paths
    passing both filters, and stops when all option assignments are
    exhausted, ``max_paths`` filtered paths were found, or ``WORK_CAP``
    options were tried.

    Every path lies inside the target's upstream cone over all derivations,
    so when the cone holds fewer than ``tau_l`` derived statements, or too
    few initial ones to reach ``tau_r``, no path can pass and none is built.
    """
    if graph.is_initial(target):
        raise TargetIsInitialError(f"statement {target} is an initial premise")
    cone = graph.upstream_dependencies(target)
    cone_initial = sum(graph.is_initial(sid) for sid in cone)
    best_ratio = cone_initial / graph.n_initial if graph.n_initial else 0.0
    if len(cone) - cone_initial < tau_l or best_ratio < tau_r:
        return []

    option_cache: dict[int, list[Transition]] = {}

    def options(sid: int) -> list[Transition]:
        cached = option_cache.get(sid)
        if cached is None:
            cached = sorted(
                graph.incoming_transitions(sid), key=lambda t: (t.rule, t.premises)
            )
            option_cache[sid] = cached
        return cached

    results: list[ReasoningPath] = []
    seen: set[frozenset[Transition]] = set()
    unresolved = [target]
    chosen: dict[int, Transition] = {}
    # frame: [sid, option list, current index, premises added by current option]
    frames: list[list] = []
    work = 0
    descending = True
    while True:
        if descending:
            if not unresolved:
                key = frozenset(chosen.values())
                if key not in seen:
                    seen.add(key)
                    path = _finish_path(graph, list(chosen.values()), target)
                    if _filter(path, tau_l, tau_r) is None:
                        results.append(path)
                        if len(results) >= max_paths:
                            break
                descending = False  # backtrack into the newest frame
                continue
            sid = unresolved.pop()
            frames.append([sid, options(sid), -1, []])
            descending = False
            continue
        if not frames:
            break
        frame = frames[-1]
        sid, opts, idx, added = frame
        for p in added:
            unresolved.remove(p)
        added.clear()
        chosen.pop(sid, None)
        idx += 1
        frame[2] = idx
        if idx >= len(opts) or not opts:
            insort(unresolved, sid)
            frames.pop()
            continue
        work += 1
        if work > WORK_CAP:
            break
        t = opts[idx]
        chosen[sid] = t
        for p in t.premises:
            if not graph.is_initial(p) and p not in chosen and p not in unresolved:
                insort(unresolved, p)
                added.append(p)
        descending = True
    return results


def geo_explore_t(
    graph: ReasoningGraph,
    target: int,
    correct: Sequence[ReasoningPath],
    tau_p: float,
    rng_seed: int,
    max_paths: int = 16,
) -> TracebackRecord | None:
    """Compose a wrong branch with a correct derivation sharing its prefix.

    ``correct`` holds the target's filtered derivations, as ``geo_explore_m``
    enumerates them. Samples erroneous statements outside the target's
    upstream dependency cone; returns None when no sampled statement yields
    enough overlap.
    """
    if graph.is_initial(target):
        raise TargetIsInitialError(f"statement {target} is an initial premise")
    if not correct:
        return None
    upstream = graph.upstream_dependencies(target)
    candidates = [
        sid
        for sid in range(len(graph.statements))
        if sid not in upstream and not graph.is_initial(sid)
    ]
    if not candidates:
        raise NoEligibleErroneousStatementError(
            "every derived statement is upstream of the target"
        )
    rng = random.Random(("traceback", rng_seed).__repr__())
    tried: set[int] = set()
    for _ in range(TRACEBACK_ATTEMPTS):
        erroneous = candidates[rng.randrange(len(candidates))]
        if erroneous in tried:
            continue
        tried.add(erroneous)
        for wrong in geo_explore_m(graph, erroneous, 0, 0.0, max_paths):
            wrong_set = wrong.transition_set()
            for path in correct:
                shared = wrong_set & path.transition_set()
                overlap = len(shared) / wrong.length if wrong.length else 0.0
                if overlap >= tau_p:
                    return TracebackRecord(wrong, path, overlap)
    return None


# --- problem formulation -----------------------------------------------------


@dataclass(frozen=True)
class ProblemDraft:
    """The formal core of one record. ``pipeline.build_record`` derives every
    other field from it, the scene and the config."""

    kind: str  # "numeric" | "proof"
    template: str  # "deductive" | "multi_solution" | "traceback"
    target: Statement  # with its value for numeric problems
    solutions: tuple[tuple[SolutionStep, ...], ...]
    wrong_branch: tuple[SolutionStep, ...] | None
    # initial statements cited by each solution, then by the wrong branch
    cited: tuple[frozenset[Statement], ...]


def formulate_problem(
    scene: Scene,
    graph: ReasoningGraph,
    material: ReasoningPath | list[ReasoningPath] | TracebackRecord,
    kind: str,
) -> ProblemDraft:
    """Turn sampled path material into the formal core of a problem.

    A numeric target's value is cross-checked against the coordinate oracle
    (1% relative, 1e-9 when both sides are exact).
    """
    if isinstance(material, TracebackRecord):
        template = "traceback"
        paths = [material.correct_path, material.wrong_branch]
    elif isinstance(material, ReasoningPath):
        template = "deductive"
        paths = [material]
    else:
        if not material:
            raise SamplerError("multi-solution material must be non-empty")
        template = "multi_solution"
        paths = list(material)

    target = graph.stmt(paths[0].target)
    if kind == "numeric":
        if target.predicate not in VALUE_PREDICATES or target.value is None:
            raise SamplerError("numeric problems need a value-bearing target")
        oracle = scene.geometry.numeric_answer(target.without_value())
        claimed = target.value
        if isinstance(oracle, Fraction):
            ok = abs(claimed - oracle) <= Fraction(1, 10**9) * max(1, abs(oracle))
        else:
            ok = abs(float(claimed) - oracle) <= 0.01 * abs(oracle)
        if not ok:
            raise OracleMismatchError(f"path says {claimed}, oracle says {oracle}")
    elif kind != "proof":
        raise SamplerError(f"unknown problem kind {kind!r}")

    steps = tuple(path.resolve(graph) for path in paths)
    wrong = template == "traceback"
    return ProblemDraft(
        kind=kind,
        template=template,
        target=target,
        solutions=steps[:-1] if wrong else steps,
        wrong_branch=steps[-1] if wrong else None,
        cited=tuple(frozenset(graph.stmt(i) for i in path.used_premises) for path in paths),
    )
