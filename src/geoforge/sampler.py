"""Path extraction over the reasoning graph.

The three GeoExplore samplers, one per thinking template, read a target's
closures, which one ascending pass over the graph gives for every statement
(``ReasoningGraph.closures``):

- ``geo_explore`` (deductive) follows each statement's first derivation: its
  path is the first closure, filtered by length and premise ratio;
- ``geo_explore_m`` (multi-solution) walks every derivation backward
  (``_derivations``), within the every closure, and keeps the leaves that
  pass both filters, up to ``max_paths``;
- ``geo_explore_t`` (traceback) samples erroneous statements outside the
  target's every closure, reads up to ``max_paths`` leaves of each, and
  keeps the first that shares enough of its steps with a correct
  derivation.

Difficulty tiering and the formal core of each problem also live here.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import islice

from .reasoner import ReasoningGraph, SolutionStep, Transition
from .statements import VALUE_PREDICATES, Statement


class SamplerError(ValueError):
    pass


class TargetIsInitialError(SamplerError):
    pass


class NoEligibleErroneousStatementError(SamplerError):
    pass


# Raised by nothing; kept while perfbench/spans.py reads it to count oracle mismatches.
class OracleMismatchError(SamplerError):
    pass


# Option choices a walk over every derivation makes before it stops.
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


def tier_of(length: int) -> int | None:
    """Length 5-10 is tier 1, 11-20 tier 2, 21-50 tier 3, beyond is tier 4;
    a shorter path has no tier."""
    return None if length < 5 else bisect_left((10, 20, 50), length) + 1


def _finish_path(graph: ReasoningGraph, transitions: list[Transition], target: int) -> ReasoningPath:
    ordered = tuple(sorted(transitions, key=lambda t: t.conclusion))
    used = frozenset(
        p for t in ordered for p in t.premises if graph.is_initial(p)
    )
    ratio = len(used) / graph.n_initial if graph.n_initial else 0.0
    return ReasoningPath(ordered, target, used, ratio)


def _filter(length: int, ratio: float, tau_l: int, tau_r: float) -> Rejected | None:
    if length < tau_l:
        return Rejected("length", length, ratio)
    if ratio < tau_r:
        return Rejected("premise_ratio", length, ratio)
    return None


_Options = Callable[[int], Sequence[Transition]]


def _derivations(
    graph: ReasoningGraph, target: int, options: _Options, max_choices: float
) -> Iterator[list[Transition]]:
    """Walk ``target``'s derivations backward, depth first, and yield each
    leaf: one transition per statement it needs, chosen among
    ``options(sid)``. Stops before choice ``max_choices + 1``.

    The largest unresolved id is resolved next, so the choices made so far
    fix the next statement: no two leaves share their transition set. A
    premise is below its conclusion, so it is never already resolved.
    """
    # each frame: (the ids still unresolved, ascending; the options of the
    # largest left to try; the transitions the frames below it took)
    frames = [((target,), iter(options(target)), ())]
    choices = 0
    while frames:
        unresolved, opts, chosen = frames[-1]
        t = next(opts, None)
        if t is None:  # exhausted, or a statement with no option: backtrack
            frames.pop()
            continue
        choices += 1
        if choices > max_choices:
            return
        # premises are sorted, so the derived ones are a tail
        needed = {*unresolved[:-1], *t.premises[bisect_left(t.premises, graph.n_initial):]}
        if needed:
            unresolved = tuple(sorted(needed))
            frames.append((unresolved, iter(options(unresolved[-1])), (*chosen, t)))
        else:
            yield [*chosen, t]


def _every_derivation(graph: ReasoningGraph) -> _Options:
    """Every incoming transition of a statement, ordered by rule id then
    premise tuple."""
    return cache(
        lambda sid: sorted(graph.incoming_transitions(sid), key=lambda t: (t.rule, t.premises))
    )


def geo_explore(
    graph: ReasoningGraph, target: int, tau_l: int, tau_r: float
) -> ReasoningPath | Rejected:
    """Trace ``target`` backward to the premises, following each statement's
    first derivation (the one that introduced it into the graph): one step per
    derived statement of its first closure. The path either passes both
    filters or is returned as a Rejected verdict naming the failed metric.
    """
    if graph.is_initial(target):
        raise TargetIsInitialError(f"statement {target} is an initial premise")
    first, _, underived = graph.closures(target)
    if underived:  # the highest, which a backward walk reaches first
        raise SamplerError(f"derived statement {underived.bit_length() - 1} has no derivation")
    used = first & ((1 << graph.n_initial) - 1)
    ratio = used.bit_count() / graph.n_initial if graph.n_initial else 0.0
    rejected = _filter((first ^ used).bit_count(), ratio, tau_l, tau_r)
    return rejected or _finish_path(graph, [
        graph.transitions[graph.incoming[sid][0]]
        for sid in range(graph.n_initial, target + 1) if first >> sid & 1
    ], target)


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

    Every path lies inside the target's every closure, so when that holds
    fewer than ``tau_l`` derived statements, or too few initial ones to reach
    ``tau_r``, no path can pass and none is built.
    """
    if graph.is_initial(target):
        raise TargetIsInitialError(f"statement {target} is an initial premise")
    _, cone, _ = graph.closures(target)
    initial = cone & ((1 << graph.n_initial) - 1)
    best_ratio = initial.bit_count() / graph.n_initial if graph.n_initial else 0.0
    if _filter((cone ^ initial).bit_count(), best_ratio, tau_l, tau_r) is not None:
        return []
    results: list[ReasoningPath] = []
    for leaf in _derivations(graph, target, _every_derivation(graph), WORK_CAP):
        path = _finish_path(graph, leaf, target)
        if _filter(path.length, path.premise_ratio, tau_l, tau_r) is None:
            results.append(path)
            if len(results) >= max_paths:
                break
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
    every closure and compares each one's derivations, up to
    ``max_paths`` of them, as the walk yields them; returns None when no
    sampled statement yields enough overlap.
    """
    if graph.is_initial(target):
        raise TargetIsInitialError(f"statement {target} is an initial premise")
    if not correct:
        return None
    _, upstream, _ = graph.closures(target)
    candidates = [
        sid for sid in range(graph.n_initial, len(graph.statements)) if not upstream >> sid & 1
    ]
    if not candidates:
        raise NoEligibleErroneousStatementError(
            "every derived statement is upstream of the target"
        )
    options = _every_derivation(graph)
    rng = random.Random(("traceback", rng_seed).__repr__())
    tried: set[int] = set()
    for _ in range(TRACEBACK_ATTEMPTS):
        erroneous = candidates[rng.randrange(len(candidates))]
        if erroneous in tried:
            continue
        tried.add(erroneous)
        leaves = _derivations(graph, erroneous, options, WORK_CAP)
        for leaf in islice(leaves, max_paths):
            wrong = _finish_path(graph, leaf, erroneous)
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
    """The formal core of one record, read from the reasoning graph.
    ``pipeline.build_record`` derives every other field from it, the scene and
    the config."""

    kind: str  # "numeric" | "proof"
    target: Statement  # with its value for numeric problems
    solutions: tuple[tuple[SolutionStep, ...], ...]
    wrong_branch: tuple[SolutionStep, ...] | None
    # initial statements cited by each solution, then by the wrong branch
    cited: tuple[frozenset[Statement], ...]

    @property
    def template(self) -> str:
        """The thinking template the core's shape makes it."""
        if self.wrong_branch is not None:
            return "traceback"
        return "multi_solution" if len(self.solutions) > 1 else "deductive"


def formulate_problem(
    graph: ReasoningGraph,
    material: ReasoningPath | list[ReasoningPath] | TracebackRecord,
    kind: str,
) -> ProblemDraft:
    """Turn sampled path material into the formal core of a problem."""
    wrong = isinstance(material, TracebackRecord)
    if wrong:
        paths = [material.correct_path, material.wrong_branch]
    elif isinstance(material, ReasoningPath):
        paths = [material]
    else:
        if len(material) < 2:
            raise SamplerError("multi-solution material needs at least two paths")
        paths = list(material)

    target = graph.stmt(paths[0].target)
    if kind == "numeric":
        if target.predicate not in VALUE_PREDICATES or target.value is None:
            raise SamplerError("numeric problems need a value-bearing target")
    elif kind != "proof":
        raise SamplerError(f"unknown problem kind {kind!r}")

    steps = tuple(path.resolve(graph) for path in paths)
    return ProblemDraft(
        kind=kind,
        target=target,
        solutions=steps[:-1] if wrong else steps,
        wrong_branch=steps[-1] if wrong else None,
        cited=tuple(frozenset(graph.stmt(i) for i in path.used_premises) for path in paths),
    )
