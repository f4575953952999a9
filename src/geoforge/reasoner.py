"""Forward-chaining closure over a scene: the reasoning hypergraph.

Statements are indexed by insertion order; transitions record which premise
set and rule produced each conclusion. The first derivation of a statement is
the one that introduced it; every further distinct derivation whose premises
all predate the conclusion is retained too, keeping the hypergraph acyclic by
construction (premise index < conclusion index for every transition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .constructions import Scene
from .geometry import SceneGeometry
from .rules import DEFAULT_RULES, MatchContext, Rule
from .statements import Predicate, Statement


class ReasonerError(RuntimeError):
    pass


class VerifierContradictionError(ReasonerError):
    """A rule fired but its conclusion fails the numeric kernel: either the
    rule is unsound or the scene instance is degenerate. The scene is
    aborted rather than silently filtered."""

    def __init__(self, rule_id: str, conclusion: Statement, residual: float):
        self.rule_id = rule_id
        self.conclusion = conclusion
        self.residual = residual
        super().__init__(f"rule {rule_id} derived {conclusion} with residual {residual:g}")


# Closure caps: a saturation that reaches one stops growing the graph and
# sets its ``truncated`` flag.
MAX_STATEMENTS = 5000
MAX_TRANSITIONS = 20000
MAX_ROUNDS = 50


@dataclass(frozen=True)
class Transition:
    premises: tuple[int, ...]  # sorted statement ids
    rule: str
    conclusion: int


@dataclass(frozen=True)
class SolutionStep:
    """One resolved transition: actual statements instead of graph ids."""

    premises: tuple[Statement, ...]
    rule: str
    conclusion: Statement

    def __hash__(self) -> int:  # kept, but never pickled, as a statement's
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.premises, self.rule, self.conclusion)))
            return self._hash

    def __reduce__(self):
        return SolutionStep, (self.premises, self.rule, self.conclusion)


class ReasoningGraph:
    """G = (S, S0, R, transitions); statements are ids into ``statements``."""

    def __init__(self):
        self.statements: list[Statement] = []
        self.index: dict[Statement, int] = {}
        self.n_initial = 0
        self.transitions: list[Transition] = []
        self.incoming: dict[int, list[int]] = {}
        self.truncated = False
        self._transition_keys: set[tuple[tuple[int, ...], str, int]] = set()
        self._closures: tuple[list[int], list[int], int] | None = None

    # construction ------------------------------------------------------

    def add_initial(self, stmt: Statement) -> int:
        if self.transitions:
            raise ReasonerError("initial statements must precede derivations")
        sid = self.index.get(stmt)
        if sid is None:
            sid = self.add_statement(stmt)
            self.n_initial = len(self.statements)
        return sid

    def add_statement(self, stmt: Statement) -> int:
        if stmt in self.index:
            raise ReasonerError(f"duplicate statement {stmt}")
        sid = len(self.statements)
        self.statements.append(stmt)
        self.index[stmt] = sid
        self._closures = None
        return sid

    def add_transition(self, premises: Sequence[int], rule: str, conclusion: int) -> bool:
        key = (tuple(sorted(premises)), rule, conclusion)
        if not key[0]:
            raise ReasonerError("transitions need a non-empty premise set")
        if conclusion in key[0]:
            raise ReasonerError("conclusion may not be its own premise")
        if max(key[0]) >= conclusion:
            raise ReasonerError("premises must predate the conclusion")
        if key in self._transition_keys:
            return False
        self._transition_keys.add(key)
        self.incoming.setdefault(conclusion, []).append(len(self.transitions))
        self.transitions.append(Transition(*key))
        self._closures = None
        return True

    # queries -----------------------------------------------------------

    def is_initial(self, sid: int) -> bool:
        return sid < self.n_initial

    def initial_ids(self) -> range:
        return range(self.n_initial)

    def stmt(self, sid: int) -> Statement:
        return self.statements[sid]

    def incoming_transitions(self, sid: int) -> list[Transition]:
        return [self.transitions[t] for t in self.incoming.get(sid, [])]

    def closures(self, sid: int) -> tuple[int, int, int]:
        """Bitsets of statement ids: ``sid`` and what it rests on through each
        derived statement's first derivation (first) or through every one
        (every), and the derived statements of first that nothing concludes.
        One ascending pass (premises precede conclusions) after each change
        gives them for every statement."""
        if not 0 <= sid < len(self.statements):
            raise ReasonerError(f"unknown statement id {sid}")
        if self._closures is None:
            first, every, underived = [], [], 0
            for cur in range(len(self.statements)):
                f = e = 1 << cur
                t_idxs = self.incoming.get(cur, ())
                for k, t_idx in enumerate(t_idxs):
                    for p in self.transitions[t_idx].premises:
                        e |= every[p]
                        if k == 0 and cur >= self.n_initial:
                            f |= first[p]
                if not t_idxs and cur >= self.n_initial:
                    underived |= f
                first.append(f)
                every.append(e)
            self._closures = first, every, underived
        first, every, underived = self._closures
        return first[sid], every[sid], first[sid] & underived


def saturate_statements(
    geometry: SceneGeometry,
    initial: Iterable[Statement],
    rules: Sequence[Rule] = DEFAULT_RULES,
) -> ReasoningGraph:
    """Smallest closure of the initial statements under the rule library,
    bounded by the ``MAX_*`` caps (the flag ``truncated`` is set when one
    bites).
    Each new statement runs, in catalog order, only the rules it triggers.

    Every conclusion must hold numerically, or the scene is aborted with
    ``VerifierContradictionError``. Coordinates do not change during
    saturation, so each distinct statement is checked once: a derived one
    when it is first concluded, an initial one when a rule first re-derives
    it. Only a conclusion that a cap keeps out of the graph is
    checked again each time it recurs."""
    triggered: dict[Predicate, list[Rule]] = {}
    for rule in rules:
        for pred in rule.triggers:
            triggered.setdefault(pred, []).append(rule)
    graph = ReasoningGraph()
    ctx = MatchContext(geometry, graph.statements, graph.index)
    for stmt in initial:
        graph.add_initial(stmt)
    batch = list(graph.initial_ids())
    unchecked_initial = set(batch)
    for sid in batch:
        ctx.note(sid)

    rounds = 0
    while batch:
        if rounds >= MAX_ROUNDS:
            graph.truncated = True
            break
        rounds += 1
        next_batch: list[int] = []
        for sid in batch:
            for rule in triggered.get(graph.statements[sid].predicate, ()):
                for premises, conclusion in rule.match(ctx, sid):
                    premises = tuple(sorted(premises))
                    if max(premises) != sid:
                        raise ReasonerError(
                            f"rule {rule.id} fired on a stale premise combination"
                        )
                    existing = graph.index.get(conclusion)
                    if existing is None or existing in unchecked_initial:
                        verdict = geometry.check_statement(conclusion)
                        if not verdict.holds:
                            raise VerifierContradictionError(rule.id, conclusion, verdict.residual)
                        unchecked_initial.discard(existing)
                    if existing is not None and max(premises) >= existing:
                        continue  # a premise itself, or would break insertion-order soundness
                    if len(graph.transitions) >= MAX_TRANSITIONS or (
                        existing is None and len(graph.statements) >= MAX_STATEMENTS
                    ):
                        graph.truncated = True
                        continue
                    if existing is None:
                        existing = graph.add_statement(conclusion)
                        ctx.note(existing)
                        next_batch.append(existing)
                    graph.add_transition(premises, rule.id, existing)
        batch = next_batch
    return graph


def saturate(scene: Scene, rules: Sequence[Rule] = DEFAULT_RULES) -> ReasoningGraph:
    return saturate_statements(scene.geometry, scene.initial_statements, rules)
