"""Span recorder for the traced run.

Wraps, from outside, the functions each geoforge layer exposes and records a
span around every call: the layer-qualified name, its duration and the time
its child spans covered. Self time is span time minus child time. Spans are
aggregated in memory by name while the run goes; per-call durations are kept
only for the names asked for (the per-seed spans behind the percentiles).
Hot helpers called hundreds of thousands of times per batch
(``SceneGeometry.angle_deg``, ``statements.canonicalize``) get a call counter
instead of a span.

Wrappers are installed by patching module and class attributes and are
removed again by ``uninstall``, so traced and untraced repetitions can
alternate in one process. Names a later version of the engine no longer has
are skipped and listed in ``missing``.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "constructions",
    "reasoner",
    "rules",
    "statements",
    "geometry",
    "sampler",
    "render",
    "translate",
    "dataset",
    "pipeline",
)

# Rules whose fires and duplicate fires are reported one by one.
WATCHED_RULES = ("asa_congruence", "sas_congruence", "aa_similarity", "sss_congruence")

_DONE = object()


class Recorder:
    """In-memory span aggregates, counters and saturated graph sizes."""

    def __init__(self, keep_samples: tuple[str, ...] = ()):
        self.stack: list[list] = []  # open spans: [child seconds]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.graph_sizes: list[int] = []  # statements per saturated graph
        self.samples: dict[str, list[float]] = {name: [] for name in keep_samples}

    def close(self, name: str, start: float, frame: list) -> None:
        duration = perf_counter() - start
        self.stack.pop()
        self.total[name] += duration
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][0] += duration
        kept = self.samples.get(name)
        if kept is not None:
            kept.append(duration)

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped in a span; ``observe(result)`` runs outside it."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, start, frame)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out


class Tracer:
    """Installs a recorder's wrappers into the geoforge modules."""

    def __init__(self, modules, recorder: Recorder):
        self.m = modules
        self.rec = recorder
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def install(self) -> None:
        m, rec = self.m, self.rec
        self.missing = []
        pipeline = m.pipeline
        span = rec.span

        def spanned(owner, attr, name, observe=None):
            self._patch(owner, attr, lambda fn: span(name, fn, observe))

        # Calls pipeline makes through its own module namespace.
        spanned(pipeline, "generate_base_scene", "constructions.generate_base_scene")
        spanned(pipeline, "extend_scene", "constructions.extend_scene")
        self._patch(pipeline, "saturate", self._saturate)
        spanned(pipeline, "geo_explore", "sampler.geo_explore", self._accept("explore", self._is_path))
        spanned(pipeline, "geo_explore_m", "sampler.geo_explore_m", self._accept("explore_m", lambda r: len(r) >= 2))
        self._patch(pipeline, "geo_explore_t", lambda fn: self._count_raised(
            span("sampler.geo_explore_t", fn, self._accept("explore_t", lambda r: r is not None)),
            m.sampler.SamplerError, "sampler.explore_t.calls",
        ))
        self._patch(pipeline, "formulate_problem", lambda fn: self._count_raised(
            span("sampler.formulate_problem", fn), m.sampler.OracleMismatchError, "sampler.oracle_mismatches",
        ))
        spanned(pipeline, "render_svg", "render.render_svg", self._svg_bytes)
        for attr in ("translate_steps", "connect_thinking", "narrate_traceback"):
            spanned(pipeline, attr, f"translate.{attr}")
        for attr in ("write_dataset", "record_content_hash", "record_to_doc", "scene_id_of",
                     "load_records", "load_scenes"):
            spanned(pipeline, attr, f"dataset.{attr}")
        # Units of work behind the per-seed percentiles.
        for attr in ("_generate_one_seed", "_process_scene", "_verify_record"):
            spanned(pipeline, attr, f"pipeline.{attr.lstrip('_')}")

        # Calls made inside the layers.
        spanned(m.dataset, "record_from_doc", "dataset.record_from_doc")
        spanned(m.dataset, "parse_statement", "statements.parse_statement")
        spanned(m.constructions, "parse_statement", "statements.parse_statement")
        spanned(m.constructions, "applicable_constructions", "constructions.applicable_constructions")
        self._patch(m.statements, "canonicalize", lambda fn: rec.counter("statements.canonicalize", fn))
        spanned(m.rules.Rule, "recheck", "rules.recheck")
        spanned(m.geometry.SceneGeometry, "check_statement", "geometry.check_statement")
        self._patch(m.geometry.SceneGeometry, "angle_deg", lambda fn: rec.counter("geometry.angle_deg", fn))
        spanned(m.reasoner.ReasoningGraph, "to_single_mode", "reasoner.to_single_mode")

    # wrappers with observations ----------------------------------------

    def _is_path(self, result) -> bool:
        return not isinstance(result, self.m.sampler.Rejected)

    def _accept(self, key: str, useful):
        counts = self.rec.counts

        def observe(result) -> None:
            counts[f"sampler.{key}.calls"] += 1
            if useful(result):
                counts[f"sampler.{key}.accepted"] += 1

        return observe

    def _svg_bytes(self, svg: str) -> None:
        self.rec.counts["render.bytes"] += len(svg.encode("utf-8"))

    def _count_raised(self, fn, exc_type, key: str):
        counts = self.rec.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc_type:
                counts[key] += 1
                raise

        return wrapper

    def _saturate(self, fn):
        """Saturation with every rule's matcher wrapped, plus graph sizes."""
        rec = self.rec
        rules = tuple(
            dataclasses.replace(rule, match=self._match(rule.id, rule.match))
            for rule in self.m.reasoner.DEFAULT_RULES
        )

        def observe(graph) -> None:
            rec.graph_sizes.append(len(graph.statements))
            rec.counts["reasoner.transitions"] += len(graph.transitions)
            rec.counts["reasoner.truncated_graphs"] += bool(graph.truncated)

        traced = rec.span("reasoner.saturate", fn, observe)

        def wrapper(scene, *args, **kwargs):
            if not args and "rules" not in kwargs:
                kwargs["rules"] = rules
            return traced(scene, *args, **kwargs)

        return wrapper

    def _match(self, rule_id: str, match):
        """A matcher whose every resumption is a span; fires are counted as
        they are yielded, a duplicate when the graph already holds the
        conclusion."""
        rec = self.rec
        stack, counts = rec.stack, rec.counts
        name = f"rules.{rule_id}"
        watched = rule_id in WATCHED_RULES

        def traced(ctx, sid):
            counts["rules.match_calls"] += 1
            it = None
            while True:
                frame = [0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    if it is None:
                        it = iter(match(ctx, sid))
                    fired = next(it, _DONE)
                finally:
                    rec.close(name, start, frame)
                if fired is _DONE:
                    return
                dup = ctx.lookup(fired[1]) is not None
                counts["rules.fires"] += 1
                counts["rules.dup_fires"] += dup
                if watched:
                    counts[f"{name}.fires"] += 1
                    counts[f"{name}.dup_fires"] += dup
                yield fired

        return traced
