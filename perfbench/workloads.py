"""The benchmark's workloads: set-up, one timed repetition, output checks
and the metrics computed from repetitions.

Every workload is a closed batch over a fixed seed range with the default
``PipelineConfig`` unless noted; one repetition runs the public pipeline call
to completion, then checks what it wrote. The seed range is an argument; the
default and held-out ranges are recorded here and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
from spans import WATCHED_RULES, Recorder

MODULES = (
    "constructions",
    "dataset",
    "geometry",
    "pipeline",
    "reasoner",
    "render",
    "rules",
    "sampler",
    "statements",
    "translate",
)

NPROC = len(os.sched_getaffinity(0))

# Bootstrap settings of the bootstrap-deep workload: every prior scene is
# re-seeded, three generations deep, so saturation runs on larger scenes.
BOOTSTRAP = {"bootstrap_quantile": 1.0, "bootstrap_extra_steps": 3, "bootstrap_iterations": 3}

WARMUP_SEEDS = 10
# Set-up runs at least SETUP_ROUNDS times and, while cheap, until it has
# taken SETUP_MIN_S, so that a short set-up still gets a steady median.
SETUP_ROUNDS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_ROUNDS = 10
# The output of an untraced generate or bootstrap call is verified this many
# times. One verify takes a tenth of the call, so a single timing of it
# would be too short to be steady; verify_records_per_s counts every call,
# and the median call stands for verify in the repetition's wall time.
VERIFY_REPEATS = 3
DATASET_FILES = ("records.jsonl", "scenes.jsonl")


@dataclass(frozen=True)
class Workload:
    name: str
    call: str  # "generate" | "bootstrap" | "verify": the timed public call
    default: tuple[int, int]  # (seed_start, count)
    held_out: tuple[int, int]  # used only to confirm a claim
    workers: int  # generate workers, capped at nproc; set-up uses it too
    unit: str  # span whose durations give pipeline.seed_ms_*


# Why each workload is here is said in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("generate-w1", "generate", (0, 200), (5000, 200), 1, "pipeline.generate_one_seed"),
        Workload("generate-w2", "generate", (0, 200), (5000, 200), 2, "pipeline.generate_one_seed"),
        Workload("bootstrap-deep", "bootstrap", (0, 300), (5000, 300), 2, "pipeline.process_scene"),
        Workload("verify-replay", "verify", (0, 200), (5000, 200), 2, "pipeline.verify_record"),
    )
}

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text(encoding="utf-8"))


class CheckError(Exception):
    """An output check failed; the repetition does not count as a speed."""


def parse_range(text: str, workload: Workload) -> tuple[int, int]:
    if text == "default":
        return workload.default
    if text == "held-out":
        return workload.held_out
    start, sep, count = text.partition(":")
    if not sep or not start.isdigit() or not count.isdigit() or int(count) < 1:
        raise ValueError(f"range must be default, held-out or START:COUNT, got {text!r}")
    return int(start), int(count)


def import_engine(src: Path) -> SimpleNamespace:
    """A fresh import of every geoforge module from ``src``."""
    for name in [n for n in sys.modules if n == "geoforge" or n.startswith("geoforge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("geoforge")
    if Path(package.__file__).resolve().parent != (src / "geoforge").resolve():
        raise ImportError(f"geoforge imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{n: importlib.import_module(f"geoforge.{n}") for n in MODULES})


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in DATASET_FILES
    }


def files_and_bytes(out_dir: Path) -> tuple[int, int]:
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def tiers_and_templates(records) -> tuple[dict[str, int], dict[str, int]]:
    tiers = {str(t): 0 for t in (1, 2, 3, 4)}
    templates = {t: 0 for t in ("deductive", "multi_solution", "traceback")}
    for r in records:
        if r.metadata.tier is not None:
            tiers[str(r.metadata.tier)] += 1
        templates[r.template] += 1
    return tiers, templates


def construction_failures(failures) -> int:
    return sum(1 for f in failures if "construction failed" in f or "would not grow" in f)


@dataclass
class Rep:
    """One timed repetition and what was checked about it."""

    call_s: float
    verify_s: float
    seeds: int
    records: int
    verified: int  # records replayed by verify
    verify_failures: int
    deep: int
    zero_yield: int
    construction_failures: int
    tiers: dict[str, int]
    templates: dict[str, int]
    digests: dict[str, str]
    problem: str | None = None
    files_written: int = 0
    bytes_written: int = 0
    verify_times: list[float] = field(default_factory=list)  # every verify call of the repetition
    # Host speed probes on either side of the call and of the verify calls.
    call_probe_s: float = hostspeed.NOMINAL_S
    verify_probe_s: float = hostspeed.NOMINAL_S

    @property
    def wall_s(self) -> float:
        return self.call_s + self.verify_s

    @property
    def verify_fail_ratio(self) -> float:
        """Records that fail verify, over records written."""
        return self.verify_failures / max(1, self.records)


@dataclass
class Bench:
    workload: Workload
    seed_range: tuple[int, int]
    src: Path
    work: Path
    m: SimpleNamespace | None = None
    setup_times: list[float] = field(default_factory=list)
    setup_probes: list[float] = field(default_factory=list)
    input_dir: Path | None = None
    input_records: list = field(default_factory=list)
    input_digests: dict[str, str] = field(default_factory=dict)
    expected: dict[str, str] | None = None  # digests every repetition must produce
    expected_source: str = ""
    problems: list[str] = field(default_factory=list)  # set-up checks that failed
    _n: int = 0

    @property
    def workers(self) -> int:
        return min(self.workload.workers, NPROC)

    def config(self, start: int, count: int, **extra):
        return self.m.pipeline.PipelineConfig(seed_start=start, count=count, workers=self.workers, **extra)

    def fresh_dir(self, tag: str) -> Path:
        self._n += 1
        return self.work / f"{tag}-{self._n}"

    # set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Imports, warm-up and the input dataset, repeated; the last
        round's engine and dataset are the ones measured."""
        call = self.workload.call
        start, count = self.seed_range
        times = self.setup_times
        while len(times) < SETUP_ROUNDS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_ROUNDS):
            if self.input_dir is not None:
                shutil.rmtree(self.input_dir)
            probe_before = hostspeed.reference_s()
            t0 = perf_counter()
            self.m = import_engine(self.src)
            warm = self.fresh_dir("warmup")
            self.m.pipeline.generate(self.config(start, min(WARMUP_SEEDS, count)), warm)
            self.m.pipeline.verify(warm)
            if call in ("bootstrap", "verify"):
                self.input_dir = self.fresh_dir("input")
                self.m.pipeline.generate(self.config(start, count), self.input_dir)
            times.append(perf_counter() - t0)
            self.setup_probes.append((probe_before + hostspeed.reference_s()) / 2)
            shutil.rmtree(warm)
            if self.input_dir is not None:
                got = digests(self.input_dir)
                if self.input_digests and got != self.input_digests:
                    self.problems.append(f"set-up datasets differ between rounds: {got} vs {self.input_digests}")
                self.input_digests = got
        if self.input_dir is not None:
            self.input_records = self.m.dataset.load_records(self.input_dir)
            pinned = PINNED.get(f"generate {start}:{count}")
            if pinned is not None and pinned != self.input_digests:
                self.problems.append(f"set-up dataset digests {self.input_digests} differ from pinned {pinned}")
        # verify-replay's repetitions describe their input dataset.
        pinned = PINNED.get(f"{'generate' if call == 'verify' else call} {start}:{count}")
        if pinned is not None:
            self.expected, self.expected_source = pinned, "pinned"

    def setup_s(self, scaled: bool = True) -> float:
        if not scaled:
            return statistics.median(self.setup_times)
        return statistics.median(map(hostspeed.scaled_s, self.setup_times, self.setup_probes))

    # one repetition ----------------------------------------------------

    def rep(self, rec: Recorder | None = None) -> Rep:
        p = self.m.pipeline
        call = self.workload.call
        start, count = self.seed_range
        out = self.fresh_dir("out")
        run_call = {
            "generate": lambda: p.generate(self.config(start, count), out),
            "bootstrap": lambda: p.bootstrap(self.config(start, count, **BOOTSTRAP), self.input_dir, out),
            "verify": lambda: p.verify(self.input_dir),
        }[call]
        run_verify = lambda: p.verify(out)  # noqa: E731
        if rec is not None:
            run_call = rec.span(f"pipeline.{call}", run_call)
            run_verify = rec.span("pipeline.verify", run_verify)
        probe_before = hostspeed.reference_s()
        gc.collect()
        t0 = perf_counter()
        result = run_call()
        call_s = perf_counter() - t0
        probe_between = hostspeed.reference_s()
        if call == "verify":
            verified, verify_s = result, 0.0
            records, failures, seeds = self.input_records, [], count
        else:
            reports, times = [], []
            for _ in range(1 if rec else VERIFY_REPEATS):
                gc.collect()
                t0 = perf_counter()
                reports.append(run_verify())
                times.append(perf_counter() - t0)
            # The report with the most failures is the one checked.
            verified = max(reports, key=lambda v: (len(v.failures), -v.total))
            verify_s = statistics.median(times)
            records, failures = result.records, result.failures
            seeds = count if call == "generate" else self._reseeded(records)
        rep = self._describe(call_s, verify_s, seeds, records, failures, verified)
        rep.call_probe_s = (probe_before + probe_between) / 2
        if call == "verify":
            rep.verify_times, rep.verify_probe_s = [call_s], rep.call_probe_s
        else:
            rep.verify_times = times
            rep.verify_probe_s = (probe_between + hostspeed.reference_s()) / 2
        if call != "verify":
            rep.files_written, rep.bytes_written = files_and_bytes(out)
            rep.digests = digests(out)
        shutil.rmtree(out, ignore_errors=True)
        try:
            self._check(rep)
        except CheckError as exc:
            rep.problem = str(exc)
        return rep

    def _reseeded(self, records) -> int:
        """Scenes bootstrap re-seeded, rebuilt from its output: each
        generation re-seeds every scene of the previous generation's records
        (quantile 1.0), falling back to the older records when none came."""
        current = self.input_records
        base_gen = max((r.metadata.bootstrap_generation for r in current), default=0)
        total = 0
        for gen in range(base_gen + 1, base_gen + 1 + BOOTSTRAP["bootstrap_iterations"]):
            total += len({r.scene_id for r in current})
            current = [r for r in records if r.metadata.bootstrap_generation == gen] or current
        return total

    def _describe(self, call_s, verify_s, seeds, records, failures, verified) -> Rep:
        tiers, templates = tiers_and_templates(records)
        if self.workload.call == "bootstrap":
            yielding = len({(r.metadata.bootstrap_generation, r.scene_id) for r in records})
        else:
            yielding = len({r.seed for r in records})
        return Rep(
            call_s=call_s,
            verify_s=verify_s,
            seeds=seeds,
            records=len(records),
            verified=verified.total,
            verify_failures=len(verified.failures),
            deep=sum(v for t, v in tiers.items() if int(t) >= 2),
            zero_yield=seeds - yielding,
            construction_failures=construction_failures(failures),
            tiers=tiers,
            templates=templates,
            digests=dict(self.input_digests),
        )

    def _check(self, rep: Rep) -> None:
        if rep.verify_failures:
            raise CheckError(f"verify rejected {rep.verify_failures} of {rep.verified} records")
        if rep.verified != rep.records:
            raise CheckError(f"verify replayed {rep.verified} records, {rep.records} were written")
        if rep.records == 0:
            raise CheckError("no records")
        if self.expected is None:
            self.expected, self.expected_source = rep.digests, "first repetition"
        elif rep.digests != self.expected:
            raise CheckError(
                f"digests {rep.digests} differ from the {self.expected_source} {self.expected}"
            )


# metrics ---------------------------------------------------------------

def peak_rss_mb() -> float:
    import resource

    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def end_to_end(bench: Bench, reps: list[Rep], scaled: bool = True) -> dict[str, float]:
    """Rates over the whole run: work summed over the repetitions, divided by
    their summed time. Each time is scaled by the host speed probes taken on
    either side of it (see ``hostspeed``) unless ``scaled`` is false. On
    verify-replay the timed call is verify itself, so every rate is per
    second of verify."""

    def secs(seconds: float, probe_s: float) -> float:
        return hostspeed.scaled_s(seconds, probe_s) if scaled else seconds

    last = reps[-1]
    call_s = [secs(r.call_s, r.call_probe_s) for r in reps]
    verify_calls = [(r.verified, secs(t, r.verify_probe_s)) for r in reps for t in r.verify_times]
    verify_s = [secs(r.verify_s, r.verify_probe_s) for r in reps]
    return {
        "seeds_per_s": sum(r.seeds for r in reps) / sum(call_s),
        "records_per_s": sum(r.records for r in reps) / sum(call_s),
        "verified_records_per_s": sum(r.verified - r.verify_failures for r in reps)
        / (sum(call_s) + sum(verify_s)),
        "verify_records_per_s": sum(n for n, _ in verify_calls) / sum(t for _, t in verify_calls),
        "records_per_1000_seeds": 1000 * last.records / last.seeds,
        "deep_records_per_1000_seeds": 1000 * last.deep / last.seeds,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": bench.setup_s(scaled),
    }


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(
    bench: Bench, rec: Recorder, traced: list[Rep], untraced: list[Rep], parent_only: bool
) -> dict[str, float]:
    """Per-layer metrics: span times and counts per traced repetition.

    Times are means over repetitions, so the layers' self times add up to
    ``trace.wall_s``; untraced and traced repetitions alternate, and
    ``trace.overhead_ratio`` compares their means."""
    n = len(traced)
    tot, calls, counts = rec.total, rec.calls, rec.counts

    def s(*names: str) -> float:
        return sum(tot[x] for x in names) / n

    def c(*names: str) -> float:
        return sum(counts[x] for x in names) / n

    def ratio(key: str) -> float:
        made = counts[f"sampler.{key}.calls"]
        return counts[f"sampler.{key}.accepted"] / made if made else 0.0

    graphs = rec.graph_sizes
    units = rec.samples.get(bench.workload.unit, [])
    last = traced[-1]
    fires = counts["rules.fires"]
    traced_wall = statistics.fmean(r.wall_s for r in traced)
    untraced_wall = statistics.fmean(r.wall_s for r in untraced)
    out: dict[str, float] = {
        "constructions.s": s("constructions.generate_base_scene", "constructions.extend_scene"),
        "constructions.applicable_calls": calls["constructions.applicable_constructions"] / n,
        "constructions.failed_seeds": last.construction_failures,
        "geometry.angle_deg_calls": c("geometry.angle_deg"),
        "geometry.check_statement_calls": calls["geometry.check_statement"] / n,
        "geometry.check_statement_s": s("geometry.check_statement"),
        "reasoner.saturate_s": s("reasoner.saturate"),
        "reasoner.to_single_mode_s": s("reasoner.to_single_mode"),
        "reasoner.statements_p50": statistics.median(graphs) if graphs else 0,
        "reasoner.statements_max": max(graphs, default=0),
        "reasoner.transitions": c("reasoner.transitions"),
        "reasoner.truncated_graphs": c("reasoner.truncated_graphs"),
        "rules.match_calls": c("rules.match_calls"),
        "rules.fires": fires / n,
        "rules.dup_fires": c("rules.dup_fires"),
        "rules.new_ratio": counts["reasoner.transitions"] / fires if fires else 0.0,
        "rules.recheck_s": s("rules.recheck"),
    }
    for rule in bench.m.rules.DEFAULT_RULES:
        out[f"rules.{rule.id}.s"] = s(f"rules.{rule.id}")
    for rule_id in WATCHED_RULES:
        out[f"rules.{rule_id}.fires"] = c(f"rules.{rule_id}.fires")
        out[f"rules.{rule_id}.dup_fires"] = c(f"rules.{rule_id}.dup_fires")
    out.update(
        {
            "statements.canonicalize_calls": c("statements.canonicalize"),
            "statements.parse_calls": calls["statements.parse_statement"] / n,
            "sampler.explore_s": s("sampler.geo_explore"),
            "sampler.explore_m_s": s("sampler.geo_explore_m"),
            "sampler.explore_t_s": s("sampler.geo_explore_t"),
            "sampler.formulate_s": s("sampler.formulate_problem"),
            "sampler.explore_accept_ratio": ratio("explore"),
            "sampler.explore_m_accept_ratio": ratio("explore_m"),
            "sampler.explore_t_accept_ratio": ratio("explore_t"),
            "sampler.oracle_mismatches": c("sampler.oracle_mismatches"),
            "render.s": s("render.render_svg"),
            "render.calls": calls["render.render_svg"] / n,
            "render.bytes": c("render.bytes"),
            "translate.s": s("translate.translate_steps", "translate.connect_thinking", "translate.narrate_traceback"),
            "translate.calls": sum(
                calls[x] for x in ("translate.translate_steps", "translate.connect_thinking", "translate.narrate_traceback")
            ) / n,
            "dataset.write_s": s("dataset.write_dataset"),
            "dataset.files_written": last.files_written,
            "dataset.bytes_written": last.bytes_written,
            "dataset.hash_s": s("dataset.record_content_hash", "dataset.scene_id_of"),
            "dataset.to_doc_s": s("dataset.record_to_doc"),
            "dataset.parse_s": s("dataset.record_from_doc"),
            "dataset.load_scenes_s": s("dataset.load_scenes"),
            "dataset.load_records_s": s("dataset.load_records"),
            "pipeline.seed_ms_p50": 1000 * _quantile(units, 0.5),
            "pipeline.seed_ms_p99": 1000 * _quantile(units, 0.99),
            "pipeline.zero_yield_seeds": last.zero_yield,
            "pipeline.verify_fail_ratio": last.verify_fail_ratio,
        }
    )
    for tier, v in last.tiers.items():
        out[f"pipeline.records_by_tier.{tier}"] = v
    for template, v in last.templates.items():
        out[f"pipeline.records_by_template.{template}"] = v
    for layer, seconds in rec.layer_self_s().items():
        out[f"{layer}.self_s"] = seconds / n
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    out["trace.parent_only"] = int(parent_only)
    return out
