"""geoforge benchmark: seeded batch workloads, end-to-end throughput and
yield, and a traced run that reports per-layer metrics.

Usage, from the repository root (see perfbench/README.md):

    python3 perfbench/run.py --workload generate-w1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the engine's
sources under ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import LAYERS, Recorder, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
MIN_REPS = 3  # untraced repetitions per run, however long each takes


def parse_args(argv):
    ap = argparse.ArgumentParser(description="geoforge benchmark")
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(wl.WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=0, help="the run's PYTHONHASHSEED")
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--range", default="default", help="default, held-out or START:COUNT")
    ap.add_argument("--report", help="also write the result, digests and funnel to this JSON file")
    return ap.parse_args(argv)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(args, bench: wl.Bench) -> tuple[list, list, Recorder, Tracer]:
    """Untraced repetitions, alternating with traced ones under ``--trace 1``,
    until ``--seconds`` have passed and at least ``MIN_REPS`` ran."""
    rec = Recorder(keep_samples=(bench.workload.unit,))
    tracer = Tracer(bench.m, rec)
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(untraced) < MIN_REPS or perf_counter() < deadline:
        untraced.append(bench.rep())
        if args.trace:
            tracer.install()
            try:
                traced.append(bench.rep(rec))
            finally:
                tracer.uninstall()
    return untraced, traced, rec, tracer


def run_one(args, workload: wl.Workload, work: Path) -> int:
    bench = wl.Bench(workload, wl.parse_range(args.range, workload), SRC, work)
    bench.setup()
    untraced, traced, rec, tracer = measure(args, bench)

    bad = [r for r in untraced + traced if r.problem]
    good_untraced = [r for r in untraced if not r.problem] or untraced
    good_traced = [r for r in traced if not r.problem] or traced
    # Spans can be recorded only in this process, not in pool workers.
    parent_only = workload.call == "generate" and bench.workers > 1
    if args.trace:
        kind = "per_layer"
        metrics = wl.per_layer(bench, rec, good_traced, good_untraced, parent_only)
    else:
        kind = "end_to_end"
        metrics = wl.end_to_end(bench, good_untraced)
        unscaled = wl.end_to_end(bench, good_untraced, scaled=False)
    units = metric_units(kind)
    if set(units) != set(metrics):
        print(
            f"BENCHMARK.json {kind} does not match the metrics made: only in BENCHMARK.json "
            f"{sorted(set(units) - set(metrics))}, only made {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 3

    last = (good_traced or good_untraced)[-1]
    start, count = bench.seed_range
    walls = sorted(r.wall_s for r in good_untraced)
    pinned = "pinned" if bench.expected_source == "pinned" else "not pinned"
    lines = [
        f"workload {workload.name}: seeds {start}..{start + count - 1}, workers {bench.workers}, "
        f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}, "
        f"{len(untraced)} untraced + {len(traced)} traced repetitions",
        *(f"FAILED set-up: {p}" for p in bench.problems),
        *(f"FAILED repetition: {r.problem}" for r in bad),
        f"verify_fail_ratio = {fmt(last.verify_fail_ratio)}",
        *(f"{name} sha256 = {value} ({pinned})" for name, value in last.digests.items()),
        f"funnel: {last.seeds} seeds -> {last.construction_failures} construction failures, "
        f"{last.zero_yield} zero-yield -> {last.records} records; tiers {last.tiers}; "
        f"templates {last.templates}",
        f"untraced wall per repetition: median {fmt(walls[len(walls) // 2])} s, "
        f"min {fmt(walls[0])} s, max {fmt(walls[-1])} s, n={len(walls)}",
    ]
    if args.trace:
        if parent_only:
            lines.append("spans recorded in the parent process only: worker-side layers read 0")
        if tracer.missing:
            lines.append(f"not wrapped, absent from the engine: {', '.join(tracer.missing)}")
        wall = metrics["trace.untraced_wall_s"]
        for layer in sorted(LAYERS, key=lambda x: -metrics[f"{x}.self_s"]):
            share = metrics[f"{layer}.self_s"] / wall
            lines.append(f"self time {layer:<13} {metrics[f'{layer}.self_s']:9.4f} s  {100 * share:6.2f} % of untraced wall")
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        lines.append(
            f"self times sum to {fmt(self_sum / wall)} x untraced wall; "
            f"1 + trace.overhead_ratio = {fmt(1 + metrics['trace.overhead_ratio'])}"
        )
    if not args.trace:
        probes = sorted(p for r in good_untraced for p in (r.call_probe_s, r.verify_probe_s))
        lines.append(
            f"host speed probe: median {fmt(probes[len(probes) // 2])} s, min {fmt(probes[0])} s, "
            f"max {fmt(probes[-1])} s; times below are scaled to a {fmt(wl.hostspeed.NOMINAL_S)} s probe"
        )
        lines += [f"unscaled {name} = {fmt(value)} {units[name]}" for name, value in unscaled.items()]
    lines += [f"{name} = {fmt(value)} {units[name]}" for name, value in metrics.items()]
    print("\n".join(lines))

    result = {
        "correct": not bad and not bench.problems,
        "attempted": len(untraced) + len(traced),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.report:
        detail = dict(
            result,
            workload=workload.name,
            range=[start, count],
            digests=last.digests,
            pinned=bench.expected_source == "pinned",
            funnel={
                "seeds": last.seeds,
                "construction_failures": last.construction_failures,
                "zero_yield": last.zero_yield,
                "records": last.records,
                "tiers": last.tiers,
                "templates": last.templates,
            },
            problems=bench.problems + [r.problem for r in bad],
        )
        Path(args.report).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for name in wl.WORKLOADS:
            report = Path(tmp) / f"{name}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--range", args.range, "--report", str(report),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            print("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0 or not report.exists():
                print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            results[name] = json.loads(report.read_text(encoding="utf-8"))
    same = results["generate-w1"]["digests"] == results["generate-w2"]["digests"]
    print(f"generate-w1 and generate-w2 records.jsonl and scenes.jsonl digests equal: {same}")
    summary = {
        "correct": same and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (SRC / "geoforge" / "__init__.py").is_file():
        print(f"engine sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if args.workload != "all" and os.environ.get("PYTHONHASHSEED") != hash_seed:
        # Re-execute under the seed's PYTHONHASHSEED: set and dict orders
        # change, and the output must not.
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
        try:
            return run_one(args, wl.WORKLOADS[args.workload], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
