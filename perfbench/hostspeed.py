"""Host speed probe: a fixed pure-Python workload timed next to the engine.

A shared host, such as a small cloud VM, can change speed in phases of tens
of seconds to minutes, by up to 1.8x on a 2-core VM, for every process
alike: CPU time equals wall time there, so the slowdown is contention for
the host's cores and caches, not time taken away from the process. A run of
under a minute sees one or two phases, so rates measured in seconds swing
with whichever phase it caught. ``reference_s`` times the same work on
either side of every timed call; dividing an engine time by it expresses the
engine's time in units of this work, which the phase changes far less.
``scaled_s`` turns that back into seconds on a host where the probe takes
``NOMINAL_S``.

The probe mixes what the engine spends its time on: JSON decoding, building
and hashing tuples and frozensets, string splitting, float geometry and
fraction snapping. Its code is part of the benchmark and must not change
between the commits being compared.
"""

from __future__ import annotations

import gc
import json
import math
import random
from fractions import Fraction
from time import perf_counter

# Probe time that scaled seconds refer to; about the probe's time on a 2-core
# shared VM under Python 3.11.
NOMINAL_S = 0.06
PASSES = 3

_rng = random.Random(20250421)
_BLOB = json.dumps(
    [
        {
            "id": f"r{i}",
            "points": [[_rng.uniform(-5, 5), _rng.uniform(-5, 5)] for _ in range(10)],
            "facts": [
                f"cong({_rng.choice('ABCDEFGH')}{j},B{j},C{i},D{j})" for j in range(12)
            ],
        }
        for i in range(60)
    ]
)


def _one_pass() -> int:
    seen = set()
    total = Fraction(0)
    for doc in json.loads(_BLOB):
        pts = doc["points"]
        for (ax, ay), (bx, by), (cx, cy) in zip(pts, pts[1:], pts[2:]):
            u, v = (ax - bx, ay - by), (cx - bx, cy - by)
            angle = math.degrees(math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]))
            total += Fraction(angle).limit_denominator(360) - Fraction(math.hypot(*u)).limit_denominator(360)
        for fact in doc["facts"]:
            name, _, args = fact.partition("(")
            points = tuple(sorted(args.rstrip(")").split(",")))
            seen.add((name, frozenset(points[:2]), frozenset(points[2:])))
    return len(seen) + int(total)


def reference_s() -> float:
    """Seconds one probe takes now. The garbage collector is off while it
    runs, so the probe's time does not depend on the engine's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(PASSES):
            _one_pass()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scaled_s(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, as seconds on a
    host where it takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / probe_s
