"""Seeded random edits of a small dataset: whatever a file holds, ``verify``
returns a report and every command that reads a dataset ends in exit 0 or 1,
never in a traceback."""

import contextlib
import io
import json
import math
import random
import re
import shutil
from collections import Counter

import pytest

from geoforge.cli import main
from geoforge.pipeline import PipelineConfig, generate
from helpers import synthetic_dataset

FILES = ("records.jsonl", "scenes.jsonl", "config.json", "manifest.jsonl")
EDITS = 200
# JSON values that no field holds, or holds only at the edges of its range
HOSTILE = [
    None, True, False, 0, -1, 7, 2**70, 10**400, 0.5, -2.5, 1e-200, 1e300, math.nan, math.inf,
    "", "A", "??", "seg_len(A,B;5)", "angle_val(A,B,C;0)", "1/0", [], [1.0], ["A"],
    [0.0, 1e-200], [["A"]], {}, {"A": 1},
]
# magnitudes whose products underflow or overflow
EXTREME = [5e-324, 1e-200, 1e-160, 1e200, 1e300]
# numbers no statement value or exact answer holds: a zero denominator, more
# digits than int() reads, and values no float holds
NUMBERS = [b"1/0", b"0/0", b"7" * 5000, str(10**400).encode(), f"1/{10**400}".encode()]
# a value inside a statement text, or an exact answer
NUMBER_SLOT = re.compile(rb'(?<=;)[0-9]+(?:/[0-9]+)?(?=\))|(?<="exact":")[^"]*')
INSERTS = [b"\xff", b"\xe2\x80", b"\r", b"\n", b"\x00", b"{", "\x85".encode(), " ".encode()]


def _walk(rng: random.Random, value, path=()):
    """A random path into a JSON value, to a leaf or to a container on the way."""
    while isinstance(value, (dict, list)) and value and rng.random() < 0.75:
        key = rng.choice(sorted(value) if isinstance(value, dict) else range(len(value)))
        path, value = (*path, key), value[key]
    return path


def _set(doc, path, value):
    """``doc`` with the value at ``path`` replaced, or removed when ``value``
    is the ``_set`` function itself; the root replaced when ``path`` is empty."""
    if not path:
        return value
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is _set:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _edit_value(rng: random.Random, text: str) -> str:
    """One line's JSON with one value replaced or removed."""
    doc = json.loads(text)
    path = _walk(rng, doc)
    value = _set if path and rng.random() < 0.2 else rng.choice(HOSTILE)
    return json.dumps(_set(doc, path, value))


def _edit_points(rng: random.Random, text: str) -> str:
    """One scene line with up to three points of one of its initial statements
    moved to coordinates of one extreme magnitude."""
    doc = json.loads(text)
    scene = doc["scene"]
    labels = sorted(set(re.findall(r"[A-Z][0-9]?", rng.choice(scene["initial_statements"]))))
    size = rng.choice(EXTREME)
    for label in rng.sample(labels, min(3, len(labels))):
        scene["points"][label] = [rng.choice([0.0, size, -size]) for _ in "xy"]
    return json.dumps(doc)


def _edited(rng: random.Random, name: str, data: bytes) -> bytes:
    """``data``, the bytes of dataset file ``name``, under one random edit."""
    lines = data.split(b"\n")[:-1]
    kind = rng.choice(["value", "value", "points", "points", "number", "bytes", "lines"])
    slots = []
    if kind == "number":
        slots = [(i, m.span()) for i, line in enumerate(lines) for m in NUMBER_SLOT.finditer(line)]
    if slots:
        i, (start, end) = rng.choice(slots)
        lines[i] = lines[i][:start] + rng.choice(NUMBERS) + lines[i][end:]
    elif kind == "points" and name == "scenes.jsonl":
        i = rng.randrange(len(lines))
        lines[i] = _edit_points(rng, lines[i].decode()).encode()
    elif kind in ("value", "points", "number"):
        i = rng.randrange(len(lines))
        lines[i] = _edit_value(rng, lines[i].decode()).encode()
    elif kind == "bytes":
        at = rng.randrange(len(data) + 1)
        if rng.random() < 0.3:
            return data[:at]
        return data[:at] + rng.choice(INSERTS) + data[at:]
    else:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.choice(["drop", "repeat", "swap", "blank"])
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = b"  "
    return b"".join(line + b"\n" for line in lines)


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    out = tmp_path_factory.mktemp("edits") / "original"
    generate(PipelineConfig(seed_start=0, count=40), out)
    return out


@pytest.fixture(scope="module")
def tiered(tmp_path_factory):
    # curate needs a numeric record in every tier, which no engine dataset this small holds
    return synthetic_dataset(tmp_path_factory.mktemp("edits"), per_tier=1)


def _run(argv: list[str]) -> int | str:
    """``main``'s exit code, or the exception it ended in."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except BaseException as exc:  # any of them would end the command in a traceback
            return f"{type(exc).__name__}: {exc}"


def test_random_edits_give_reports_and_exit_codes(original, tiered, tmp_path):
    work, tiers, out = tmp_path / "work", tmp_path / "tiers", tmp_path / "out"
    shutil.copytree(original, work)
    shutil.copytree(tiered, tiers)
    pristine = {(d, name): (d / name).read_bytes() for d in (work, tiers) for name in FILES}
    # each command with the files it reads; an edit of another leaves its run as it was
    commands = [
        (["verify", "--in", str(work)], set(FILES)),
        (["stats", "--in", str(work)], {"records.jsonl"}),
        (["curate", "--in", str(tiers), "--out", str(out / "test"), "--per-tier", "1"], {"records.jsonl"}),
        (["bootstrap", "--in", str(work), "--out", str(out / "grown")], {"records.jsonl", "scenes.jsonl"}),
    ]
    rng = random.Random(20250)
    codes: Counter = Counter()
    problems = []
    for n in range(EDITS):
        name = rng.choice(FILES)
        edit = rng.getrandbits(64)  # one edit's choices, made on either dataset's file
        for d in (work, tiers):
            (d / name).write_bytes(_edited(random.Random(edit), name, pristine[d, name]))
        for argv, reads in commands:
            if name in reads:
                code = _run(argv)
                codes[argv[0], code] += 1
                if code not in (0, 1):
                    problems.append((n, name, argv[0], code))
        shutil.rmtree(out, ignore_errors=True)
        for d in (work, tiers):
            (d / name).write_bytes(pristine[d, name])
    assert not problems, problems
    # the edits reached the checks: verify, which every one runs, failed most of them
    assert codes["verify", 1] > EDITS * 3 // 4, codes
    # and curate's selection and writing, which only a run that exits 0 reaches
    assert codes["curate", 0] > 0, codes
