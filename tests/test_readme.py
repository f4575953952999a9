import ast
import dataclasses
import importlib
import re
from pathlib import Path

from geoforge.pipeline import PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    # the example must keep up with the API it shows
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    question, answer = capsys.readouterr().out.splitlines()
    assert question.startswith("In the figure, ") and "find the measure" in question
    assert answer == "90"


def _tables(section: str) -> list[list[list[str]]]:
    """The rows below each table's header, as lists of cells."""
    tables: list[list[list[str]]] = []
    in_table = False
    for line in section.splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        if not in_table:
            tables.append([])
            in_table = True
        tables[-1].append([cell.strip() for cell in line.strip("|").split("|")])
    return [rows[2:] for rows in tables]


def test_configuration_reference_lists_every_field_and_constant():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration reference\n", 1)[1].split("\n## ", 1)[0]
    fields, constants = _tables(section)
    names = [re.fullmatch(r"`(\w+)`", row[0]).group(1) for row in fields]
    assert names == [f.name for f in dataclasses.fields(PipelineConfig)]
    for row in constants:
        names = re.findall(r"`(\w+)\.(\w+)`", row[0])
        values = [ast.literal_eval(v) for v in row[1].split(", ")]
        assert len(names) == len(values), row
        for (module, name), value in zip(names, values):
            assert getattr(importlib.import_module(f"geoforge.{module}"), name) == value, name
