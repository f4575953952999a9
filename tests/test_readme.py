import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    # the example must keep up with the API it shows
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    question, answer = capsys.readouterr().out.splitlines()
    assert question.startswith("In the figure, ") and "find the measure" in question
    assert answer == "90"
