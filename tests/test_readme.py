"""The README's Library section runs as written and documents ``lftc.__all__``."""

import re

import lftc

from conftest import REPO_ROOT


def library_section() -> str:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_snippet_runs(monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    monkeypatch.chdir(REPO_ROOT)  # the snippet reads data/synthetic_*.csv
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2


def test_library_section_lists_the_package_exports():
    # The sentence naming the exports lists exactly lftc.__all__.
    sentence = re.search(r"The `lftc` package exports (.*?`)\.", library_section(), re.S).group(1)
    assert re.findall(r"`(\w+)`", sentence) == lftc.__all__
