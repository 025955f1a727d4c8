"""README's examples: the quick tour runs and every CLI example parses."""

import re
import shlex
from pathlib import Path

from condbands import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(text, lang):
    """The bodies of the fenced ``lang`` code blocks of ``text``."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_examples_run(tmp_path, monkeypatch):
    # a renamed option or a removed public name in README fails here
    text = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (tour,) = _blocks(text, "python")
    exec(compile(tour, str(README), "exec"), {})
    assert (tmp_path / "bands.csv").stat().st_size > 0

    commands = []
    for block in _blocks(text, "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["condbands"]:
                commands.append(words[1:])
    subcommands = {words[0] for words in commands}
    assert subcommands == {"simulate", "bands", "regression", "quantile", "experiment", "plotdata"}
    for words in commands:
        cli.parse_args(words)
