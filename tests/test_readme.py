"""README's examples: the quick tour and every CLI example run, and the
names README lists as exported or removed are so in the package."""

import importlib
import re
import shlex
from pathlib import Path

import condbands
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
    # in README order, so that `simulate` writes the sample the others read
    for words in commands:
        assert cli.main(words) == 0, words
        outputs = [words[i + 1] for i, w in enumerate(words) if w in ("--output", "--svg")]
        assert outputs and all((tmp_path / o).stat().st_size > 0 for o in outputs), words


def _section(text, heading):
    """The body of the ``## heading`` section of ``text``."""
    return re.search(rf"^## {heading}\n(.*?)(?=^## |\Z)", text, re.MULTILINE | re.DOTALL).group(1)


def _resolves(dotted):
    """Whether ``module.name`` or ``Class.attr`` of the package exists."""
    owner, attr = dotted.split(".")
    try:
        holder = importlib.import_module(f"condbands.{owner}")
    except ImportError:
        holder = getattr(condbands, owner)
    if isinstance(holder, type):
        # a class resolves type's own attributes, such as __call__, too
        fields = getattr(holder, "__dataclass_fields__", {})
        return attr in fields or any(attr in vars(c) for c in holder.__mro__)
    return hasattr(holder, attr)


def test_readme_names_match_the_package():
    text = README.read_text(encoding="utf-8")
    (exported,) = re.findall(r"So ((?:`\w+`[,\s]*(?:and\s+)?)+)import\s+from\s+`condbands`", text)
    names = re.findall(r"`(\w+)`", exported)
    assert "step_sup_deviation" in names
    assert [n for n in names if not hasattr(condbands, n)] == []


def test_removed_names_stay_removed():
    # every `module.name` and `Class.attr` a "Removed" bullet names before
    # its first colon is absent: no module has the name, and no class of the
    # package (vars of it or of a base) holds the attribute
    text = README.read_text(encoding="utf-8")
    bullets = re.findall(r"^- (.*?):\s", _section(text, r"Removed in 0\.1\.x"), re.MULTILINE | re.DOTALL)
    removed = [d for b in bullets for d in re.findall(r"`(\w+\.\w+)\W", b)]
    assert {"experiments.band_normalized_sup", "experiments.default_x_grid", "Kernel.__call__",
            "Kernel.moment", "simulation.oracle_density_provider"} <= set(removed)
    assert [d for d in removed if _resolves(d)] == []
    assert _resolves("experiments.step_sup_deviation") and _resolves("Kernel.eval")
    assert _resolves("LocalWeights.window") and _resolves("Kernel.moments")
    assert _resolves("simulation.true_densities")
