"""``ar1mc``'s public names, and the examples README gives.

The package namespace holds only the names that are reached through it:
``m.<name>`` in README (whose example imports ``ar1mc as m``), and
``from ar1mc import <name>`` or ``ar1mc.<name>`` in the CLI, ``scripts/``
and ``perfbench/``.  Everything else is imported from its module.
README's command lines must parse and its example config must load, so
the documentation cannot drift from the program.

    PYTHONPATH=src python tests/test_public_api.py DIR

writes README's example config to DIR/exp.json, its ``ar1mc`` command
lines, as ``python -m ar1mc.cli`` calls, to DIR/examples.sh, and its
Python quick start to DIR/quickstart.py.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
import types
from pathlib import Path

import ar1mc
from ar1mc.cli import build_parser
from ar1mc.montecarlo import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "ExperimentConfig", "InnovationModel", "Regime", "ls_estimate", "run_experiment",
    "simulate_path",
}


def _fenced_blocks() -> list[tuple[str, str]]:
    """(language, body) of each fenced block in README."""
    readme = (ROOT / "README.md").read_text()
    return re.findall(r"^```(\w*)\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)


def readme_commands() -> list[list[str]]:
    """The argv of each ``ar1mc`` command line in README, continuations joined."""
    commands = []
    for _, body in _fenced_blocks():
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("ar1mc "):
                commands.append(shlex.split(line)[1:])
    return commands


def readme_config() -> dict:
    """README's example experiment config, its one JSON block."""
    (body,) = [body for lang, body in _fenced_blocks() if lang == "json"]
    return json.loads(body)


def readme_quickstart() -> str:
    """README's Python quick start, its one ``python`` block."""
    (body,) = [body for lang, body in _fenced_blocks() if lang == "python"]
    return body


def package_uses() -> set[str]:
    """Names reached through the package namespace, submodules left out."""
    used = set(re.findall(r"\bm\.(\w+)", (ROOT / "README.md").read_text()))
    users = [ROOT / "src" / "ar1mc" / "cli.py", *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    for text in (path.read_text() for path in users):
        for group, line in re.findall(r"^from ar1mc import (?:\(([^)]*)\)|(.*))", text, re.MULTILINE):
            used.update(re.findall(r"\w+", re.sub(r"#.*", "", group or line)))
        used.update(re.findall(r"\bar1mc\.(\w+)", text))
    modules = {path.stem for path in (ROOT / "src" / "ar1mc").glob("*.py")}
    return {name for name in used if not name.startswith("_") and name not in modules}


def test_public_names_are_the_used_ones():
    names = {name for name, value in vars(ar1mc).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
    assert package_uses() == PUBLIC


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["simulate", "estimate", "limit-sample", "mc"]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_config_loads():
    ExperimentConfig.from_dict(readme_config())


def test_readme_quickstart_compiles():
    compile(readme_quickstart(), "README.md", "exec")


if __name__ == "__main__":
    out = Path(sys.argv[1])
    (out / "exp.json").write_text(json.dumps(readme_config(), indent=2) + "\n")
    (out / "examples.sh").write_text(
        "".join(f"python -m ar1mc.cli {shlex.join(argv)}\n" for argv in readme_commands()))
    (out / "quickstart.py").write_text(readme_quickstart())
