"""The Library example and the Command line examples in README.md run against the current code."""

import pathlib
import shlex

from lexsweep.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_snippet() -> str:
    return section("Library").split("```python\n", 1)[1].split("\n```", 1)[0]


def cli_examples() -> list[list[str]]:
    """Each `lexsweep ...` line of the Command line block, as argv without the program name."""
    block = section("Command line").split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lexsweep ")]


def test_library_snippet_runs(fixture_path, tmp_path, monkeypatch, capsys):
    code = library_snippet()
    assert '"corpus.json"' in code
    code = code.replace('"corpus.json"', repr(str(fixture_path)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # one evaluated point, then one line per measure


def test_cli_examples_run(fixture_path, tmp_path, monkeypatch):
    examples = cli_examples()
    commands = [argv[0] for argv in examples]
    assert commands == ["validate", "stats", "gold", "extract", "evaluate", "sweep"]
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert "corpus.json" in argv
        argv = [str(fixture_path) if arg == "corpus.json" else arg for arg in argv]
        assert main(argv) == 0, argv
