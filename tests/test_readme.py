"""The Library example in README.md runs against the current API."""

import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_snippet_runs(fixture_path, tmp_path, monkeypatch, capsys):
    code = library_snippet()
    assert '"corpus.json"' in code
    code = code.replace('"corpus.json"', repr(str(fixture_path)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # one evaluated point, then one line per measure
