"""Mutation check: seeded faults that named test files must catch.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # only the named ones

Each mutant replaces one exact text in one file of a copy of src/, made in
a temporary directory, and runs its test files against that copy.  It is
caught when they fail.  The script exits 1 when a mutant survives, or when
its text is not in its file exactly once, so a refactor that moves the
text must update the mutant rather than lose it.  pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/lexsweep
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/


MUTANTS = (
    Mutant(
        "by-score-without-word-sort",
        "measures.py",
        "return sorted(sorted(scores), key=scores.__getitem__, reverse=True)",
        "return sorted(scores, key=scores.__getitem__, reverse=True)",
        ("test_measures.py",),
    ),
    Mutant(
        "entries-keep-the-largest-threshold",
        "measures.py",
        "if threshold < entry.get(word, 101):",
        "if threshold > entry.get(word, 0):",
        ("test_measures.py",),
    ),
    Mutant(
        "entries-without-plus-one",
        "measures.py",
        "threshold = 100 * rank // length + 1",
        "threshold = 100 * rank // length",
        ("test_measures.py",),
    ),
    Mutant(
        "ranking-without-issuperset",
        "measures.py",
        "within = gold[-1] == len(index.gold) and index.words.issuperset(words)",
        "within = gold[-1] == len(index.gold)",
        ("test_evaluation.py",),
    ),
    Mutant(
        "ranking-without-gold-prefix-sum-check",
        "measures.py",
        "within = gold[-1] == len(index.gold) and index.words.issuperset(words)",
        "within = index.words.issuperset(words)",
        ("test_evaluation.py",),
    ),
    Mutant(
        "sweep-check-without-recount",
        "sweep.py",
        "\n        or len(extracted & index.gold) != row.true_positives",
        "",
        ("test_sweep.py",),
    ),
    Mutant(
        "evaluate-skips-e-within-u",
        "evaluation.py",
        '        _check_subset("extracted", extracted, universe)\n',
        "",
        ("test_evaluation.py",),
    ),
    Mutant(
        "token-table-keyed-by-lemma-presence",
        "corpus.py",
        'key = raw["surface"] if size == 2 else (raw["surface"], raw["lemma"])',
        'key = raw["surface"] if "lemma" not in raw else (raw["surface"], raw["lemma"])',
        ("test_corpus.py",),
    ),
    Mutant(
        "parse-token-without-own-value-lookup",
        "corpus.py",
        "token = seen.get(pos, {}).get(key)",
        "token = None",
        ("test_corpus.py",),
    ),
    Mutant(
        "parse-token-without-raw-key-entry",
        "corpus.py",
        '        seen.setdefault(obj["pos"], {})[key] = token\n',
        "",
        ("test_corpus.py",),
    ),
    Mutant(
        "parse-token-without-pos-strip",
        "corpus.py",
        'pos = _require(obj, "pos", str, where).strip()',
        'pos = _require(obj, "pos", str, where)',
        ("test_corpus.py",),
    ),
    Mutant(
        "repeated-documents-key-keeps-held-warnings",
        "corpus.py",
        "fields[key], document_warnings, error, pos = _walk_documents(text, pos + 1)",
        "fields[key], found, error, pos = _walk_documents(text, pos + 1)\n"
        "            document_warnings = document_warnings + found",
        ("test_corpus.py",),
    ),
    Mutant(
        "expect-without-its-check",
        "corpus.py",
        "if not char or char not in chars:",
        "if not char:",
        ("test_corpus.py",),
    ),
    Mutant(
        "unknown-fields-unsorted",
        "corpus.py",
        "sorted(set(obj) - known)",
        "list(set(obj) - known)",
        ("test_corpus.py",),
    ),
    Mutant(
        "normalize-lower-not-casefold",
        "lexicon.py",
        "key = key.casefold()",
        "key = key.lower()",
        ("test_lexicon.py",),
    ),
    Mutant(
        "best-row-empty-e-and-m-as-f-zero",
        "sweep.py",
        "if total else (1, 1)",
        "if total else (0, 1)",
        ("test_sweep.py",),
    ),
)


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply the mutant to a copy of src/ and run its tests: (caught, detail)."""
    with tempfile.TemporaryDirectory(prefix="lexsweep-mutant-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "lexsweep" / mutant.file
        text = target.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return False, f"target text found {found} times in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # Run from the scratch directory, so hypothesis keeps its examples there.
        completed = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *(str(ROOT / "tests" / name) for name in mutant.tests),
            ],
            cwd=scratch,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )
    lines = completed.stdout.splitlines()
    if completed.returncode == 1:
        failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
        return True, f"caught by {Path(failed[0]).name if failed else 'a failing test'}"
    summary = lines[-1] if lines else completed.stderr.strip()
    return False, f"pytest exited {completed.returncode}: {summary}"


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    start, failures = time.perf_counter(), 0
    for mutant in chosen:
        caught, detail = run(mutant)
        failures += not caught
        print(f"{'caught  ' if caught else 'SURVIVED'} {mutant.name}: {detail}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{len(chosen) - failures} of {len(chosen)} mutants caught in {elapsed:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
