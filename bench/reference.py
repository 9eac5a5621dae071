"""Independent expected outputs for the benchmark's generated corpora.

Nothing here imports lexsweep.  The model recomputes, from the generated
dicts, what the documented semantics (README "Concepts") say every
output must be: the universe U, the gold lexicon M, and for each measure
the extraction at every threshold.  Extractions are nested in the
threshold, so each word has one entry threshold: the smallest percent at
which it is selected (for cf, df and tfidf), or its document count (for
idf, read in the reverse direction).  One sort per ranked list then
gives every threshold at once.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field

CONTENT_POS = frozenset({"VERB", "NOUN"})
PERCENT_MEASURES = ("cf", "df", "tfidf")
MEASURES = PERCENT_MEASURES + ("idf",)
FALLOUT_CAP = 0.10
CSV_HEADER = (
    "measure,threshold,precision,recall,f_measure,fallout,"
    "extracted_size,true_positives,universe_size,gold_size"
)
SUMMARY_HEADER = "measure,selection," + CSV_HEADER.split(",", 1)[1]
# 4-decimal CSV fields are compared to exact values within half a unit
# in the last place, plus float slack.
CSV_TOLERANCE = 0.00005 + 1e-9


def _key(token: dict) -> str | None:
    if token["pos"] not in CONTENT_POS:
        return None
    raw = token.get("lemma") or token["surface"]
    return raw.strip().casefold()


def _entry_percent(rank: int, length: int) -> int:
    # smallest percent p with ceil(p * length / 100) > rank
    return 100 * rank // length + 1


@dataclass
class Row:
    measure: str
    threshold: int
    extracted: int
    true_positives: int
    universe: int
    gold: int

    def metrics(self) -> tuple[float, float, float, float]:
        """(precision, recall, f_measure, fallout) under the README conventions."""
        tp, e, m, u = self.true_positives, self.extracted, self.gold, self.universe
        if e:
            precision = tp / e
        else:
            precision = 0.0 if m else 1.0
        recall = tp / m if m else 1.0
        f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        fallout = (e - tp) / (u - m) if u - m else 0.0
        return precision, recall, f, fallout


@dataclass
class Model:
    """Expected sizes, rows and extractions for one generated corpus."""

    n_documents: int
    universe: frozenset[str]
    gold: frozenset[str]
    doc_counts: dict[str, int]
    entries: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def max_doc_count(self) -> int:
        return max(self.doc_counts.values(), default=0)

    def thresholds(self, measure: str) -> range:
        if measure in PERCENT_MEASURES:
            return range(1, 101)
        return range(1, self.max_doc_count + 1)

    def selected(self, measure: str, threshold: int) -> list[str]:
        """The extraction at one point, sorted by code point."""
        if measure == "idf":
            return sorted(w for w, n in self.doc_counts.items() if n >= threshold)
        entry = self.entries[measure]
        return sorted(w for w, p in entry.items() if p <= threshold)

    def rows(self, measure: str) -> list[Row]:
        """One row per threshold, ascending, as a sweep must report them."""
        level = self.doc_counts if measure == "idf" else self.entries[measure]
        hits = Counter(level.values())
        gold_hits = Counter(level[w] for w in self.gold)
        thresholds = self.thresholds(measure)
        # idf keeps the words at or above the threshold, the others those at or below
        extracted = true_pos = 0
        counts = {}
        for t in reversed(thresholds) if measure == "idf" else thresholds:
            extracted += hits[t]
            true_pos += gold_hits[t]
            counts[t] = (extracted, true_pos)
        return [Row(measure, t, *counts[t], len(self.universe), len(self.gold)) for t in thresholds]


def build_model(corpus: dict, measures=MEASURES) -> Model:
    """Recompute U, M, document counts and per-word entry thresholds."""
    per_document: list[Counter] = []
    gold: set[str] = set()
    for document in corpus["documents"]:
        tf: Counter = Counter()
        for sentence in document["sentences"]:
            for token in sentence["tokens"]:
                key = _key(token)
                if key is None:
                    continue
                tf[key] += 1
                if sentence["annotated"]:
                    gold.add(key)
        per_document.append(tf)

    collection: Counter = Counter()
    doc_counts: Counter = Counter()
    for tf in per_document:
        collection.update(tf)
        doc_counts.update(tf.keys())
    model = Model(
        n_documents=len(per_document),
        universe=frozenset(collection),
        gold=frozenset(gold),
        doc_counts=dict(doc_counts),
    )

    n = model.n_documents
    for measure in measures:
        if measure == "idf":
            continue
        if measure == "cf":
            lists = [collection]
        elif measure == "df":
            lists = per_document
        else:
            lists = [
                {w: count * math.log(n / doc_counts[w]) for w, count in tf.items()}
                for tf in per_document
            ]
        entry: dict[str, int] = {}
        for scores in lists:
            ranked = sorted(scores, key=lambda w: (-scores[w], w))
            length = len(ranked)
            for rank, word in enumerate(ranked):
                p = _entry_percent(rank, length)
                if p < entry.get(word, 101):
                    entry[word] = p
        model.entries[measure] = entry
    return model


def words_digest(sorted_words) -> str:
    """SHA-256 of an extraction given in code-point order, one word per line."""
    return hashlib.sha256("".join(f"{w}\n" for w in sorted_words).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Checks; each returns a list of problems, empty when the output is right.
# ---------------------------------------------------------------------------

def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-15)


def check_point(model: Model, record: dict) -> list[str]:
    """One library point: its extraction digest and its metrics row."""
    measure, threshold = record["measure"], record["threshold"]
    where = f"{measure}@{threshold}"
    expected_words = model.selected(measure, threshold)
    tp = sum(1 for w in expected_words if w in model.gold)
    row = Row(measure, threshold, len(expected_words), tp, len(model.universe), len(model.gold))
    problems = []
    if record["words_sha256"] != words_digest(expected_words):
        problems.append(f"{where}: extraction differs from the reference")
    got_ints = tuple(record[k] for k in ("extracted_size", "true_positives", "universe_size", "gold_size"))
    want_ints = (row.extracted, row.true_positives, row.universe, row.gold)
    if got_ints != want_ints:
        problems.append(f"{where}: sizes {got_ints} != {want_ints}")
    got = tuple(record[k] for k in ("precision", "recall", "f_measure", "fallout"))
    if not all(_close(a, b) for a, b in zip(got, row.metrics())):
        problems.append(f"{where}: metrics {got} != {row.metrics()}")
    return problems


def _parse_csv(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header:
        raise ValueError("bad header or missing final newline")
    return [line.split(",") for line in lines[1:-1]]


def _fields_match(fields: list[str], row: Row) -> bool:
    ints = [int(x) for x in fields[-4:]]
    floats = [float(x) for x in fields[-8:-4]]
    return ints == [row.extracted, row.true_positives, row.universe, row.gold] and all(
        abs(a - b) <= CSV_TOLERANCE for a, b in zip(floats, row.metrics())
    )


def check_bundle(model: Model, files: dict[str, bytes]) -> list[str]:
    """A 9-file sweep report: every CSV row, the summary, and sane SVGs.

    Also checks the structural invariants: 100/100/100/max_doc_count
    rows, recall and fallout monotone in the threshold, and the full
    universe at the loosest threshold.
    """
    expected_names = {f"{m}.{ext}" for m in MEASURES for ext in ("csv", "svg")} | {"summary.csv"}
    if set(files) != expected_names:
        return [f"bundle files {sorted(files)} != {sorted(expected_names)}"]
    problems = []
    best: dict[str, list[list[str]]] = {}
    for measure in MEASURES:
        try:
            records = _parse_csv(files[f"{measure}.csv"].decode("utf-8"), CSV_HEADER)
        except ValueError as exc:
            problems.append(f"{measure}.csv: {exc}")
            continue
        rows = model.rows(measure)
        if len(records) != len(rows):
            problems.append(f"{measure}.csv: {len(records)} rows, expected {len(rows)}")
            continue
        for fields, row in zip(records, rows):
            if fields[:2] != [measure, str(row.threshold)] or not _fields_match(fields, row):
                problems.append(f"{measure}.csv: row {','.join(fields)} is wrong")
                break
        recall = [float(f[3]) for f in records]
        fallout = [float(f[5]) for f in records]
        if measure == "idf":
            recall.reverse()
            fallout.reverse()
        if recall != sorted(recall) or fallout != sorted(fallout):
            problems.append(f"{measure}.csv: recall or fallout not monotone")
        loosest = records[-1] if measure != "idf" else records[0]
        if int(loosest[6]) != len(model.universe) or float(loosest[3]) != 1.0:
            problems.append(f"{measure}.csv: loosest threshold is not the full universe")
        best[measure] = records

        svg = files[f"{measure}.svg"]
        if not (svg.startswith(b"<svg") or svg.startswith(b"<?xml")) or not svg.rstrip().endswith(b"</svg>"):
            problems.append(f"{measure}.svg: not a complete SVG document")

    try:
        summary = _parse_csv(files["summary.csv"].decode("utf-8"), SUMMARY_HEADER)
    except ValueError as exc:
        return problems + [f"summary.csv: {exc}"]
    for measure, records in best.items():
        chosen = {f[1]: [measure] + f[2:] for f in summary if f[0] == measure}
        want = {}
        for selection, cap in (("best_f", None), ("best_f_under_cap", FALLOUT_CAP)):
            # strictly greater keeps the smallest threshold on F ties
            top = None
            for fields, row in zip(records, model.rows(measure)):
                precision, recall, f, fallout = row.metrics()
                if cap is not None and fallout > cap:
                    continue
                if top is None or f > top[0]:
                    top = (f, fields)
            if top is not None:
                want[selection] = top[1]
        if chosen != want:
            problems.append(f"summary.csv: {measure} rows {chosen} != {want}")
    return problems


def evaluate_fields(text: str) -> dict[str, str]:
    """The `name: value` lines printed by `lexsweep evaluate`."""
    return {
        name.strip(): value.strip()
        for name, _, value in (line.partition(":") for line in text.splitlines())
    }


def check_evaluate_output(model: Model, measure: str, threshold: int, text: str) -> list[str]:
    """Output of `lexsweep evaluate`: every printed field."""
    pairs = evaluate_fields(text)
    expected_words = model.selected(measure, threshold)
    row = Row(
        measure,
        threshold,
        len(expected_words),
        sum(1 for w in expected_words if w in model.gold),
        len(model.universe),
        len(model.gold),
    )
    want_ints = {
        "measure": measure,
        "threshold": str(threshold),
        "extracted_size": str(row.extracted),
        "true_positives": str(row.true_positives),
        "universe_size": str(row.universe),
        "gold_size": str(row.gold),
    }
    problems = [
        f"evaluate output: {k}={pairs.get(k)!r}, expected {v!r}"
        for k, v in want_ints.items()
        if pairs.get(k) != v
    ]
    for name, value in zip(("precision", "recall", "f_measure", "fallout"), row.metrics()):
        try:
            ok = abs(float(pairs.get(name, "nan")) - value) <= CSV_TOLERANCE
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"evaluate output: {name}={pairs.get(name)!r}, expected {value:.4f}")
    return problems
