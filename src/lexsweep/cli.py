"""Command-line interface.

Subcommands: validate, stats, gold, extract, evaluate, sweep.  Exit
codes: 0 success, 1 I/O or environment failure, 2 user error (bad
flags, parse or validation failure).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .corpus import CorpusError, compute_stats, load_corpus
from .evaluation import MetricsRow, evaluate
from .lexicon import (
    DEFAULT_CONTENT_POS,
    FilterConfig,
    WordKeySource,
    build_index,
    format_lexicon,
    load_stopwords,
)
from .measures import Measure, MeasureSpec, extract
from .reporting import FIELDS, row_values, write_report_bundle
from .sweep import DEFAULT_FALLOUT_CAP, best_row, run_all_sweeps

_STATS_LABELS = (
    ("Documents", "n_documents"),
    ("Tokens", "n_tokens"),
    ("Sentences", "n_sentences"),
    ("Annotated Sentences", "n_annotated_sentences"),
    ("Distinct Content Words (corpus)", "n_distinct_vn_corpus"),
    ("Distinct Content Words (messages)", "n_distinct_vn_messages"),
)


def _path(text: str) -> str:
    """A path argument; an empty one, say from an unset shell variable,
    is a usage error rather than the current directory or no file."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", required=True, type=_path, help="corpus JSON file")
    common.add_argument("--stopwords", type=_path, help="stopword file, one word per line")
    common.add_argument(
        "--pos",
        action="append",
        metavar="TAG",
        help="content POS tag; repeatable (default: VERB, NOUN); a blank tag is a usage error",
    )
    common.add_argument(
        "--word-key",
        choices=[source.value for source in WordKeySource],
        default=WordKeySource.LEMMA_THEN_SURFACE.value,
        help="word key source: lemma (with surface fallback) or surface",
    )
    common.add_argument(
        "--no-case-fold",
        action="store_true",
        help="keep word keys in their original case",
    )

    measured = argparse.ArgumentParser(add_help=False)
    measured.add_argument(
        "--measure",
        required=True,
        choices=[measure.value for measure in Measure],
        help="extraction measure",
    )
    measured.add_argument(
        "--threshold",
        required=True,
        type=int,
        help="percent (cf/df/tfidf) or minimum document count (idf)",
    )

    parser = argparse.ArgumentParser(
        prog="lexsweep",
        description=(
            "Extract candidate vocabularies from an annotated corpus with "
            "frequency measures and evaluate them against the message lexicon."
        ),
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, parents, summary):
        subparser = subcommands.add_parser(name, parents=parents, help=summary)
        subparser.set_defaults(handler=handler, subparser=subparser)
        return subparser

    add("validate", _cmd_validate, [common], "parse and validate a corpus file")
    stats = add("stats", _cmd_stats, [common], "print corpus statistics")
    stats.add_argument("--csv", action="store_true", help="emit CSV instead of text")

    gold = add("gold", _cmd_gold, [common], "write the gold (message) lexicon")
    gold.add_argument("--out", type=_path, help="output file (default: stdout)")

    extract_cmd = add(
        "extract",
        _cmd_extract,
        [common, measured],
        "extract a lexicon with one measure and threshold",
    )
    extract_cmd.add_argument("--out", type=_path, help="output file (default: stdout)")

    add(
        "evaluate",
        _cmd_evaluate,
        [common, measured],
        "extract at one operating point and score it against the gold lexicon",
    )

    sweep = add(
        "sweep", _cmd_sweep, [common], "sweep all four measures and write CSV/SVG reports"
    )
    sweep.add_argument(
        "--fallout-cap",
        type=float,
        default=DEFAULT_FALLOUT_CAP,
        help="fallout ceiling for the capped operating point (default: 0.10)",
    )
    sweep.add_argument("--out", required=True, type=_path, help="output directory")

    return parser


def _filter_config(args: argparse.Namespace) -> FilterConfig:
    stopwords = frozenset()
    if args.stopwords:
        stopwords = load_stopwords(args.stopwords)
    content_pos = frozenset(args.pos) if args.pos else DEFAULT_CONTENT_POS
    return FilterConfig(
        stopwords=stopwords,
        content_pos=content_pos,
        word_key_source=WordKeySource(args.word_key),
        case_fold=not args.no_case_fold,
    )


def _usage_error(subparser: argparse.ArgumentParser, message: str) -> int:
    print(subparser.format_usage(), end="", file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_words(words, out: str | None) -> None:
    text = format_lexicon(words)
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _print_aligned(names, values) -> None:
    width = max(map(len, names)) + 1
    for name, value in zip(names, values):
        print(f"{name + ':':<{width}} {value}")


def _cmd_validate(args) -> int:
    corpus = load_corpus(args.corpus)
    n_sentences = sum(len(d.sentences) for d in corpus.documents)
    print(f"{args.corpus}: valid ({len(corpus.documents)} documents, {n_sentences} sentences)")
    return 0


def _cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    stats = compute_stats(corpus, _filter_config(args))
    labels, fields = zip(*_STATS_LABELS)
    values = [getattr(stats, field) for field in fields]
    if args.csv:
        print(",".join(fields))
        print(",".join(map(str, values)))
    else:
        _print_aligned(labels, values)
    return 0


def _cmd_gold(args) -> int:
    corpus = load_corpus(args.corpus)
    _write_words(build_index(corpus, _filter_config(args)).gold, args.out)
    return 0


def _extraction_point(args):
    corpus = load_corpus(args.corpus)
    config = _filter_config(args)
    spec = MeasureSpec(kind=Measure(args.measure), threshold=args.threshold)
    return build_index(corpus, config), spec


def _cmd_extract(args) -> int:
    index, spec = _extraction_point(args)
    _write_words(extract(index, spec), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    index, spec = _extraction_point(args)
    row = evaluate(extract(index, spec), index.gold, index.words, spec)
    _print_aligned(FIELDS, row_values(row))
    return 0


def _format_cap(cap: float) -> str:
    """The cap with two decimals when they read back as exactly the cap
    (0.10, 1.00), else its repr (0.125), so no rounded cap is printed."""
    text = f"{cap:.2f}"
    return text if float(text) == cap else repr(cap)


# A measure, then threshold, F and fallout at its best F and best F under the cap.
_SWEEP_ROW = "{:<8} {:>5} {:>7} {:>8}   {:>5} {:>7} {:>8}"


def _cells(row: MetricsRow | None) -> tuple:
    """A selected row's threshold, F and fallout as printed, or dashes for no row."""
    if row is None:
        return ("-", "-", "-")
    return (row.threshold, f"{row.f_measure:.4f}", f"{row.fallout:.4f}")


def _point(row: MetricsRow | None) -> str:
    """A winner as `measure @ threshold (F=…, fallout=…)`, or none."""
    if row is None:
        return "none"
    return "{} @ {} (F={}, fallout={})".format(row.measure.value, *_cells(row))


def _cmd_sweep(args) -> int:
    index = build_index(load_corpus(args.corpus), _filter_config(args))
    results = run_all_sweeps(index, fallout_cap=args.fallout_cap)
    write_report_bundle(results, args.out)

    print(_SWEEP_ROW.format("measure", "thr", "F", "fallout", "thr*", "F*", "fallout*"))
    for result in results:
        cells = (*_cells(result.best_f), *_cells(result.best_f_under_cap))
        print(_SWEEP_ROW.format(result.measure.value, *cells))

    # Rows compared by exact F; a tie goes to the first measure in Measure order.
    best = best_row(result.best_f for result in results)
    capped = best_row(
        result.best_f_under_cap for result in results if result.best_f_under_cap is not None
    )
    print(f"best F: {_point(best)}")
    print(f"best F under fallout cap {_format_cap(args.fallout_cap)}: {_point(capped)}")
    print(f"report written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.handler(args)
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    except UnicodeEncodeError as exc:
        print(f"error: cannot write output as {exc.encoding}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _usage_error(args.subparser, str(exc))
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
