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
    build_gold,
    build_index,
    format_lexicon,
    load_stopwords,
)
from .measures import Measure, MeasureSpec, extract
from .reporting import write_report_bundle
from .sweep import DEFAULT_FALLOUT_CAP, run_all_sweeps

_STATS_LABELS = (
    ("Documents", "n_documents"),
    ("Tokens", "n_tokens"),
    ("Sentences", "n_sentences"),
    ("Annotated Sentences", "n_annotated_sentences"),
    ("Distinct Content Words (corpus)", "n_distinct_vn_corpus"),
    ("Distinct Content Words (messages)", "n_distinct_vn_messages"),
)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", required=True, help="corpus JSON file")
    common.add_argument("--stopwords", help="stopword file, one word per line")
    common.add_argument(
        "--pos",
        action="append",
        metavar="TAG",
        help="content POS tag; repeatable (default: VERB, NOUN)",
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
    subparsers: dict[str, argparse.ArgumentParser] = {}

    subparsers["validate"] = subcommands.add_parser(
        "validate", parents=[common], help="parse and validate a corpus file"
    )
    stats = subcommands.add_parser(
        "stats", parents=[common], help="print corpus statistics"
    )
    stats.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    subparsers["stats"] = stats

    gold = subcommands.add_parser(
        "gold", parents=[common], help="write the gold (message) lexicon"
    )
    gold.add_argument("--out", help="output file (default: stdout)")
    subparsers["gold"] = gold

    extract_cmd = subcommands.add_parser(
        "extract",
        parents=[common, measured],
        help="extract a lexicon with one measure and threshold",
    )
    extract_cmd.add_argument("--out", help="output file (default: stdout)")
    subparsers["extract"] = extract_cmd

    subparsers["evaluate"] = subcommands.add_parser(
        "evaluate",
        parents=[common, measured],
        help="extract at one operating point and score it against the gold lexicon",
    )

    sweep = subcommands.add_parser(
        "sweep",
        parents=[common],
        help="sweep all four measures and write CSV/SVG reports",
    )
    sweep.add_argument(
        "--fallout-cap",
        type=float,
        default=DEFAULT_FALLOUT_CAP,
        help="fallout ceiling for the capped operating point (default: 0.10)",
    )
    sweep.add_argument("--out", required=True, help="output directory")
    subparsers["sweep"] = sweep

    return parser, subparsers


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


def _print_metrics(row: MetricsRow) -> None:
    pairs = [
        ("measure", row.measure.value),
        ("threshold", str(row.threshold)),
        ("precision", f"{row.precision:.4f}"),
        ("recall", f"{row.recall:.4f}"),
        ("f_measure", f"{row.f_measure:.4f}"),
        ("fallout", f"{row.fallout:.4f}"),
        ("extracted_size", str(row.extracted_size)),
        ("true_positives", str(row.true_positives)),
        ("universe_size", str(row.universe_size)),
        ("gold_size", str(row.gold_size)),
    ]
    width = max(len(name) for name, _ in pairs) + 1
    for name, value in pairs:
        print(f"{name + ':':<{width}} {value}")


def _cmd_validate(args, subparser) -> int:
    corpus = load_corpus(args.corpus)
    n_sentences = sum(len(d.sentences) for d in corpus.documents)
    print(f"{args.corpus}: valid ({len(corpus.documents)} documents, {n_sentences} sentences)")
    return 0


def _cmd_stats(args, subparser) -> int:
    corpus = load_corpus(args.corpus)
    stats = compute_stats(corpus, _filter_config(args))
    if args.csv:
        fields = [field for _, field in _STATS_LABELS]
        print(",".join(fields))
        print(",".join(str(getattr(stats, field)) for field in fields))
    else:
        width = max(len(label) for label, _ in _STATS_LABELS) + 1
        for label, field in _STATS_LABELS:
            print(f"{label + ':':<{width}} {getattr(stats, field)}")
    return 0


def _cmd_gold(args, subparser) -> int:
    corpus = load_corpus(args.corpus)
    gold = build_gold(corpus, _filter_config(args))
    _write_words(gold, args.out)
    return 0


def _extraction_point(args, subparser):
    corpus = load_corpus(args.corpus)
    config = _filter_config(args)
    spec = MeasureSpec(kind=Measure(args.measure), threshold=args.threshold)
    index = build_index(corpus, config)
    return corpus, config, index, spec


def _cmd_extract(args, subparser) -> int:
    _, _, index, spec = _extraction_point(args, subparser)
    _write_words(extract(index, spec), args.out)
    return 0


def _cmd_evaluate(args, subparser) -> int:
    corpus, config, index, spec = _extraction_point(args, subparser)
    gold = build_gold(corpus, config)
    row = evaluate(extract(index, spec), gold, index.words, spec)
    _print_metrics(row)
    return 0


def _cmd_sweep(args, subparser) -> int:
    corpus = load_corpus(args.corpus)
    results = run_all_sweeps(corpus, _filter_config(args), fallout_cap=args.fallout_cap)
    write_report_bundle(results, args.out)

    header = f"{'measure':<8} {'thr':>5} {'F':>7} {'fallout':>8}   {'thr*':>5} {'F*':>7} {'fallout*':>8}"
    print(header)
    for result in results:
        best = result.best_f
        line = f"{result.measure.value:<8} {best.threshold:>5} {best.f_measure:>7.4f} {best.fallout:>8.4f}"
        capped = result.best_f_under_cap
        if capped is not None:
            line += f"   {capped.threshold:>5} {capped.f_measure:>7.4f} {capped.fallout:>8.4f}"
        else:
            line += f"   {'-':>5} {'-':>7} {'-':>8}"
        print(line)

    overall = max(results, key=lambda r: r.best_f.f_measure)
    print(
        f"best F: {overall.measure.value} @ {overall.best_f.threshold} "
        f"(F={overall.best_f.f_measure:.4f}, fallout={overall.best_f.fallout:.4f})"
    )
    capped_results = [r for r in results if r.best_f_under_cap is not None]
    if capped_results:
        winner = max(capped_results, key=lambda r: r.best_f_under_cap.f_measure)
        capped = winner.best_f_under_cap
        print(
            f"best F under fallout cap {args.fallout_cap:.2f}: {winner.measure.value} "
            f"@ {capped.threshold} (F={capped.f_measure:.4f}, fallout={capped.fallout:.4f})"
        )
    else:
        print(f"best F under fallout cap {args.fallout_cap:.2f}: none")
    print(f"report written to {args.out}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "gold": _cmd_gold,
    "extract": _cmd_extract,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    subparser = subparsers[args.command]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return _COMMANDS[args.command](args, subparser)
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    except ValueError as exc:
        return _usage_error(subparser, str(exc))
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
