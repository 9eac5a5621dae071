"""One benchmark run inside a fresh interpreter, started by run.py.

The child imports lexsweep from the checkout's src/, does the workload's
set-up, prints "ready" (run.py times set-up up to that line), then runs
the workload as a closed loop with one client: the next operation starts
only when the previous one has returned.  It prints one JSON line with
every operation's raw output and timing; run.py checks the outputs.

With --trace 1 it first probes the corpus and lexicon layers on the same
corpus, then alternates an untraced and a traced operation, so the
per-layer spans and the tracing overhead come from the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from gen import INGEST_POINT, sample_points
from reference import MEASURES, words_digest

# An operation loop runs at least this many operations, so wall_s is a
# median, and starts no new one after MAX_LOOP_S so a run ends in time.
MIN_OPS = 3
MAX_LOOP_S = 100.0


class Workload:
    """Set-up and one operation of a workload; op() returns its records."""

    def __init__(self, args: argparse.Namespace) -> None:
        import lexsweep.cli

        self.args = args
        # looked up at each call, so a traced run sees the wrapped main
        self.cli = lexsweep.cli

    def op(self, k: int, tag: str) -> tuple[float, list[dict]]:
        raise NotImplementedError


class SweepWorkload(Workload):
    def op(self, k, tag):
        out = Path(self.args.work) / f"bundle-{k}-{tag}"
        argv = ["sweep", "--corpus", self.args.corpus, "--out", str(out)]
        return _cli_op(self.cli, argv, {"out": str(out)})


class IngestWorkload(Workload):
    def op(self, k, tag):
        measure, threshold = INGEST_POINT
        argv = ["evaluate", "--corpus", self.args.corpus, "--measure", measure, "--threshold", str(threshold)]
        return _cli_op(self.cli, argv, {})


def _cli_op(cli, argv, record):
    stdout = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            record["rc"] = cli.main(argv)
    except Exception as exc:  # a failed operation is counted, not fatal
        record["error"] = repr(exc)
    seconds = perf_counter() - start
    record["stdout"] = stdout.getvalue()
    record["seconds"] = seconds
    return seconds, [record]


class PointsWorkload(Workload):
    """README's Library pattern: load and index once, then single points."""

    def __init__(self, args):
        super().__init__(args)
        import lexsweep

        self.lexsweep = lexsweep
        corpus = lexsweep.load_corpus(args.corpus)
        config = lexsweep.FilterConfig()
        self.index = lexsweep.build_index(corpus, config)
        self.gold = lexsweep.build_gold(corpus, config)
        self.universe = self.index.words

    def op(self, k, tag):
        lx = self.lexsweep
        records = []
        busy = 0.0
        for measure, threshold in sample_points(self.args.seed, k, self.args.max_doc_count):
            record = {"measure": measure, "threshold": threshold}
            start = perf_counter()
            try:
                spec = lx.MeasureSpec(lx.Measure(measure), threshold)
                words = lx.extract(self.index, spec)
                row = lx.evaluate(words, self.gold, self.universe, spec)
            except Exception as exc:  # a failed point is counted, not fatal
                record["error"] = repr(exc)
            record["seconds"] = perf_counter() - start
            busy += record["seconds"]
            if "error" not in record:
                record.update(
                    words_sha256=words_digest(sorted(words)),
                    **{
                        name: getattr(row, name)
                        for name in (
                            "extracted_size", "true_positives", "universe_size", "gold_size",
                            "precision", "recall", "f_measure", "fallout",
                        )
                    },
                )
            records.append(record)
        return busy, records


WORKLOADS = {"sweep-1x": SweepWorkload, "ingest-10x": IngestWorkload, "points-1x": PointsWorkload}


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------

def probe_layers(tracer, corpus_path: str) -> dict[str, float]:
    """corpus.* and lexicon.* metrics: each layer called once on the workload's corpus."""
    import lexsweep.corpus
    import lexsweep.lexicon

    raw = Path(corpus_path).read_bytes()
    start = perf_counter()
    json.loads(raw)
    json_loads_s = perf_counter() - start
    gc.collect()

    tracemalloc.start()
    tracer.original("corpus.parse_corpus")(raw)
    parse_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    gc.collect()

    config = lexsweep.lexicon.FilterConfig()
    corpus = lexsweep.corpus.parse_corpus(raw)
    stats = lexsweep.corpus.compute_stats(corpus, config)
    index = lexsweep.lexicon.build_index(corpus, config)
    gold = lexsweep.lexicon.build_gold(corpus, config)
    universe = lexsweep.lexicon.build_universe(corpus, config)
    content_tokens = sum(index.collection_freq.values())

    top = {s.name: s.duration for s in tracer.take() if s.parent is None}
    parse_s = top["corpus.parse_corpus"]
    return {
        "corpus.json_loads_s": json_loads_s,
        "corpus.parse_corpus_s": parse_s,
        "corpus.parse_over_json": parse_s / json_loads_s,
        "corpus.parse_peak_mb": parse_peak / 2**20,
        "corpus.compute_stats_s": top["corpus.compute_stats"],
        "corpus.tokens": stats.n_tokens,
        "corpus.json_mb": len(raw) / 2**20,
        "lexicon.build_index_s": top["lexicon.build_index"],
        "lexicon.build_gold_s": top["lexicon.build_gold"],
        "lexicon.build_universe_s": top["lexicon.build_universe"],
        "lexicon.content_tokens": content_tokens,
        "lexicon.kept_share": content_tokens / stats.n_tokens,
        "lexicon.universe_size": len(universe),
        "lexicon.gold_size": len(gold),
    }


def op_layers(spans) -> dict[str, float]:
    """measures/evaluation/sweep/reporting/cli metrics from one traced operation."""
    # times start as 0.0 and counts as 0; a layer the operation never calls reads 0
    layers: dict[str, float] = {}
    for family, zero in (("measures.extract_s", 0.0), ("measures.extract_calls", 0),
                         ("measures.extracted_words", 0), ("evaluation.evaluate_s", 0.0)):
        layers.update((f"{family}.{m}", zero) for m in MEASURES)
    layers.update({"sweep.run_all_sweeps_s": 0.0, "sweep.self_s": 0.0})
    layers.update((f"sweep.rows.{m}", 0) for m in MEASURES)
    layers.update({"reporting.write_report_bundle_s": 0.0, "reporting.bytes": 0,
                   "cli.main_s": 0.0, "cli.self_s": 0.0})
    for span in spans:
        if span.name == "measures.extract":
            layers[f"measures.extract_s.{span.measure}"] += span.duration
            layers[f"measures.extract_calls.{span.measure}"] += 1
            layers[f"measures.extracted_words.{span.measure}"] += span.counts["words"]
        elif span.name == "evaluation.evaluate":
            layers[f"evaluation.evaluate_s.{span.measure}"] += span.duration
        elif span.name == "sweep.run_all_sweeps":
            layers["sweep.run_all_sweeps_s"] += span.duration
            layers["sweep.self_s"] += span.self_time
            for key, rows in span.counts.items():
                layers[f"sweep.{key}"] += rows
        elif span.name == "reporting.write_report_bundle":
            layers["reporting.write_report_bundle_s"] += span.duration
            layers["reporting.bytes"] += span.counts["bytes"]
        elif span.name == "cli.main":
            layers["cli.main_s"] += span.duration
            layers["cli.self_s"] += span.self_time
    return layers


def _median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    # times are medians over traced operations; counts must repeat, so
    # the first operation's are reported
    return {
        name: statistics.median(op[name] for op in per_op) if isinstance(value, float) else value
        for name, value in per_op[0].items()
    }


def traced_loop(workload: Workload, args, records: list[dict], op_seconds: list[float]) -> dict[str, float]:
    """Probe the layers, then run pairs of an untraced and a traced operation."""
    from spans import Tracer

    start = perf_counter()
    tracer = Tracer()
    tracer.install()
    layers = probe_layers(tracer, args.corpus)
    tracer.uninstall()
    gc.collect()
    per_op, overhead = [], []
    k = 0
    # Pairs alternate which of the two goes first, because a second
    # operation on the same input tends to run faster than the first.
    while k < 2 or (perf_counter() - start < args.seconds and perf_counter() - start < MAX_LOOP_S):
        for tag in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            if tag == "traced":
                tracer.install()
            try:
                seconds, op_records = workload.op(k, tag)
            finally:
                tracer.uninstall()
            if tag == "traced":
                traced = seconds
                per_op.append(op_layers(tracer.take()))
            else:
                plain = seconds
                op_seconds.append(seconds)
            records += op_records
        overhead.append(traced - plain)
        k += 1
    layers.update(_median_layers(per_op))
    layers["trace.overhead_s"] = statistics.median(overhead)
    return layers


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-doc-count", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records: list[dict] = []
    op_seconds: list[float] = []
    result: dict = {"records": records, "op_seconds": op_seconds}
    if args.trace:
        result["layers"] = traced_loop(workload, args, records, op_seconds)
    else:
        start = perf_counter()
        k = 0
        while (k < MIN_OPS or perf_counter() - start < args.seconds) and perf_counter() - start < MAX_LOOP_S:
            seconds, op_records = workload.op(k, "plain")
            records += op_records
            op_seconds.append(seconds)
            k += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
