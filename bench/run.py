"""lexsweep benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-1x --seed 163 --seconds 30 --trace 0

Run from the root of a checkout.  It generates the workload's corpus from
the seed, starts one fresh interpreter for the run (plus short-lived ones
that only time set-up), checks every output against an independent
reference model, prints each metric with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  Workloads are closed
loops with one client; runs are meant to be made one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import reference  # noqa: E402

# workload -> corpus scale
WORKLOADS = {"sweep-1x": "1x", "ingest-10x": "10x", "points-1x": "1x"}

# Set-up is timed in fresh interpreters: this many before the run's own
# child and as many after it, so the median of all of them (the run's
# child included) spans the run rather than one moment of it.
SETUP_PROBES_EACH_SIDE = 4
# A run must end within 180 s: children still running this long after the
# run started are killed.  The child stops starting operations sooner.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("corpus.parse_over_json", "lexicon.kept_share"):
        return "ratio"
    if name == "reporting.bytes":
        return "bytes"
    return "count"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # fixed hashing, so set and dict layouts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    # set-up always includes compiling the package, whatever the caller's
    # environment, and nothing is written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _start_child(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float, threading.Timer]:
    """Start a child interpreter; return it, its set-up time and its kill timer.

    The child is killed if it is still running at the perf_counter() deadline.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *argv],
        cwd=ROOT,
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, timer)
        raise BenchError(f"child failed during set-up (exit {proc.returncode})")
    return proc, setup, timer


def _finish(proc: subprocess.Popen, timer: threading.Timer) -> str:
    out, _ = proc.communicate()
    timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    return out


def _setup_only(argv: list[str], deadline: float) -> float:
    proc, setup, timer = _start_child(argv + ["--setup-only"], deadline)
    _finish(proc, timer)
    return setup


def _p95(values: list[float]) -> float:
    # nearest rank
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


# ---------------------------------------------------------------------------
# Output checks: each returns the number of failed operations, the
# outputs to record as digests, and the problems found
# ---------------------------------------------------------------------------

def _bundle_files(out: str) -> dict[str, bytes]:
    directory = Path(out)
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def check_sweep(model, records, recorded) -> tuple[int, dict, list[str]]:
    failed, problems, observed = 0, [], None
    for record in records:
        files = _bundle_files(record["out"])
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}
        found = []
        if "error" in record or record.get("rc") != 0:
            found.append(f"sweep failed: {record.get('error', record.get('rc'))}")
        else:
            found += reference.check_bundle(model, files)
            if observed is None:
                observed = digests
            if digests != observed:
                found.append("bundle differs from the run's first bundle")
            if recorded is not None and digests != recorded:
                found.append("bundle differs from the digests recorded at the seed commit")
        failed += bool(found)
        problems += found
    return failed, observed, problems


def check_ingest(model, records, recorded) -> tuple[int, dict, list[str]]:
    failed, problems, observed = 0, [], None
    for record in records:
        found = []
        if "error" in record or record.get("rc") != 0:
            found.append(f"evaluate failed: {record.get('error', record.get('rc'))}")
        else:
            found += reference.check_evaluate_output(model, *gen.INGEST_POINT, record["stdout"])
            fields = reference.evaluate_fields(record["stdout"])
            observed = observed or fields
            if recorded is not None and fields != recorded:
                found.append("evaluate output differs from the one recorded at the seed commit")
        failed += bool(found)
        problems += found
    return failed, observed, problems


def _point_line(record: dict) -> str:
    return ",".join(
        [record["measure"], str(record["threshold"]), record["words_sha256"]]
        + [str(record[k]) for k in ("extracted_size", "true_positives", "universe_size", "gold_size")]
        + [f"{record[k]:.4f}" for k in ("precision", "recall", "f_measure", "fallout")]
    )


def check_points(model, records, recorded, seed, trace) -> tuple[int, str, list[str]]:
    failed, problems = 0, []
    batch = sum(count for _, count in gen.POINT_MIX)
    copies = 2 if trace else 1  # a traced run makes each batch twice, traced once
    expected = []
    for k in range(len(records) // (batch * copies)):
        expected += gen.sample_points(seed, k, model.max_doc_count) * copies
    if [(r["measure"], r["threshold"]) for r in records] != expected:
        return len(records), "", ["points differ from the seeded sample"]
    for record in records:
        found = [f"point failed: {record['error']}"] if "error" in record else reference.check_point(model, record)
        failed += bool(found)
        problems += found
    first = records[:batch]
    observed = ""
    if not any("error" in r for r in first):
        observed = hashlib.sha256("\n".join(map(_point_line, first)).encode()).hexdigest()
        if recorded is not None and observed != recorded:
            failed = max(failed, 1)
            problems.append("first batch differs from the digest recorded at the seed commit")
    return failed, observed, problems


# ---------------------------------------------------------------------------

def run(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, record: bool = False
) -> tuple[dict, object]:
    """Make one run; return its result object and the observed output digests.

    With record=True the run is not compared with bench/digests.json.
    """
    if not (SRC / "lexsweep" / "__init__.py").is_file():
        raise BenchError(f"no lexsweep sources under {SRC}; run from the root of a checkout")
    scale = WORKLOADS[workload]
    sizes = (gen.TINY_SCALES if tiny else gen.SCALES)[scale]
    recorded = None
    if not (tiny or record) and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(str(seed), {}).get(workload)

    started = perf_counter()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = gen.generate(seed, *sizes)
        corpus_path = work / "corpus.json"
        corpus_path.write_bytes(gen.dumps(corpus))
        model = reference.build_model(corpus, measures=() if workload == "ingest-10x" else reference.MEASURES)
        del corpus

        argv = [
            "--workload", workload, "--corpus", str(corpus_path), "--work", str(work),
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--max-doc-count", str(model.max_doc_count),
        ]
        deadline = started + RUN_DEADLINE_S
        probes = 0 if trace else SETUP_PROBES_EACH_SIDE
        setups = [_setup_only(argv, deadline) for _ in range(probes)]
        proc, setup, timer = _start_child(argv, deadline)
        setups.append(setup)
        out = _finish(proc, timer)
        setups += [_setup_only(argv, deadline) for _ in range(probes)]
        child = json.loads(out.strip().splitlines()[-1])

        records = child["records"]
        if workload == "sweep-1x":
            failed, observed, problems = check_sweep(model, records, recorded)
        elif workload == "ingest-10x":
            failed, observed, problems = check_ingest(model, records, recorded)
        else:
            failed, observed, problems = check_points(model, records, recorded, seed, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)} for name, value in child["layers"].items()
        }
    else:
        latencies = [r["seconds"] for r in records]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(child["op_seconds"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "point_p50_ms": 1000 * statistics.median(latencies),
            "point_p95_ms": 1000 * _p95(latencies),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, observed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the operation loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="tiny corpora, for the smoke test")
    args = parser.parse_args()
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
