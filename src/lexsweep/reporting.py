"""CSV tables and SVG sweep curves for sweep results.

A metrics row has one text form, row_values: the ten FIELDS in order,
ratios to four decimals, for the CSVs and `lexsweep evaluate` alike.
Each renderer returns the text of one file, byte-deterministic: LF line
endings, UTF-8, no timestamps or external references.  A report bundle
is written all or nothing, so an error leaves no partial report behind.
"""

from __future__ import annotations

import errno
import os
import shutil
from contextlib import suppress
from itertools import chain, count, takewhile
from pathlib import Path
from typing import Iterable, Sequence

from .evaluation import MetricsRow
from .sweep import SweepResult

FIELDS = (
    "measure", "threshold", "precision", "recall", "f_measure", "fallout",
    "extracted_size", "true_positives", "universe_size", "gold_size",
)
CSV_HEADER = ",".join(FIELDS)
SUMMARY_HEADER = ",".join(("measure", "selection", *FIELDS[1:]))


def row_values(row: MetricsRow) -> tuple[str, ...]:
    """A row's values as text, in FIELDS order, ratios to four decimals."""
    return (
        row.measure.value, str(row.threshold),
        f"{row.precision:.4f}", f"{row.recall:.4f}", f"{row.f_measure:.4f}", f"{row.fallout:.4f}",
        str(row.extracted_size), str(row.true_positives),
        str(row.universe_size), str(row.gold_size),
    )


def format_csv(result: SweepResult) -> str:
    """One sweep as CSV text, one line per threshold."""
    lines = [CSV_HEADER]
    lines.extend(",".join(row_values(row)) for row in result.rows)
    return "\n".join(lines) + "\n"


def format_summary_csv(results: Sequence[SweepResult]) -> str:
    """Each sweep's selected operating points as CSV text."""
    lines = [SUMMARY_HEADER]
    for result in results:
        for selection in ("best_f", "best_f_under_cap"):
            row = getattr(result, selection)
            if row is not None:
                lines.append(",".join((row.measure.value, selection, *row_values(row)[1:])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_SERIES = (
    ("Precision", "precision", "#1f77b4"),
    ("Recall", "recall", "#2ca02c"),
    ("F-measure", "f_measure", "#d62728"),
    ("Fallout", "fallout", "#ff7f0e"),
)

_WIDTH = 960
_HEIGHT = 560
# The plot area's edges, in pixels from the image's left and top.
_LEFT = 70
_RIGHT = _WIDTH - 190
_TOP = 60
_BOTTOM = _HEIGHT - 70


def _x_ticks(t_min: int, t_max: int) -> list[int]:
    span = t_max - t_min
    # 1, 2, 5, then 10, 20, 25, 50 times each power of ten: 100, 200, 250, 500, 1000, ...
    steps = chain((1, 2, 5), (m * 10**k for k in count() for m in (10, 20, 25, 50)))
    step = next(s for s in steps if span / s <= 12)
    ticks = [t_min]
    ticks.extend(range((t_min // step + 1) * step, t_max + 1, step))
    if ticks[-1] != t_max:
        ticks.append(t_max)
    return ticks


def _line(x1, y1, x2, y2, stroke: str, width: str, extra: str = "") -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"{extra}/>'
    )


def _text(x, y, anchor: str, size: int, body) -> str:
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
        f'font-size="{size}" font-family="sans-serif">{body}</text>'
    )


def render_svg(result: SweepResult) -> str:
    """Render a sweep as the text of a self-contained SVG line chart.

    X axis is the threshold, Y axis is [0, 1]; one polyline per metric
    plus a dashed vertical marker at the best-F threshold.  A single-row
    sweep is drawn as one dot per metric in the middle of the axis.
    """
    if not result.rows:
        raise ValueError("need at least 1 row to plot")

    plot_width = _RIGHT - _LEFT
    plot_height = _BOTTOM - _TOP
    center = f"{(_LEFT + _RIGHT) / 2:.1f}"

    t_min = result.rows[0].threshold
    t_max = result.rows[-1].threshold

    def x_px(threshold: int) -> float:
        if t_min == t_max:
            return _LEFT + plot_width / 2
        return _LEFT + (threshold - t_min) / (t_max - t_min) * plot_width

    def y_px(value: float) -> float:
        return _BOTTOM - value * plot_height

    unit = "%" if result.measure.is_percent else " docs"
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        _text(center, 32, "middle", 20, f"{result.measure.label} sweep"),
    ]

    # Horizontal grid and y labels at 0.0 .. 1.0.
    for i in range(11):
        value = i / 10
        y = y_px(value)
        lines.append(_line(_LEFT, f"{y:.2f}", _RIGHT, f"{y:.2f}", "#dddddd", "1"))
        if i % 2 == 0:
            lines.append(_text(_LEFT - 8, f"{y + 4:.2f}", "end", 12, f"{value:.1f}"))

    # Axes.
    lines.append(_line(_LEFT, _BOTTOM, _RIGHT, _BOTTOM, "#000000", "1.5"))
    lines.append(_line(_LEFT, _TOP, _LEFT, _BOTTOM, "#000000", "1.5"))
    for tick in _x_ticks(t_min, t_max):
        x = f"{x_px(tick):.2f}"
        lines.append(_line(x, _BOTTOM, x, _BOTTOM + 5, "#000000", "1"))
        lines.append(_text(x, _BOTTOM + 20, "middle", 12, tick))
    axis_label = f"threshold ({result.measure.value}{unit})"
    lines.append(_text(center, _HEIGHT - 22, "middle", 14, axis_label))

    # Best-F marker.
    best = result.best_f.threshold
    x = f"{x_px(best):.2f}"
    lines.append(_line(x, _TOP, x, _BOTTOM, "#555555", "1", ' stroke-dasharray="5,4"'))
    lines.append(_text(f"{x_px(best) + 4:.2f}", _TOP + 14, "start", 12, f"best F @ {best}"))

    # One polyline per metric, plus legend.
    legend_x = _RIGHT + 24
    legend_y = _TOP + 10
    for i, (label, attr, color) in enumerate(_SERIES):
        points = " ".join(
            f"{x_px(row.threshold):.2f},{y_px(getattr(row, attr)):.2f}"
            for row in result.rows
        )
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        if t_min == t_max:
            # a one-point polyline draws nothing, so mark the point itself
            x, y = points.split(",")
            lines.append(f'<circle cx="{x}" cy="{y}" r="4" fill="{color}"/>')
        ly = legend_y + i * 22
        lines.append(_line(legend_x, ly, legend_x + 24, ly, color, "2"))
        lines.append(_text(legend_x + 30, ly + 4, "start", 13, label))

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report bundles
# ---------------------------------------------------------------------------

def _stage(files: dict[str, str], staging: Path, out_dir: Path) -> None:
    """Write the files into a new staging directory, removed again if a
    write fails.  An OSError names out_dir, the path the caller gave, not
    the hidden staging directory."""
    try:
        staging.mkdir()
        try:
            for name, text in files.items():
                (staging / name).write_bytes(text.encode("utf-8"))
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(out_dir)) from exc


def write_report_bundle(results: Iterable[SweepResult], out_dir) -> None:
    """Write per-measure CSV and SVG files plus summary.csv into a directory.

    All or nothing: every file is rendered, then written into a hidden
    staging directory.  A new out_dir is that directory, made beside it
    and renamed.  An existing one holds it, so each move stays on its
    filesystem, and gets the nine files one by one, after a check that no
    name is taken by a directory or other non-regular file; its other
    files are left alone.  A file or dangling symlink out_dir raises
    NotADirectoryError naming it, before anything is written.  A render
    error, a write error or a blocked name leaves out_dir as it was, and
    the staging directory and any parents made for it are removed.
    """
    results = list(results)
    files = {}
    for result in results:
        files[f"{result.measure.value}.csv"] = format_csv(result)
        files[f"{result.measure.value}.svg"] = render_svg(result)
    files["summary.csv"] = format_summary_csv(results)
    out_dir = Path(out_dir)
    if os.path.lexists(out_dir) and not out_dir.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out_dir))
    missing = list(takewhile(lambda parent: not parent.exists(), out_dir.parents))
    existing = out_dir.is_dir()
    # not tempfile.mkdtemp: its mode 0700 would become the report's on rename
    home = out_dir if existing else out_dir.parent
    staging = home / f".{out_dir.name}.{os.urandom(8).hex()}.tmp"
    try:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        _stage(files, staging, out_dir)
        try:
            if not existing:
                staging.rename(out_dir)
                return
            for name in files:
                target = out_dir / name
                if target.exists() and not target.is_file():
                    raise FileExistsError(errno.EEXIST, "not a regular file", str(target))
            for name in files:
                os.replace(staging / name, out_dir / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    finally:
        if not out_dir.exists():
            for parent in missing:  # innermost first
                with suppress(OSError):
                    parent.rmdir()
