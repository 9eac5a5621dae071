"""CSV tables and SVG sweep curves for sweep results.

Each renderer returns the text of one file.  Output is byte-deterministic:
fixed 4-decimal formatting, LF line endings, UTF-8, and no timestamps or
external references, so identical sweeps serialize identically.  A report
bundle is written all or nothing, so an error leaves no partial report
behind.
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

CSV_HEADER = (
    "measure,threshold,precision,recall,f_measure,fallout,"
    "extracted_size,true_positives,universe_size,gold_size"
)

SUMMARY_HEADER = "measure,selection," + CSV_HEADER.split(",", 1)[1]


def _format_row(row: MetricsRow) -> str:
    return (
        f"{row.measure.value},{row.threshold},"
        f"{row.precision:.4f},{row.recall:.4f},{row.f_measure:.4f},{row.fallout:.4f},"
        f"{row.extracted_size},{row.true_positives},{row.universe_size},{row.gold_size}"
    )


def format_csv(result: SweepResult) -> str:
    """One sweep as CSV text, one line per threshold."""
    lines = [CSV_HEADER]
    lines.extend(_format_row(row) for row in result.rows)
    return "\n".join(lines) + "\n"


def format_summary_csv(results: Sequence[SweepResult]) -> str:
    """Each sweep's selected operating points as CSV text."""
    lines = [SUMMARY_HEADER]
    for result in results:
        lines.append(f"{result.measure.value},best_f," + _format_row(result.best_f).split(",", 1)[1])
        if result.best_f_under_cap is not None:
            lines.append(
                f"{result.measure.value},best_f_under_cap,"
                + _format_row(result.best_f_under_cap).split(",", 1)[1]
            )
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
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 190
_MARGIN_TOP = 60
_MARGIN_BOTTOM = 70


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


def render_svg(result: SweepResult) -> str:
    """Render a sweep as the text of a self-contained SVG line chart.

    X axis is the threshold, Y axis is [0, 1]; one polyline per metric
    plus a dashed vertical marker at the best-F threshold.  A single-row
    sweep is drawn as one dot per metric in the middle of the axis.
    """
    if not result.rows:
        raise ValueError("need at least 1 row to plot")

    plot_left = _MARGIN_LEFT
    plot_right = _WIDTH - _MARGIN_RIGHT
    plot_top = _MARGIN_TOP
    plot_bottom = _HEIGHT - _MARGIN_BOTTOM
    plot_width = plot_right - plot_left
    plot_height = plot_bottom - plot_top

    t_min = result.rows[0].threshold
    t_max = result.rows[-1].threshold

    def x_px(threshold: int) -> float:
        if t_min == t_max:
            return plot_left + plot_width / 2
        return plot_left + (threshold - t_min) / (t_max - t_min) * plot_width

    def y_px(value: float) -> float:
        return plot_bottom - value * plot_height

    unit = "%" if result.measure.is_percent else " docs"
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{(plot_left + plot_right) / 2:.1f}" y="32" text-anchor="middle" '
        f'font-size="20" font-family="sans-serif">{result.measure.label} sweep</text>',
    ]

    # Horizontal grid and y labels at 0.0 .. 1.0.
    for i in range(11):
        value = i / 10
        y = y_px(value)
        lines.append(
            f'<line x1="{plot_left}" y1="{y:.2f}" x2="{plot_right}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        if i % 2 == 0:
            lines.append(
                f'<text x="{plot_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif">{value:.1f}</text>'
            )

    # Axes.
    lines.append(
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    lines.append(
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" y2="{plot_bottom}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    for tick in _x_ticks(t_min, t_max):
        x = x_px(tick)
        lines.append(
            f'<line x1="{x:.2f}" y1="{plot_bottom}" x2="{x:.2f}" y2="{plot_bottom + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{plot_bottom + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{tick}</text>'
        )
    lines.append(
        f'<text x="{(plot_left + plot_right) / 2:.1f}" y="{_HEIGHT - 22}" '
        f'text-anchor="middle" font-size="14" font-family="sans-serif">'
        f'threshold ({result.measure.value}{unit})</text>'
    )

    # Best-F marker.
    best_x = x_px(result.best_f.threshold)
    lines.append(
        f'<line x1="{best_x:.2f}" y1="{plot_top}" x2="{best_x:.2f}" y2="{plot_bottom}" '
        f'stroke="#555555" stroke-width="1" stroke-dasharray="5,4"/>'
    )
    lines.append(
        f'<text x="{best_x + 4:.2f}" y="{plot_top + 14}" text-anchor="start" '
        f'font-size="12" font-family="sans-serif">best F @ {result.best_f.threshold}</text>'
    )

    # One polyline per metric, plus legend.
    legend_x = plot_right + 24
    legend_y = plot_top + 10
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
        lines.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{legend_x + 30}" y="{ly + 4}" text-anchor="start" '
            f'font-size="13" font-family="sans-serif">{label}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report bundles
# ---------------------------------------------------------------------------

def write_report_bundle(results: Iterable[SweepResult], out_dir) -> None:
    """Write per-measure CSV and SVG files plus summary.csv into a directory.

    All or nothing: every file is rendered, then written into a new
    directory beside out_dir.  A new out_dir is that directory, renamed.
    Into an existing one the nine files are moved one by one, after a
    check that none of their names is taken by a directory or other
    non-regular file; its other files are left alone.  A render error, a
    write error or a blocked name leaves out_dir as it was, and the
    temporary directory, and any missing parents of out_dir made for it,
    are removed.
    """
    results = list(results)
    files = {}
    for result in results:
        files[f"{result.measure.value}.csv"] = format_csv(result)
        files[f"{result.measure.value}.svg"] = render_svg(result)
    files["summary.csv"] = format_summary_csv(results)
    out_dir = Path(out_dir)
    missing = list(takewhile(lambda parent: not parent.exists(), out_dir.parents))
    # not tempfile.mkdtemp: its mode 0700 would become the report's on rename
    staging = out_dir.parent / f".{out_dir.name}.{os.urandom(8).hex()}.tmp"
    try:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        staging.mkdir()
        try:
            for name, text in files.items():
                (staging / name).write_bytes(text.encode("utf-8"))
            if not out_dir.is_dir():
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
