import csv
import errno
import hashlib
import io
import os
import xml.etree.ElementTree as ET

import pytest

from lexsweep import Measure, build_index, run_all_sweeps, write_report_bundle
from lexsweep import reporting
from lexsweep.evaluation import MetricsRow
from lexsweep.reporting import CSV_HEADER, _x_ticks, format_csv, format_summary_csv, render_svg
from lexsweep.sweep import SweepResult

BUNDLE_NAMES = [
    "cf.csv",
    "cf.svg",
    "df.csv",
    "df.svg",
    "idf.csv",
    "idf.svg",
    "summary.csv",
    "tfidf.csv",
    "tfidf.svg",
]


@pytest.fixture(scope="module")
def all_sweeps(fixture_corpus, config):
    return run_all_sweeps(build_index(fixture_corpus, config))


@pytest.fixture(scope="module")
def cf_sweep(all_sweeps):
    return next(r for r in all_sweeps if r.measure is Measure.COLLECTION_FREQ)


def csv_bytes(result) -> bytes:
    return format_csv(result).encode("utf-8")


def make_row(threshold: int, value: float = 0.5) -> MetricsRow:
    return MetricsRow(
        measure=Measure.COLLECTION_FREQ,
        threshold=threshold,
        precision=value,
        recall=value,
        f_measure=value,
        fallout=0.2,
        extracted_size=2,
        true_positives=1,
        universe_size=4,
        gold_size=2,
    )


class TestCsv:
    def test_header_and_shape(self, cf_sweep):
        text = csv_bytes(cf_sweep).decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "measure,threshold,precision,recall,f_measure,fallout,"
            "extracted_size,true_positives,universe_size,gold_size"
        )
        assert len(lines) == 101
        assert text.endswith("\n")
        assert "\r" not in text

    def test_row_formatting(self, cf_sweep):
        lines = csv_bytes(cf_sweep).decode("utf-8").splitlines()
        # threshold 51 extracts 3 of 4 words, 2 of them gold
        assert lines[51] == "cf,51,0.6667,1.0000,0.8000,0.5000,3,2,4,2"

    def test_byte_determinism(self, cf_sweep):
        digests = {hashlib.sha256(csv_bytes(cf_sweep)).hexdigest() for _ in range(3)}
        assert len(digests) == 1

    def test_round_trip(self, cf_sweep):
        records = list(csv.DictReader(io.StringIO(format_csv(cf_sweep), newline="")))
        assert len(records) == len(cf_sweep.rows)
        for got, want in zip(records, cf_sweep.rows):
            assert Measure(got["measure"]) is want.measure
            assert int(got["threshold"]) == want.threshold
            for field in ("precision", "recall", "f_measure", "fallout"):
                assert float(got[field]) == pytest.approx(getattr(want, field), abs=5e-5)
            for field in ("extracted_size", "true_positives", "universe_size", "gold_size"):
                assert int(got[field]) == getattr(want, field)

    def test_summary(self, all_sweeps):
        lines = format_summary_csv(all_sweeps).splitlines()
        assert lines[0] == (
            "measure,selection,threshold,precision,recall,f_measure,fallout,"
            "extracted_size,true_positives,universe_size,gold_size"
        )
        assert lines[1].startswith("cf,best_f,26,")
        assert lines[2].startswith("cf,best_f_under_cap,26,")
        assert any(line.startswith("idf,best_f,1,") for line in lines)
        assert any(line.startswith("idf,best_f_under_cap,2,") for line in lines)
        # df and tfidf rows all exceed the default fallout cap
        assert sum(line.count("best_f_under_cap") for line in lines) == 2


class TestSvg:
    def test_well_formed_and_self_contained(self, cf_sweep):
        text = render_svg(cf_sweep)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert "href" not in text
        assert text.count("http") == 1  # the xmlns declaration only

    def test_four_series_with_legend(self, cf_sweep):
        text = render_svg(cf_sweep)
        assert text.count("<polyline") == 4
        for label in ("Precision", "Recall", "F-measure", "Fallout"):
            assert label in text
        for color in ("#1f77b4", "#2ca02c", "#d62728", "#ff7f0e"):
            assert text.count(color) == 2  # polyline stroke + legend swatch

    def test_point_count_matches_rows(self, cf_sweep):
        root = ET.fromstring(render_svg(cf_sweep))
        ns = "{http://www.w3.org/2000/svg}"
        for polyline in root.iter(f"{ns}polyline"):
            assert len(polyline.get("points").split()) == len(cf_sweep.rows)

    def test_best_f_marker(self, cf_sweep):
        text = render_svg(cf_sweep)
        assert 'stroke-dasharray="5,4"' in text
        assert "best F @ 26" in text

    def test_title_and_axis_labels(self, cf_sweep, all_sweeps):
        assert "Collection Frequency sweep" in render_svg(cf_sweep)
        assert "threshold (cf%)" in render_svg(cf_sweep)
        idf_sweep = all_sweeps[-1]
        assert "threshold (idf docs)" in render_svg(idf_sweep)

    def test_two_row_sweep_renders(self, all_sweeps):
        idf_sweep = all_sweeps[-1]
        root = ET.fromstring(render_svg(idf_sweep))
        ns = "{http://www.w3.org/2000/svg}"
        for polyline in root.iter(f"{ns}polyline"):
            assert len(polyline.get("points").split()) == 2

    def test_byte_determinism(self, cf_sweep):
        digests = {
            hashlib.sha256(render_svg(cf_sweep).encode("utf-8")).hexdigest()
            for _ in range(3)
        }
        assert len(digests) == 1

    def test_constant_series_stays_flat(self):
        rows = tuple(make_row(t) for t in (1, 2, 3))
        result = SweepResult(
            measure=Measure.COLLECTION_FREQ,
            rows=rows,
            best_f=rows[0],
            best_f_under_cap=None,
            fallout_cap=0.1,
        )
        root = ET.fromstring(render_svg(result))
        ns = "{http://www.w3.org/2000/svg}"
        polylines = list(root.iter(f"{ns}polyline"))
        assert polylines
        for polyline in polylines:
            ys = {pair.split(",")[1] for pair in polyline.get("points").split()}
            assert len(ys) == 1

    def test_empty_sweep_is_refused(self):
        row = make_row(1)
        result = SweepResult(
            measure=Measure.COLLECTION_FREQ,
            rows=(),
            best_f=row,
            best_f_under_cap=None,
            fallout_cap=0.1,
        )
        with pytest.raises(ValueError, match="^need at least 1 row to plot$"):
            render_svg(result)

    def test_single_row_renders(self):
        row = make_row(3)
        result = SweepResult(
            measure=Measure.INTERDOC_FREQ,
            rows=(row,),
            best_f=row,
            best_f_under_cap=None,
            fallout_cap=0.1,
        )
        text = render_svg(result)
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        centre = f"{70 + (960 - 70 - 190) / 2:.2f}"
        polylines = list(root.iter(f"{ns}polyline"))
        circles = list(root.iter(f"{ns}circle"))
        assert len(polylines) == len(circles) == 4
        for polyline, circle in zip(polylines, circles):
            assert polyline.get("points") == f"{circle.get('cx')},{circle.get('cy')}"
            assert circle.get("cx") == centre
        assert "best F @ 3" in text
        assert ">3</text>" in text  # the one x tick


class TestXTicks:
    def test_any_span_up_to_100k(self):
        for t_max in range(1, 100_001):
            ticks = _x_ticks(1, t_max)
            assert ticks[0] == 1 and ticks[-1] == t_max and len(ticks) <= 15
            assert ticks == sorted(set(ticks))

    def test_spans_up_to_1200_keep_their_ticks(self):
        # the rule before the step sequence was continued past 100
        for t_min in (1, 7):
            for span in range(1201):
                t_max = t_min + span
                step = next(s for s in (1, 2, 5, 10, 20, 25, 50, 100) if span / s <= 12)
                ticks = [t_min, *(t for t in range(t_min + 1, t_max + 1) if t % step == 0)]
                if ticks[-1] != t_max:
                    ticks.append(t_max)
                assert _x_ticks(t_min, t_max) == ticks

    def test_wide_span_steps_by_decades(self):
        assert _x_ticks(1, 1202) == [1, 200, 400, 600, 800, 1000, 1200, 1202]
        assert _x_ticks(1, 6001) == [1, *range(500, 6001, 500), 6001]


class TestBundle:
    def test_writes_all_files(self, all_sweeps, tmp_path):
        out_dir = tmp_path / "report"
        assert write_report_bundle(all_sweeps, out_dir) is None
        assert sorted(p.name for p in out_dir.iterdir()) == BUNDLE_NAMES
        for path in out_dir.iterdir():
            assert path.stat().st_size > 0

    def test_bundle_deterministic(self, all_sweeps, tmp_path):
        write_report_bundle(all_sweeps, tmp_path / "a")
        write_report_bundle(all_sweeps, tmp_path / "b")
        for name in BUNDLE_NAMES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_render_error_writes_nothing(self, all_sweeps, tmp_path, monkeypatch):
        def failing_render(result):
            if result.measure is Measure.INTERDOC_FREQ:
                raise ValueError("cannot plot")
            return render_svg(result)

        monkeypatch.setattr(reporting, "render_svg", failing_render)
        out_dir = tmp_path / "report"
        with pytest.raises(ValueError, match="cannot plot"):
            write_report_bundle(all_sweeps, out_dir)
        assert not out_dir.exists()

    def test_existing_out_dir_keeps_other_files(self, all_sweeps, tmp_path):
        out_dir = tmp_path / "report"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("keep me", encoding="utf-8")
        (out_dir / "cf.csv").write_text("stale", encoding="utf-8")
        write_report_bundle(all_sweeps, out_dir)
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(BUNDLE_NAMES + ["notes.txt"])
        assert (out_dir / "notes.txt").read_text(encoding="utf-8") == "keep me"
        assert (out_dir / "cf.csv").read_text(encoding="utf-8").startswith(CSV_HEADER)
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_existing_out_dir_is_staged_inside_it(self, all_sweeps, tmp_path, monkeypatch):
        # so each move stays on out_dir's filesystem, a mount point included
        replace, sources = os.replace, []

        def recording_replace(source, target):
            sources.append(reporting.Path(source))
            return replace(source, target)

        out_dir = tmp_path / "report"
        out_dir.mkdir()
        monkeypatch.setattr(reporting.os, "replace", recording_replace)
        write_report_bundle(all_sweeps, out_dir)
        assert len(sources) == len(BUNDLE_NAMES)
        assert all(source.parent.parent == out_dir for source in sources)
        assert sorted(p.name for p in out_dir.iterdir()) == BUNDLE_NAMES

    def test_existing_out_dir_needs_no_room_in_its_parent(self, all_sweeps, tmp_path, monkeypatch):
        mkdir = reporting.Path.mkdir

        def refusing_mkdir(path, *args, **kwargs):
            if path.parent == tmp_path and path.name.startswith(".report."):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return mkdir(path, *args, **kwargs)

        out_dir = tmp_path / "report"
        out_dir.mkdir()
        monkeypatch.setattr(reporting.Path, "mkdir", refusing_mkdir)
        write_report_bundle(all_sweeps, out_dir)
        assert sorted(p.name for p in out_dir.iterdir()) == BUNDLE_NAMES
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_write_error_leaves_nothing(self, all_sweeps, tmp_path, monkeypatch):
        write_bytes = reporting.Path.write_bytes
        written = []

        def failing_write(path, data):
            if len(written) == 4:
                raise OSError("disk full")
            written.append(path)
            return write_bytes(path, data)

        monkeypatch.setattr(reporting.Path, "write_bytes", failing_write)
        with pytest.raises(OSError, match="disk full"):
            write_report_bundle(all_sweeps, tmp_path / "report")
        assert len(written) == 4
        assert list(tmp_path.iterdir()) == []


    def test_write_error_removes_the_parents_it_made(self, all_sweeps, tmp_path, monkeypatch):
        def failing_write(path, data):
            raise OSError("disk full")

        (tmp_path / "a").mkdir()
        monkeypatch.setattr(reporting.Path, "write_bytes", failing_write)
        with pytest.raises(OSError, match="disk full"):
            write_report_bundle(all_sweeps, tmp_path / "a" / "b" / "c" / "report")
        assert [p.name for p in tmp_path.iterdir()] == ["a"]
        assert list((tmp_path / "a").iterdir()) == []

    def test_staging_error_names_the_out_dir(self, all_sweeps, tmp_path, monkeypatch):
        mkdir = reporting.Path.mkdir

        def failing_mkdir(path, *args, **kwargs):
            if path.name.startswith(".report."):
                raise FileNotFoundError(errno.ENOENT, "No such file or directory", str(path))
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(reporting.Path, "mkdir", failing_mkdir)
        out_dir = tmp_path / "report"
        with pytest.raises(FileNotFoundError) as raised:
            write_report_bundle(all_sweeps, out_dir)
        assert raised.value.errno == errno.ENOENT
        assert raised.value.filename == str(out_dir)
        assert list(tmp_path.iterdir()) == []

    def test_staged_write_error_names_the_out_dir(self, all_sweeps, tmp_path, monkeypatch):
        def failing_write(path, data):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(reporting.Path, "write_bytes", failing_write)
        out_dir = tmp_path / "report"
        with pytest.raises(OSError) as raised:
            write_report_bundle(all_sweeps, out_dir)
        assert raised.value.errno == errno.ENOSPC
        assert raised.value.filename == str(out_dir)
        assert list(tmp_path.iterdir()) == []

    def test_blocked_name_is_named(self, all_sweeps, tmp_path):
        out_dir = tmp_path / "report"
        (out_dir / "df.csv").mkdir(parents=True)
        with pytest.raises(FileExistsError) as raised:
            write_report_bundle(all_sweeps, out_dir)
        assert raised.value.filename == str(out_dir / "df.csv")

    @pytest.mark.parametrize("kind", ["file", "dangling-symlink"])
    def test_non_directory_out_dir_is_named_and_kept(self, kind, all_sweeps, tmp_path):
        out_dir = tmp_path / "report"
        if kind == "file":
            out_dir.write_text("old", encoding="utf-8")
        else:
            out_dir.symlink_to(tmp_path / "nowhere")
        with pytest.raises(NotADirectoryError) as raised:
            write_report_bundle(all_sweeps, out_dir)
        assert raised.value.errno == errno.ENOTDIR
        assert raised.value.filename == str(out_dir)
        assert list(tmp_path.iterdir()) == [out_dir]
        if kind == "file":
            assert out_dir.read_text(encoding="utf-8") == "old"
        else:
            assert out_dir.readlink() == tmp_path / "nowhere"

    def test_new_parents_are_made(self, all_sweeps, tmp_path):
        out_dir = tmp_path / "a" / "b" / "report"
        write_report_bundle(all_sweeps, out_dir)
        assert sorted(p.name for p in out_dir.iterdir()) == BUNDLE_NAMES
