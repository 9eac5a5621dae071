import hashlib
import io
import xml.etree.ElementTree as ET

import pytest

from lexsweep import (
    CSV_HEADER,
    Measure,
    MetricsRow,
    SweepResult,
    read_metrics_csv,
    render_svg,
    run_all_sweeps,
    run_sweep,
    write_csv,
    write_report_bundle,
    write_summary_csv,
)


@pytest.fixture(scope="module")
def cf_sweep(fixture_corpus, config):
    return run_sweep(fixture_corpus, config, Measure.COLLECTION_FREQ)


@pytest.fixture(scope="module")
def all_sweeps(fixture_corpus, config):
    return run_all_sweeps(fixture_corpus, config)


def csv_bytes(result) -> bytes:
    sink = io.BytesIO()
    write_csv(result, sink)
    return sink.getvalue()


def svg_text(result) -> str:
    sink = io.BytesIO()
    render_svg(result, sink)
    return sink.getvalue().decode("utf-8")


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

    def test_returns_row_count(self, cf_sweep):
        assert write_csv(cf_sweep, io.BytesIO()) == 100

    def test_byte_determinism(self, cf_sweep):
        digests = {hashlib.sha256(csv_bytes(cf_sweep)).hexdigest() for _ in range(3)}
        assert len(digests) == 1

    def test_round_trip(self, cf_sweep):
        parsed = read_metrics_csv(io.BytesIO(csv_bytes(cf_sweep)))
        assert len(parsed) == len(cf_sweep.rows)
        for got, want in zip(parsed, cf_sweep.rows):
            assert got.measure is want.measure
            assert got.threshold == want.threshold
            assert got.precision == pytest.approx(want.precision, abs=5e-5)
            assert got.recall == pytest.approx(want.recall, abs=5e-5)
            assert got.f_measure == pytest.approx(want.f_measure, abs=5e-5)
            assert got.fallout == pytest.approx(want.fallout, abs=5e-5)
            assert got.extracted_size == want.extracted_size
            assert got.true_positives == want.true_positives
            assert got.universe_size == want.universe_size
            assert got.gold_size == want.gold_size

    def test_summary(self, all_sweeps):
        sink = io.BytesIO()
        count = write_summary_csv(all_sweeps, sink)
        lines = sink.getvalue().decode("utf-8").splitlines()
        assert lines[0] == (
            "measure,selection,threshold,precision,recall,f_measure,fallout,"
            "extracted_size,true_positives,universe_size,gold_size"
        )
        assert count == len(lines) - 1
        assert lines[1].startswith("cf,best_f,26,")
        assert lines[2].startswith("cf,best_f_under_cap,26,")
        assert any(line.startswith("idf,best_f,1,") for line in lines)
        assert any(line.startswith("idf,best_f_under_cap,2,") for line in lines)
        # df and tfidf rows all exceed the default fallout cap
        assert sum(line.count("best_f_under_cap") for line in lines) == 2


class TestSvg:
    def test_well_formed_and_self_contained(self, cf_sweep):
        text = svg_text(cf_sweep)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert "href" not in text
        assert text.count("http") == 1  # the xmlns declaration only

    def test_four_series_with_legend(self, cf_sweep):
        text = svg_text(cf_sweep)
        assert text.count("<polyline") == 4
        for label in ("Precision", "Recall", "F-measure", "Fallout"):
            assert label in text
        for color in ("#1f77b4", "#2ca02c", "#d62728", "#ff7f0e"):
            assert text.count(color) == 2  # polyline stroke + legend swatch

    def test_point_count_matches_rows(self, cf_sweep):
        root = ET.fromstring(svg_text(cf_sweep))
        ns = "{http://www.w3.org/2000/svg}"
        for polyline in root.iter(f"{ns}polyline"):
            assert len(polyline.get("points").split()) == len(cf_sweep.rows)

    def test_best_f_marker(self, cf_sweep):
        text = svg_text(cf_sweep)
        assert 'stroke-dasharray="5,4"' in text
        assert "best F @ 26" in text

    def test_title_and_axis_labels(self, cf_sweep, all_sweeps):
        assert "Collection Frequency sweep" in svg_text(cf_sweep)
        assert "threshold (cf%)" in svg_text(cf_sweep)
        idf_sweep = all_sweeps[-1]
        assert "threshold (idf docs)" in svg_text(idf_sweep)

    def test_two_row_sweep_renders(self, all_sweeps):
        idf_sweep = all_sweeps[-1]
        root = ET.fromstring(svg_text(idf_sweep))
        ns = "{http://www.w3.org/2000/svg}"
        for polyline in root.iter(f"{ns}polyline"):
            assert len(polyline.get("points").split()) == 2

    def test_byte_determinism(self, cf_sweep):
        digests = {
            hashlib.sha256(svg_text(cf_sweep).encode("utf-8")).hexdigest()
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
        root = ET.fromstring(svg_text(result))
        ns = "{http://www.w3.org/2000/svg}"
        polylines = list(root.iter(f"{ns}polyline"))
        assert polylines
        for polyline in polylines:
            ys = {pair.split(",")[1] for pair in polyline.get("points").split()}
            assert len(ys) == 1

    def test_single_row_renders(self):
        row = make_row(3)
        result = SweepResult(
            measure=Measure.INTERDOC_FREQ,
            rows=(row,),
            best_f=row,
            best_f_under_cap=None,
            fallout_cap=0.1,
        )
        text = svg_text(result)
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


class TestBundle:
    def test_writes_all_files(self, all_sweeps, tmp_path):
        bundle = write_report_bundle(all_sweeps, tmp_path / "report")
        names = sorted(p.name for p in bundle.all_paths())
        assert names == [
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
        for path in bundle.all_paths():
            assert path.exists() and path.stat().st_size > 0

    def test_bundle_deterministic(self, all_sweeps, tmp_path):
        first = write_report_bundle(all_sweeps, tmp_path / "a")
        second = write_report_bundle(all_sweeps, tmp_path / "b")
        for p1, p2 in zip(sorted(first.all_paths()), sorted(second.all_paths())):
            assert p1.read_bytes() == p2.read_bytes()
