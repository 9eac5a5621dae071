import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsweep.cli import main


@pytest.fixture()
def corpus_arg(fixture_path):
    return ["--corpus", str(fixture_path)]


def write_json(path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture()
def unannotated_corpus(tmp_path):
    data = {
        "name": "plain",
        "documents": [
            {
                "id": "d1",
                "sentences": [
                    {
                        "id": "s1",
                        "annotated": False,
                        "tokens": [{"surface": "storm", "pos": "NOUN"}],
                    }
                ],
            }
        ],
    }
    return write_json(tmp_path / "plain.json", data)


@pytest.mark.parametrize(
    "command",
    [
        ["gold"],
        ["evaluate", "--measure", "idf", "--threshold", "1"],
        ["sweep", "--out", "report"],
        ["stats"],
        ["extract", "--measure", "idf", "--threshold", "1"],
    ],
    ids=lambda command: command[0],
)
def test_empty_gold_warns_once(command, unannotated_corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--corpus", unannotated_corpus, *command[1:]]) == 0
    assert capsys.readouterr().err.count("gold lexicon is empty") == 1


class TestValidate:
    def test_valid_corpus(self, corpus_arg, capsys):
        assert main(["validate", *corpus_arg]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "2 documents" in out
        assert "3 sentences" in out

    def test_file_with_a_bom(self, fixture_path, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + fixture_path.read_bytes())
        assert main(["validate", "--corpus", str(path)]) == 0
        assert "2 documents" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--corpus", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_duplicate_document_id(self, tmp_path, capsys):
        doc = {
            "id": "d1",
            "sentences": [
                {
                    "id": "s1",
                    "annotated": False,
                    "tokens": [{"surface": "x", "pos": "NOUN"}],
                }
            ],
        }
        path = write_json(tmp_path / "dup.json", {"name": "dup", "documents": [doc, doc]})
        assert main(["validate", "--corpus", path]) == 2
        err = capsys.readouterr().err
        assert "duplicate document id 'd1'" in err

    def test_unannotated_message_type_names_its_document(self, tmp_path, capsys):
        def doc(doc_id, **fields):
            sentence = {"id": "s1", "annotated": False, "tokens": [{"surface": "x", "pos": "NOUN"}]}
            return {"id": doc_id, "sentences": [{**sentence, **fields}]}

        data = {"name": "two", "documents": [doc("d1"), doc("d2", message_type="kidnap")]}
        path = write_json(tmp_path / "two.json", data)
        assert main(["validate", "--corpus", path]) == 2
        assert capsys.readouterr().err == (
            "error: sentence 's1' carries message_type 'kidnap' but is not annotated"
            " in document 'd2'\n"
        )

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", ', encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"documents": ' + "[" * 100_000, encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert "too deep" in err
        assert "Traceback" not in err

    def test_overlong_integer_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"name": "x", "documents": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON: ")
        assert "usage:" not in err

    def test_unknown_field_warns_on_stderr(self, tmp_path, capsys):
        data = {
            "name": "odd",
            "source": "somewhere",
            "documents": [
                {
                    "id": "d1",
                    "sentences": [
                        {
                            "id": "s1",
                            "annotated": False,
                            "tokens": [{"surface": "x", "pos": "NOUN"}],
                        }
                    ],
                }
            ],
        }
        path = write_json(tmp_path / "odd.json", data)
        assert main(["validate", "--corpus", path]) == 0
        captured = capsys.readouterr()
        assert "valid" in captured.out
        assert "warning:" in captured.err
        assert "'source'" in captured.err


@pytest.mark.parametrize("command", ["validate", "gold"])
def test_lone_surrogate_is_a_corpus_error(command, tmp_path, capsys):
    data = {
        "name": "odd",
        "documents": [
            {
                "id": "d1",
                "sentences": [
                    {
                        "id": "s1",
                        "annotated": True,
                        "tokens": [{"surface": "bad\ud800", "pos": "NOUN"}],
                    }
                ],
            }
        ],
    }
    path = write_json(tmp_path / "surrogate.json", data)
    assert main([command, "--corpus", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "usage:" not in captured.err
    assert "field 'surface' in document 'd1', sentence 's1', token 0" in captured.err


@pytest.mark.parametrize(
    "command",
    [["gold"], ["extract", "--measure", "idf", "--threshold", "1"]],
    ids=lambda command: command[0],
)
def test_unencodable_stdout_is_an_environment_failure(command, tmp_path, monkeypatch, capsys):
    data = {
        "name": "greek",
        "documents": [
            {
                "id": "d1",
                "sentences": [
                    {
                        "id": "s1",
                        "annotated": True,
                        "tokens": [{"surface": "επίθεση", "pos": "NOUN"}],
                    }
                ],
            }
        ],
    }
    path = write_json(tmp_path / "greek.json", data)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="latin-1"))
        assert main([command[0], "--corpus", path, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output as latin-1: ")
    assert "usage:" not in err


class TestStats:
    def test_text_output(self, corpus_arg, capsys):
        assert main(["stats", *corpus_arg]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = {}
        for line in lines:
            label, _, value = line.partition(":")
            values[label] = int(value)
        assert values["Documents"] == 2
        assert values["Tokens"] == 9
        assert values["Sentences"] == 3
        assert values["Annotated Sentences"] == 1
        assert values["Distinct Content Words (corpus)"] == 4
        assert values["Distinct Content Words (messages)"] == 2

    def test_text_output_exact_bytes(self, corpus_arg, capsys):
        assert main(["stats", *corpus_arg]) == 0
        assert capsys.readouterr().out == (
            "Documents:                         2\n"
            "Tokens:                            9\n"
            "Sentences:                         3\n"
            "Annotated Sentences:               1\n"
            "Distinct Content Words (corpus):   4\n"
            "Distinct Content Words (messages): 2\n"
        )

    def test_csv_output(self, corpus_arg, capsys):
        assert main(["stats", "--csv", *corpus_arg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "n_documents,n_tokens,n_sentences,n_annotated_sentences,"
            "n_distinct_vn_corpus,n_distinct_vn_messages",
            "2,9,3,1,4,2",
        ]

    def test_pos_flag(self, corpus_arg, capsys):
        assert main(["stats", "--csv", "--pos", "VERB", *corpus_arg]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "2,9,3,1,2,1"

    def test_padded_pos_flag_is_stripped_as_the_corpus_tags_are(self, corpus_arg, capsys):
        assert main(["stats", "--csv", "--pos", " VERB\t", *corpus_arg]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "2,9,3,1,2,1"
        assert captured.err == ""

    @pytest.mark.parametrize("pos", [[""], ["VERB", " "]], ids=["empty", "blank-beside-verb"])
    def test_blank_pos_is_a_usage_error(self, pos, corpus_arg, capsys):
        flags = [arg for tag in pos for arg in ("--pos", tag)]
        assert main(["stats", *flags, *corpus_arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: lexsweep stats")
        assert captured.err.endswith("\nerror: content_pos must not hold a blank tag\n")

    def test_word_key_surface(self, corpus_arg, capsys):
        assert main(["stats", "--csv", "--word-key", "surface", *corpus_arg]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "2,9,3,1,8,3"


class TestGold:
    def test_stdout(self, corpus_arg, capsys):
        assert main(["gold", *corpus_arg]) == 0
        assert capsys.readouterr().out == "attack\nhostage\n"

    def test_out_file(self, corpus_arg, tmp_path, capsys):
        out = tmp_path / "gold.txt"
        assert main(["gold", *corpus_arg, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "attack\nhostage\n"
        assert capsys.readouterr().out == ""

    def test_empty_gold_warns(self, unannotated_corpus, capsys):
        assert main(["gold", "--corpus", unannotated_corpus]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gold lexicon is empty" in captured.err


class TestExtract:
    def test_collection_freq(self, corpus_arg, capsys):
        assert main(["extract", *corpus_arg, "--measure", "cf", "--threshold", "50"]) == 0
        assert capsys.readouterr().out == "attack\nhostage\n"

    def test_interdoc_freq(self, corpus_arg, capsys):
        assert main(["extract", *corpus_arg, "--measure", "idf", "--threshold", "2"]) == 0
        assert capsys.readouterr().out == "hostage\n"

    def test_full_universe(self, corpus_arg, capsys):
        assert main(["extract", *corpus_arg, "--measure", "idf", "--threshold", "1"]) == 0
        assert capsys.readouterr().out == "attack\nhostage\nnegotiate\npolice\n"

    def test_stopwords_flag(self, corpus_arg, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("# noise\npolice\n", encoding="utf-8")
        args = ["extract", *corpus_arg, "--stopwords", str(stop)]
        assert main([*args, "--measure", "idf", "--threshold", "1"]) == 0
        assert capsys.readouterr().out == "attack\nhostage\nnegotiate\n"

    def test_stopwords_not_utf8_names_the_file(self, corpus_arg, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_bytes("\ufeffpolice\n".encode("utf-16-le"))
        args = ["extract", *corpus_arg, "--stopwords", str(stop)]
        assert main([*args, "--measure", "idf", "--threshold", "1"]) == 2
        assert f"error: stopword file {stop} is not valid UTF-8: " in capsys.readouterr().err

    def test_out_file(self, corpus_arg, tmp_path):
        out = tmp_path / "words.txt"
        args = ["extract", *corpus_arg, "--measure", "tfidf", "--threshold", "25"]
        assert main([*args, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "attack\nnegotiate\n"

    def test_threshold_zero_is_usage_error(self, corpus_arg, capsys):
        assert main(["extract", *corpus_arg, "--measure", "cf", "--threshold", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "error:" in err
        assert "[1, 100]" in err

    def test_unknown_measure(self, corpus_arg, capsys):
        assert main(["extract", *corpus_arg, "--measure", "pmi", "--threshold", "5"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_threshold_not_an_int(self, corpus_arg, capsys):
        assert main(["extract", *corpus_arg, "--measure", "cf", "--threshold", "ten"]) == 2
        assert "invalid int value" in capsys.readouterr().err


class TestEvaluate:
    def test_perfect_point(self, corpus_arg, capsys):
        assert main(["evaluate", *corpus_arg, "--measure", "cf", "--threshold", "50"]) == 0
        out = capsys.readouterr().out
        for fragment in (
            "measure:",
            "precision:",
            "recall:",
            "f_measure:",
            "fallout:",
        ):
            assert fragment in out
        values = {}
        for line in out.splitlines():
            label, _, value = line.partition(":")
            values[label] = value.strip()
        assert values["measure"] == "cf"
        assert values["threshold"] == "50"
        assert values["precision"] == "1.0000"
        assert values["recall"] == "1.0000"
        assert values["f_measure"] == "1.0000"
        assert values["fallout"] == "0.0000"
        assert values["extracted_size"] == "2"

    def test_mixed_point(self, corpus_arg, capsys):
        assert main(["evaluate", *corpus_arg, "--measure", "df", "--threshold", "50"]) == 0
        values = {}
        for line in capsys.readouterr().out.splitlines():
            label, _, value = line.partition(":")
            values[label] = value.strip()
        assert values["precision"] == "0.6667"
        assert values["recall"] == "1.0000"
        assert values["f_measure"] == "0.8000"
        assert values["fallout"] == "0.5000"


    @pytest.mark.parametrize(
        "measure, expected",
        [
            ("cf", ("cf", "1.0000", "1.0000", "1.0000", "0.0000", "2")),
            ("df", ("df", "0.6667", "1.0000", "0.8000", "0.5000", "3")),
        ],
    )
    def test_exact_bytes(self, measure, expected, corpus_arg, capsys):
        assert main(["evaluate", *corpus_arg, "--measure", measure, "--threshold", "50"]) == 0
        name, precision, recall, f, fallout, extracted = expected
        assert capsys.readouterr().out == (
            f"measure:        {name}\n"
            "threshold:      50\n"
            f"precision:      {precision}\n"
            f"recall:         {recall}\n"
            f"f_measure:      {f}\n"
            f"fallout:        {fallout}\n"
            f"extracted_size: {extracted}\n"
            "true_positives: 2\n"
            "universe_size:  4\n"
            "gold_size:      2\n"
        )


# Leaf values a hostile or careless corpus file may hold anywhere.
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.just("\ud800"),
)


def field(plausible):
    # mostly plausible, so that some drawn corpora are valid and get swept
    return st.integers(1, 12).flatmap(lambda n: LEAVES if n == 12 else plausible)


TOKENS = st.lists(
    st.fixed_dictionaries(
        {
            "surface": field(st.sampled_from(["storm", "attacked", "the"])),
            "pos": field(st.sampled_from(["NOUN", "VERB", "DET"])),
        },
        optional={"lemma": field(st.sampled_from(["attack", ""]))},
    ),
    min_size=1,
    max_size=3,
)
SENTENCES = st.lists(
    st.fixed_dictionaries(
        {
            "id": field(st.sampled_from(["s1", "s2"])),
            "annotated": field(st.booleans()),
            "tokens": field(TOKENS),
        },
        optional={"message_type": field(st.just("attack"))},
    ),
    max_size=3,
    unique_by=lambda sentence: sentence["id"],
)
DOCUMENTS = st.lists(
    st.fixed_dictionaries(
        {"id": field(st.sampled_from(["d1", "d2", "d3"])), "sentences": field(SENTENCES)}
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda document: document["id"],
)
CORPUS_JSON = st.fixed_dictionaries(
    {"name": field(st.just("fuzz")), "documents": field(DOCUMENTS)}
).map(lambda data: json.dumps(data).encode("utf-8"))


@pytest.mark.parametrize("command", ["validate", "sweep"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(raw=st.one_of(st.binary(max_size=64), CORPUS_JSON))
@example(raw=b'{"name": "x", "documents": [{"id": "d1", "lemma": ' + b"7" * 5000 + b"}]}")
def test_any_input_gives_an_exit_code(command, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        path.write_bytes(raw)
        extra = ["--out", str(Path(tmp) / "report")] if command == "sweep" else []
        assert main([command, "--corpus", str(path), *extra]) in (0, 1, 2)


class TestSweep:
    def test_writes_report_and_summary(self, corpus_arg, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["sweep", *corpus_arg, "--out", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
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
        out = capsys.readouterr().out
        assert "best F: cf @ 26 (F=1.0000, fallout=0.0000)" in out
        assert "best F under fallout cap 0.10: cf @ 26" in out
        assert f"report written to {out_dir}" in out

    def test_prints_exact_bytes(self, corpus_arg, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["sweep", *corpus_arg, "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == (
            "measure    thr       F  fallout    thr*      F* fallout*\n"
            "cf          26  1.0000   0.0000      26  1.0000   0.0000\n"
            "df          34  0.8000   0.5000       -       -        -\n"
            "tfidf       51  0.6667   1.0000       -       -        -\n"
            "idf          1  0.6667   1.0000       2  0.6667   0.0000\n"
            "best F: cf @ 26 (F=1.0000, fallout=0.0000)\n"
            "best F under fallout cap 0.10: cf @ 26 (F=1.0000, fallout=0.0000)\n"
            f"report written to {out_dir}\n"
        )

    def test_prints_dashes_and_none_with_no_point_under_the_cap(
        self, best_f_tie_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "report"
        args = ["sweep", "--corpus", str(best_f_tie_path), "--fallout-cap", "0"]
        assert main([*args, "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == (
            "measure    thr       F  fallout    thr*      F* fallout*\n"
            "cf          31  0.3333   0.3750       -       -        -\n"
            "df          31  0.3333   0.3750       -       -        -\n"
            "tfidf       31  0.3333   0.3750       -       -        -\n"
            "idf          1  0.3333   1.0000       -       -        -\n"
            "best F: cf @ 31 (F=0.3333, fallout=0.3750)\n"
            "best F under fallout cap 0.00: none\n"
            f"report written to {out_dir}\n"
        )

    def test_repeat_runs_byte_identical(self, corpus_arg, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["sweep", *corpus_arg, "--out", str(first)]) == 0
        assert main(["sweep", *corpus_arg, "--out", str(second)]) == 0
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_fallout_cap_flag(self, corpus_arg, tmp_path, capsys):
        out_dir = tmp_path / "capped"
        assert main(["sweep", *corpus_arg, "--fallout-cap", "1.0", "--out", str(out_dir)]) == 0
        assert "best F under fallout cap 1.00: cf @ 26" in capsys.readouterr().out

    def test_exact_f_tie_goes_to_the_first_measure(self, best_f_tie_path, tmp_path, capsys):
        # Every measure's best F is exactly 1/3: cf, df and tfidf at 31 %,
        # idf at 1, whose float F is the larger (0.33333333333333337).
        corpus_arg = ["--corpus", str(best_f_tie_path)]
        assert main(["sweep", *corpus_arg, "--fallout-cap", "1.0", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:7] == [
            "cf          31  0.3333   0.3750      31  0.3333   0.3750",
            "df          31  0.3333   0.3750      31  0.3333   0.3750",
            "tfidf       31  0.3333   0.3750      31  0.3333   0.3750",
            "idf          1  0.3333   1.0000       1  0.3333   1.0000",
            "best F: cf @ 31 (F=0.3333, fallout=0.3750)",
            "best F under fallout cap 1.00: cf @ 31 (F=0.3333, fallout=0.3750)",
        ]

    def test_fallout_cap_printed_unrounded(self, corpus_arg, tmp_path, capsys):
        out_dir = tmp_path / "capped"
        assert main(["sweep", *corpus_arg, "--fallout-cap", "0.125", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "best F under fallout cap 0.125: cf @ 26" in out
        assert "cap 0.12:" not in out

    def test_fallout_cap_out_of_range(self, corpus_arg, tmp_path, capsys):
        args = ["sweep", *corpus_arg, "--fallout-cap", "1.5", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "fallout cap" in err

    def test_unwritable_out_dir(self, corpus_arg, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        args = ["sweep", *corpus_arg, "--out", str(blocker / "sub")]
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["file", "dangling-symlink"])
    def test_non_directory_out_is_named(self, kind, corpus_arg, tmp_path, capsys):
        out = tmp_path / "f"
        if kind == "file":
            out.touch()
        else:
            out.symlink_to(tmp_path / "nowhere")
        assert main(["sweep", *corpus_arg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 20] Not a directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_staging_error_names_the_out_dir(self, corpus_arg, tmp_path, monkeypatch, capsys):
        mkdir = Path.mkdir

        def failing_mkdir(path, *args, **kwargs):
            if path.name.startswith(".report."):
                raise FileNotFoundError(2, "No such file or directory", str(path))
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", failing_mkdir)
        out_dir = tmp_path / "report"
        assert main(["sweep", *corpus_arg, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out_dir}'\n"

    def test_blocked_target_leaves_out_dir_as_it_was(self, corpus_arg, tmp_path, capsys):
        out_dir = tmp_path / "report"
        (out_dir / "df.csv").mkdir(parents=True)
        (out_dir / "cf.csv").write_text("old", encoding="utf-8")
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert main(["sweep", *corpus_arg, "--out", str(out_dir)]) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        assert (out_dir / "cf.csv").read_text(encoding="utf-8") == "old"

    def test_one_document_corpus(self, tmp_path, capsys):
        tokens = [{"surface": "attacked", "lemma": "attack", "pos": "VERB"}]
        data = {
            "name": "single",
            "documents": [
                {
                    "id": "d1",
                    "sentences": [
                        {"id": "s1", "annotated": True, "tokens": tokens},
                        {
                            "id": "s2",
                            "annotated": False,
                            "tokens": [{"surface": "storm", "pos": "NOUN"}],
                        },
                    ],
                }
            ],
        }
        path = write_json(tmp_path / "single.json", data)
        out_dir = tmp_path / "report"
        assert main(["sweep", "--corpus", path, "--out", str(out_dir)]) == 0
        assert len(list(out_dir.iterdir())) == 9
        assert (out_dir / "idf.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "idf,1,0.5000,1.0000,0.6667,1.0000,2,1,2,1"
        ]
        assert "<circle" in (out_dir / "idf.svg").read_text(encoding="utf-8")
        assert "report written to" in capsys.readouterr().out

    def test_idf_range_wider_than_a_thousand(self, tmp_path, capsys):
        storm = {"surface": "storm", "pos": "NOUN"}
        documents = [
            {"id": f"d{d}", "sentences": [{"id": "s1", "annotated": d == 0, "tokens": [storm]}]}
            for d in range(1202)
        ]
        path = write_json(tmp_path / "wide.json", {"name": "wide", "documents": documents})
        out_dir = tmp_path / "report"
        assert main(["sweep", "--corpus", path, "--out", str(out_dir)]) == 0
        assert len(list(out_dir.iterdir())) == 9
        assert ">1202</text>" in (out_dir / "idf.svg").read_text(encoding="utf-8")

    def test_no_content_vocabulary(self, tmp_path, capsys):
        data = {
            "name": "stopword-soup",
            "documents": [
                {
                    "id": "d1",
                    "sentences": [
                        {
                            "id": "s1",
                            "annotated": False,
                            "tokens": [{"surface": "the", "pos": "DET"}],
                        }
                    ],
                }
            ],
        }
        path = write_json(tmp_path / "soup.json", data)
        assert main(["sweep", "--corpus", path, "--out", str(tmp_path / "r")]) == 2
        assert "no content vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "--corpus", ""],
        ["extract", "--stopwords", "", "--measure", "idf", "--threshold", "1"],
        ["gold", "--out", ""],
        ["extract", "--out", "", "--measure", "idf", "--threshold", "1"],
        ["sweep", "--out", ""],
    ],
    ids=["corpus", "stopwords", "gold-out", "extract-out", "sweep-out"],
)
def test_empty_path_is_a_usage_error(command, fixture_path, tmp_path, monkeypatch, capsys):
    # an unset $OUT must not write into the current directory or to stdout
    monkeypatch.chdir(tmp_path)
    flag = command[command.index("") - 1]
    if flag != "--corpus":
        command = [command[0], "--corpus", str(fixture_path), *command[1:]]
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: lexsweep {command[0]}")
    assert f"error: argument {flag}: expected a path, got ''" in captured.err
    assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "validate" in capsys.readouterr().out

    def test_missing_required_corpus(self, capsys):
        assert main(["stats"]) == 2
        assert "--corpus" in capsys.readouterr().err


def test_module_entry_point(fixture_path):
    result = subprocess.run(
        [sys.executable, "-m", "lexsweep.cli", "validate", "--corpus", str(fixture_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "valid" in result.stdout


@pytest.mark.skipif(shutil.which("lexsweep") is None, reason="console script not on PATH")
def test_console_script(fixture_path):
    result = subprocess.run(
        ["lexsweep", "stats", "--csv", "--corpus", str(fixture_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "2,9,3,1,4,2"
