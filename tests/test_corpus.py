import dataclasses
import gc
import io
import json
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, strategies as st

from lexsweep import CorpusError, FilterConfig, corpus_to_dict, parse_corpus
from lexsweep import corpus as corpus_module
from lexsweep.corpus import (
    Corpus,
    CorpusValidationError,
    CorpusParseError,
    CorpusWarning,
    Document,
    Sentence,
    Token,
    compute_stats,
)

from gencorpus import corpora
from oracle import oracle_parse, sentences
from test_acceptance import build_large_corpus


def minimal_corpus_dict(**overrides) -> dict:
    data = {
        "name": "tiny",
        "documents": [
            {
                "id": "d1",
                "sentences": [
                    {
                        "id": "s1",
                        "annotated": False,
                        "tokens": [{"surface": "run", "pos": "VERB"}],
                    }
                ],
            }
        ],
    }
    data.update(overrides)
    return data


class TestParse:
    def test_minimal_corpus(self):
        corpus = parse_corpus(json.dumps(minimal_corpus_dict()))
        assert corpus.name == "tiny"
        assert len(corpus.documents) == 1
        assert corpus.documents[0].sentences[0].tokens[0].surface == "run"

    def test_accepts_bytes_and_streams(self):
        text = json.dumps(minimal_corpus_dict())
        assert parse_corpus(text.encode("utf-8")) == parse_corpus(text)
        assert parse_corpus(io.StringIO(text)) == parse_corpus(text)
        assert parse_corpus(io.BytesIO(text.encode("utf-8"))) == parse_corpus(text)

    def test_bytes_may_start_with_a_bom(self):
        text = json.dumps(minimal_corpus_dict(name="caf\N{LATIN SMALL LETTER E WITH ACUTE}"))
        assert parse_corpus(b"\xef\xbb\xbf" + text.encode("utf-8")) == parse_corpus(text)

    def test_no_second_decode_after_a_validation_error(self, monkeypatch):
        data = minimal_corpus_dict()
        data["documents"].append({"id": "d2", "sentences": [{"id": "s1", "tokens": []}]})
        text = json.dumps(data)
        valid = json.dumps(minimal_corpus_dict())

        def loads(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", loads)
        with pytest.raises(CorpusValidationError) as raised:
            parse_corpus(text)
        assert str(raised.value) == "missing field 'annotated' in document 'd2', sentence 's1'"
        assert parse_corpus(valid).name == "tiny"

    def test_lemma_defaults_to_none(self):
        corpus = parse_corpus(json.dumps(minimal_corpus_dict()))
        assert corpus.documents[0].sentences[0].tokens[0].lemma is None

    def test_malformed_json_reports_position(self):
        with pytest.raises(CorpusParseError, match=r"line 1, column"):
            parse_corpus('{"name": ')

    def test_deep_nesting_is_a_parse_error(self):
        depth = 100_000
        text = '{"documents": ' + "[" * depth + "]" * depth + "}"
        with pytest.raises(CorpusParseError, match="too deep"):
            parse_corpus(text)

    def test_invalid_utf8(self):
        with pytest.raises(CorpusParseError, match="UTF-8"):
            parse_corpus(b'{"name": "\xff"}')

    def test_top_level_must_be_object(self):
        with pytest.raises(CorpusValidationError, match="object"):
            parse_corpus("[1, 2]")

    def test_missing_field(self):
        data = minimal_corpus_dict()
        del data["documents"][0]["sentences"][0]["annotated"]
        with pytest.raises(CorpusValidationError, match="'annotated'"):
            parse_corpus(json.dumps(data))

    def test_wrong_field_type(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["annotated"] = "yes"
        with pytest.raises(CorpusValidationError, match="'annotated'"):
            parse_corpus(json.dumps(data))

    def test_unknown_field_warns_but_parses(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"][0]["morph"] = "x"
        with pytest.warns(CorpusWarning, match="'morph'"):
            corpus = parse_corpus(json.dumps(data))
        assert corpus.documents[0].sentences[0].tokens[0].surface == "run"

    def test_empty_sentence_warns(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"] = []
        with pytest.warns(CorpusWarning, match="empty sentence 's1'"):
            parse_corpus(json.dumps(data))

    def test_empty_surface_rejected(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"][0]["surface"] = "   "
        with pytest.raises(CorpusValidationError) as info:
            parse_corpus(json.dumps(data))
        assert str(info.value) == "empty token surface in document 'd1', sentence 's1', token 0"

    def test_empty_pos_rejected(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"][0]["pos"] = "   "
        with pytest.raises(CorpusValidationError) as info:
            parse_corpus(json.dumps(data))
        assert str(info.value) == "empty token pos in document 'd1', sentence 's1', token 0"

    def test_blank_lemma_becomes_none(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"][0]["lemma"] = "  "
        corpus = parse_corpus(json.dumps(data))
        assert corpus.documents[0].sentences[0].tokens[0].lemma is None


def sentence_dict(sent_id: str, tokens: list) -> dict:
    return {"id": sent_id, "annotated": False, "tokens": tokens}


class TestTokenTable:
    def test_equal_raw_tokens_share_one_token(self):
        data = minimal_corpus_dict()
        tokens = [{"surface": "run", "pos": "VERB"}, {"surface": "walk", "pos": "VERB"}]
        data["documents"][0]["sentences"].append(sentence_dict("s2", tokens))
        corpus = parse_corpus(json.dumps(data))
        first, second = corpus.documents[0].sentences
        assert second.tokens[0] is first.tokens[0]
        assert second.tokens[1] is not first.tokens[0]

    @given(corpus=corpora())
    def test_matches_token_by_token_construction(self, corpus):
        data = corpus_to_dict(corpus)
        built = Corpus(
            name=data["name"],
            documents=tuple(
                Document(
                    id=doc["id"],
                    sentences=tuple(
                        Sentence(
                            id=sent["id"],
                            annotated=sent["annotated"],
                            tokens=tuple(
                                Token(tok["surface"], tok["pos"], tok.get("lemma"))
                                for tok in sent["tokens"]
                            ),
                            message_type=sent.get("message_type"),
                        )
                        for sent in doc["sentences"]
                    ),
                )
                for doc in data["documents"]
            ),
        )
        parsed = parse_corpus(json.dumps(data))
        assert parsed == built
        tokens = [tok for sentence in sentences(parsed) for tok in sentence.tokens]
        assert len({id(tok) for tok in tokens}) == len(set(tokens))

    def test_unknown_field_warns_after_clean_duplicate(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"] += [
            {"surface": "run", "pos": "VERB", "morph": "x"},
            {"surface": "run", "pos": "VERB", "morph": "y"},
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = parse_corpus(json.dumps(data))
        messages = [str(w.message) for w in caught if issubclass(w.category, CorpusWarning)]
        assert messages == [
            "ignoring unknown field(s) 'morph' in document 'd1', sentence 's1', token 1",
            "ignoring unknown field(s) 'morph' in document 'd1', sentence 's1', token 2",
        ]
        assert len(set(corpus.documents[0].sentences[0].tokens)) == 1

    def test_invalid_token_after_duplicates_names_its_own_location(self):
        data = minimal_corpus_dict()
        valid = {"surface": "run", "pos": "VERB", "lemma": "run"}
        data["documents"][0]["sentences"] = [
            sentence_dict(f"s{i}", [dict(valid) for _ in range(50)]) for i in range(20)
        ]
        data["documents"][0]["sentences"][13]["tokens"][37] = {"surface": "run", "lemma": "run"}
        with pytest.raises(CorpusValidationError) as raised:
            parse_corpus(json.dumps(data))
        assert str(raised.value) == "missing field 'pos' in document 'd1', sentence 's13', token 37"

    def test_equal_tokens_share_one_token_whatever_their_raw_values(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"] = [
            {"surface": "run", "pos": "VERB"},
            {"surface": " run", "pos": "VERB"},
            {"surface": "run", "pos": "VERB", "lemma": ""},
            {"surface": "run", "pos": "VERB", "lemma": None},
        ]
        tokens = parse_corpus(json.dumps(data)).documents[0].sentences[0].tokens
        assert tokens == (Token("run", "VERB"),) * 4
        assert len({id(tok) for tok in tokens}) == 1

    @pytest.mark.parametrize("word", ["run", "τρέχω"])
    def test_a_repeated_token_is_neither_checked_nor_built_again(self, word, monkeypatch):
        known = [
            {"surface": word, "pos": "VERB"},
            {"pos": "VERB", "surface": word},
            {"surface": f" {word} ", "pos": "VERB\t"},
            {"surface": word, "pos": "VERB", "lemma": None},
            {"surface": word, "pos": "VERB", "lemma": " "},
            {"surface": word, "pos": "VERB", "lemma": word},
            {"lemma": word, "surface": word, "pos": "VERB"},
            {"surface": word, "pos": "NOUN", "lemma": word},
        ]
        unknown = {"surface": word, "pos": "VERB", "morph": "x"}
        shapes = known + [unknown]
        raw = [shapes[i % len(shapes)] for i in range(1000)]
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"] = [
            sentence_dict(f"s{i}", raw[i : i + 100]) for i in range(0, len(raw), 100)
        ]
        built, checked, short_built = [], [], []
        parse_token, init = corpus_module._parse_token, Token.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        def counting_new(cls):
            made = object.__new__(cls)
            if cls is Token:  # the short step, which checks what it builds
                short_built.append(made)
            return made

        def counting_parse_token(obj, *rest):
            checked.append(obj)
            return parse_token(obj, *rest)

        monkeypatch.setattr(Token, "__init__", counting_init)
        monkeypatch.setattr(corpus_module, "_new", counting_new)
        monkeypatch.setattr(corpus_module, "_parse_token", counting_parse_token)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorpusWarning)
            corpus = parse_corpus(json.dumps(data, ensure_ascii=False))
        tokens = [tok for sentence in sentences(corpus) for tok in sentence.tokens]
        built += [(tok.surface, tok.pos, tok.lemma) for tok in short_built]
        assert sorted(built, key=str) == [
            (word, "NOUN", word), (word, "VERB", word), (word, "VERB", None)
        ]
        assert len({id(tok) for tok in tokens}) == 3
        distinct_known = {json.dumps(shape, sort_keys=True) for shape in known}
        assert len(checked) + len(short_built) == len(distinct_known) + raw.count(unknown)

    def test_clean_tokens_and_sentences_take_the_short_steps(self, fixture_path, monkeypatch):
        checked, sentences_built = [], []
        parse_token, init = corpus_module._parse_token, Sentence.__init__

        def counting_parse_token(obj, *rest):
            checked.append(obj)
            return parse_token(obj, *rest)

        def counting_init(self, *args, **kwargs):
            sentences_built.append(kwargs["id"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(corpus_module, "_parse_token", counting_parse_token)
        monkeypatch.setattr(Sentence, "__init__", counting_init)
        corpus = parse_corpus(fixture_path.read_bytes())
        # Every fixture token is clean: only the first of each POS is checked in full.
        assert [tok["pos"] for tok in checked] == ["VERB", "NOUN"]
        # Only the sentence with a message_type leaves the short step.
        assert sentences_built == ["s1"]
        assert corpus == oracle_parse(fixture_path.read_text())

    def test_unhashable_token_value_rejected(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"].append({"surface": ["run"], "pos": "VERB"})
        with pytest.raises(CorpusValidationError, match="'surface' in .*token 1 must be str"):
            parse_corpus(json.dumps(data))


RUN = {"surface": "run", "pos": "VERB"}
WHERE = "document 'd1', sentence 's1'"
MISSING = object()


def parse_with_warnings(parse, text: str):
    """parse's tree (or validation error), the tokens' sharing pattern and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except CorpusValidationError as exc:
            result = exc
    messages = [str(w.message) for w in caught if issubclass(w.category, CorpusWarning)]
    if isinstance(result, CorpusValidationError):
        return str(result), None, messages
    first: dict[int, int] = {}
    shared = [first.setdefault(id(tok), i) for i, tok in enumerate(
        tok for sentence in sentences(result) for tok in sentence.tokens
    )]
    return result, shared, messages


class TestShortSteps:
    """Inputs that must leave the short steps get the full checks: the
    oracle's tree, token sharing and warnings, or its error text."""

    @pytest.mark.parametrize(
        "tokens, error, warned",
        [
            ([RUN, {"surface": " walk", "pos": "VERB"}, {"surface": "walk", "pos": "VERB"}],
             None, []),
            ([RUN, {"surface": "walk\n", "pos": "VERB", "lemma": "walk"},
              {"surface": "walk", "pos": "VERB", "lemma": "walk"}], None, []),
            ([RUN, {"surface": "walk", "pos": " VERB"}, {"surface": "walk", "pos": "VERB"}],
             None, []),
            ([{"surface": "run", "pos": "VERB\t"}, {"surface": "walk", "pos": "VERB\t"},
              {"surface": "walk", "pos": "VERB"}], None, []),
            ([RUN, {"surface": "café", "pos": "VERB"}, {"surface": "café", "pos": "VERB"}],
             None, []),
            ([RUN, {"surface": "walk", "pos": "VERB", "lemma": "wälk"}], None, []),
            ([RUN, {"surface": "bad\ud800", "pos": "VERB"}],
             f"field 'surface' in {WHERE}, token 1 contains a lone surrogate", []),
            ([RUN, {"surface": "walk", "pos": "VERB", "lemma": "bad\ud800"}],
             f"field 'lemma' in {WHERE}, token 1 contains a lone surrogate", []),
            ([RUN, {"surface": "  ", "pos": "VERB"}],
             f"empty token surface in {WHERE}, token 1", []),
            ([RUN, {"surface": "", "pos": "VERB", "lemma": "run"}],
             f"empty token surface in {WHERE}, token 1", []),
            ([RUN, {"surface": 5, "pos": "VERB"}],
             f"field 'surface' in {WHERE}, token 1 must be str, got int", []),
            ([RUN, {"surface": "walk", "pos": "VERB", "lemma": 5}],
             f"field 'lemma' in {WHERE}, token 1 must be a string", []),
            ([RUN, {"surface": "run", "pos": "VERB", "lemma": None},
              {"surface": "walk", "pos": "VERB", "lemma": None}, {"surface": "walk", "pos": "VERB"}],
             None, []),
            ([RUN, {"surface": "walk", "pos": "VERB", "lemma": ""},
              {"surface": "walk", "pos": "VERB", "lemma": " "}, {"surface": "walk", "pos": "VERB"}],
             None, []),
            ([RUN, {"surface": "walk", "pos": "VERB", "lemma": " walk "},
              {"surface": "walk", "pos": "VERB", "lemma": "walk"}], None, []),
            ([RUN, {"surface": "walk", "pos": "VERB", "morph": "x"},
              {"surface": "walk", "pos": "VERB"}],
             None, [f"ignoring unknown field(s) 'morph' in {WHERE}, token 1"]),
            ([RUN, {"surface": "walk", "morph": "x", "lemma": "walk"}],
             f"missing field 'pos' in {WHERE}, token 1",
             [f"ignoring unknown field(s) 'morph' in {WHERE}, token 1"]),
            ([{**RUN, **dict.fromkeys("edcba", 1)}],
             None, [f"ignoring unknown field(s) 'a', 'b', 'c', 'd', 'e' in {WHERE}, token 0"]),
            ([RUN, {"surface": "walk", "pos": "NOUN"}, {"surface": "run", "pos": "NOUN"}],
             None, []),
            ([RUN, {"surface": "walk", "pos": ""}], f"empty token pos in {WHERE}, token 1", []),
            ([{"surface": "run", "pos": " "}], f"empty token pos in {WHERE}, token 0", []),
            ([RUN, {"surface": "walk", "pos": "N\ud800"}],
             f"field 'pos' in {WHERE}, token 1 contains a lone surrogate", []),
            ([RUN, {"surface": "walk", "pos": 5}],
             f"field 'pos' in {WHERE}, token 1 must be str, got int", []),
            ([RUN, ["run", "VERB"]], f"token in {WHERE}, token 1 must be an object", []),
            ([RUN, "ab"], f"token in {WHERE}, token 1 must be an object", []),
        ],
        ids=[
            "unstripped-surface", "unstripped-surface-with-lemma", "unstripped-pos",
            "unstripped-pos-already-a-key", "non-ascii-surface", "non-ascii-lemma",
            "surrogate-surface", "surrogate-lemma", "blank-surface", "empty-surface",
            "non-str-surface", "non-str-lemma", "null-lemma", "blank-lemma", "padded-lemma",
            "unknown-field", "unknown-field-in-three", "unknown-fields-sorted", "first-of-a-pos",
            "first-of-a-pos-empty",
            "first-token-blank-pos", "first-of-a-pos-surrogate", "first-of-a-pos-non-str",
            "non-dict-list", "non-dict-str",
        ],
    )
    def test_token_gets_the_full_checks(self, tokens, error, warned):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"] = tokens
        self._check(json.dumps(data), error, warned)

    @pytest.mark.parametrize(
        "fields, error, warned",
        [
            ({"annotated": True, "message_type": "kidnap"}, None, []),
            ({"message_type": "kidnap"},
             "sentence 's1' carries message_type 'kidnap' but is not annotated in document 'd1'",
             []),
            ({"annotated": 1},
             "field 'annotated' in document 'd1', sentence 's1' must be bool, got int", []),
            ({"tokens": []}, None, ["empty sentence 's1' in document 'd1'"]),
            ({"tokens": {}},
             "field 'tokens' in document 'd1', sentence 's1' must be list, got dict", []),
            ({"id": "sé"}, None, []),
            ({"id": "s\ud800"}, "field 'id' in document 'd1' contains a lone surrogate", []),
            ({"id": 1}, "field 'id' in document 'd1' must be str, got int", []),
            ({"note": "x"}, None, ["ignoring unknown field(s) 'note' in document 'd1', sentence 's1'"]),
            ({"note": "x", "tokens": MISSING}, "missing field 'tokens' in document 'd1', sentence 's1'",
             ["ignoring unknown field(s) 'note' in document 'd1', sentence 's1'"]),
        ],
        ids=[
            "message-type", "message-type-not-annotated", "non-bool-annotated", "empty-tokens",
            "non-list-tokens", "non-ascii-id", "surrogate-id", "non-str-id", "unknown-field",
            "unknown-field-in-three",
        ],
    )
    def test_sentence_gets_the_full_checks(self, fields, error, warned):
        data = minimal_corpus_dict()
        sentence = {"id": "s1", "annotated": False, "tokens": [RUN, {"surface": "walk", "pos": "VERB"}]}
        sentence.update(fields)
        if sentence["tokens"] is MISSING:
            del sentence["tokens"]
        data["documents"][0]["sentences"] = [sentence, sentence_dict("s2", [RUN])]
        self._check(json.dumps(data), error, warned)

    def test_non_dict_sentence_is_rejected(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"].append(["s2", False, []])
        self._check(json.dumps(data), "sentence in document 'd1' must be an object", [])

    @staticmethod
    def _check(text, error, warned):
        parsed = parse_with_warnings(parse_corpus, text)
        assert parsed == parse_with_warnings(oracle_parse, text)
        result, _, messages = parsed
        assert messages == warned
        assert (result if error is not None else None) == error


class TestLoneSurrogates:
    @pytest.mark.parametrize(
        "path, field, where",
        [
            (("documents", 0, "sentences", 0, "tokens", 0, "surface"), "surface",
             "document 'd1', sentence 's1', token 0"),
            (("documents", 0, "sentences", 0, "tokens", 0, "pos"), "pos",
             "document 'd1', sentence 's1', token 0"),
            (("documents", 0, "sentences", 0, "tokens", 0, "lemma"), "lemma",
             "document 'd1', sentence 's1', token 0"),
            (("documents", 0, "sentences", 0, "message_type"), "message_type",
             "document 'd1', sentence 's1'"),
            (("documents", 0, "sentences", 0, "id"), "id", "document 'd1'"),
            (("documents", 0, "id"), "id", "documents[0]"),
            (("name",), "name", "corpus"),
        ],
        ids=["surface", "pos", "lemma", "message_type", "sentence-id", "document-id", "name"],
    )
    def test_rejected_with_field_and_location(self, path, field, where):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["annotated"] = True
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = "bad\ud800"
        text = json.dumps(data)  # escapes the surrogate as \ud800
        with pytest.raises(CorpusValidationError) as raised:
            parse_corpus(text)
        assert str(raised.value) == f"field {field!r} in {where} contains a lone surrogate"

    def test_escaped_surrogate_pair_accepted(self):
        text = json.dumps(minimal_corpus_dict(name="storm \N{CYCLONE}"))
        assert "\\ud83c\\udf00" in text
        assert parse_corpus(text).name == "storm \N{CYCLONE}"


class TestCollectorState:
    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        was_on = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if was_on else gc.disable)()

    def test_restored_after_success(self, collector):
        parse_corpus(json.dumps(minimal_corpus_dict()))
        assert gc.isenabled() is collector

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"name": ', CorpusParseError),
            (json.dumps({"name": "x", "documents": []}), CorpusValidationError),
        ],
        ids=["parse-error", "validation-error"],
    )
    def test_restored_after_error(self, collector, text, error):
        with pytest.raises(error):
            parse_corpus(text)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"name": "x", "documents": [{"id": 1}, {"id": "d", ]}', CorpusParseError),
            ('{"name": "x", "documents": [{"id": 1}]}', CorpusValidationError),
        ],
        ids=["parse-error-after-invalid-document", "invalid-document"],
    )
    def test_restored_after_mid_stream_error(self, collector, text, error):
        with pytest.raises(error):
            parse_corpus(text)
        assert gc.isenabled() is collector

    def test_restored_after_repeated_key(self, collector):
        data = minimal_corpus_dict()
        # the invalid first documents array is replaced by the valid second one
        text = '{"documents": [{"id": 1}], ' + json.dumps(data)[1:]
        assert parse_corpus(text) == parse_corpus(json.dumps(data))
        assert gc.isenabled() is collector


def outcome(parse, text: str):
    """The corpus or (exception class, message), and the warnings, each as emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except CorpusError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def sharing(corpus: Corpus) -> list[int]:
    """For each token in corpus order, the position of the first token that is the same object."""
    first: dict[int, int] = {}
    tokens = [tok for sentence in sentences(corpus) for tok in sentence.tokens]
    return [first.setdefault(id(tok), i) for i, tok in enumerate(tokens)]


BLANKS = st.text(alphabet=" \t\n\r", max_size=2)
# raw documents that warn, fail a check, or repeat a generated document id
ODD_DOCUMENTS = st.sampled_from(
    [
        {"id": "odd", "sentences": [], "note": 1},
        {"id": "odd", "sentences": [{"id": "s", "annotated": True, "tokens": []}]},
        {"id": "d0", "sentences": []},
        {"id": 1},
        7,
    ]
)
EXTRA_FIELDS = st.dictionaries(
    st.sampled_from(["version", "meta", "zz"]),
    st.sampled_from([1, "v", None, [], [1, [2]], {"a": [{}]}]),
    max_size=2,
)


# raw token shapes, each made from a generated token dict; the first five convert
TOKEN_SHAPES = {
    "reordered keys": lambda tok: dict(reversed(tok.items())),
    "null lemma": lambda tok: {**tok, "lemma": None},
    "blank lemma": lambda tok: {**tok, "lemma": " "},
    "padded values": lambda tok: {key: f" {value}\t" for key, value in tok.items()},
    "non-ASCII surface": lambda tok: {**tok, "surface": tok["surface"] + "\u00e9"},
    "unknown field": lambda tok: {**tok, "morph": "x"},
    "lone surrogate lemma": lambda tok: {**tok, "lemma": "\ud800"},
    "non-string lemma": lambda tok: {**tok, "lemma": 7},
    "non-string pos": lambda tok: {**tok, "pos": None},
    "unhashable surface": lambda tok: {**tok, "surface": [tok["surface"]]},
    "missing pos": lambda tok: {key: value for key, value in tok.items() if key != "pos"},
    "blank surface": lambda tok: {**tok, "surface": " "},
    "not an object": lambda tok: [tok["surface"]],
}
CONVERTING_SHAPES = list(TOKEN_SHAPES)[:5]
# (shape, sentence, token, append): an appended token follows the one whose values it reshapes
TOKEN_EDITS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(CONVERTING_SHAPES), st.sampled_from(list(TOKEN_SHAPES))),
        st.integers(0, 99),
        st.integers(0, 99),
        st.booleans(),
    ),
    max_size=6,
)


@st.composite
def corpus_texts(draw: st.DrawFn) -> str:
    """Corpus JSON with drawn whitespace, key order, token shapes, unknown top-level fields
    and odd documents."""
    data = corpus_to_dict(draw(corpora(max_docs=3)))
    documents = data["documents"]
    token_lists = [s["tokens"] for d in documents for s in d["sentences"] if s["tokens"]]
    generated = [[dict(tok) for tok in tokens] for tokens in token_lists]
    for shape, k, j, append in draw(TOKEN_EDITS) if token_lists else ():
        k %= len(token_lists)
        j %= len(generated[k])
        reshaped = TOKEN_SHAPES[shape](generated[k][j])
        if append:
            token_lists[k].append(reshaped)
        else:
            token_lists[k][j] = reshaped
    for odd in draw(st.lists(ODD_DOCUMENTS, max_size=2)):
        documents.insert(draw(st.integers(0, len(documents))), odd)
    separators = draw(st.sampled_from([(",", ":"), (", ", ": ")]))

    def value_text(key, value) -> str:
        if key != "documents":
            return json.dumps(value, separators=separators)
        items = [draw(BLANKS) + json.dumps(d, separators=separators) + draw(BLANKS) for d in value]
        return "[" + (",".join(items) or draw(BLANKS)) + "]"

    members = [
        draw(BLANKS) + json.dumps(key) + draw(BLANKS) + ":" + draw(BLANKS)
        + value_text(key, value) + draw(BLANKS)
        for key, value in draw(st.permutations([*data.items(), *draw(EXTRA_FIELDS).items()]))
    ]
    return draw(BLANKS) + "{" + (",".join(members) or draw(BLANKS)) + "}" + draw(BLANKS)


VALID = json.dumps(minimal_corpus_dict())
RUN = {"surface": "run", "pos": "VERB"}
SHAPED = minimal_corpus_dict()
SHAPED["documents"][0]["sentences"][0]["tokens"] = [
    RUN, *(TOKEN_SHAPES[shape](RUN) for shape in [*CONVERTING_SHAPES, "unknown field"]), RUN
]
INVALID_DOCUMENTS = '[{"id": "d1", "sentences": []}, {"id": 1}]'


class TestStreaming:
    @given(text=corpus_texts())
    @example(text='{"name": "x", "documents": [{"id": 1}, {"id": "d", ]}')
    @example(text=VALID[:-1] + ', "documents": [{"id": "d2", "sentences": []}]}')
    @example(text=VALID + " {}")
    @example(text=VALID[:-3])
    @example(text="\ufeff" + VALID)
    @example(text="[" + VALID + "]")
    @example(text='{"name": "x", "documents": {}}')
    @example(text='{"name": "x", "documents": []}')
    @example(text='{"documents": ' + INVALID_DOCUMENTS + "}")
    @example(text='{"documents": ' + INVALID_DOCUMENTS + ', "name": 3}')
    @example(text='{"documents": ' + INVALID_DOCUMENTS + ', "name": "x", "zz": 1}')
    @example(text='{"name": "x", "documents": ' + INVALID_DOCUMENTS + ', "documents": []}')
    @example(text='{"name": "x", "documents": ' + INVALID_DOCUMENTS + ', "documents": 5}')
    @example(text=VALID[:-1] + ', "documents": ' + INVALID_DOCUMENTS + "}")
    @example(text='{"documents": [{"id": "d", "sentences": [], "x": 1}, {"id": "d"}], '
             + VALID[1:])
    @example(text='{"name": "x", "documents": ' + INVALID_DOCUMENTS[:-1] + ", [1,]]}")
    @example(text='{"name": "x", "documents": ' + INVALID_DOCUMENTS[:-1] + ", " + "9" * 5000 + "]}")
    @example(text=VALID[:-1] + ', "zz": ' + "9" * 5000 + "}")
    @example(text=VALID[:-1] + ",}")
    @example(text='{"name": "x", "documents": [' + VALID + ",]}")
    @example(text=json.dumps(SHAPED))
    @example(text="7")
    @example(text='{"name" "x", "documents": []}')
    @example(text='{"name": "x" "documents": []}')
    @example(text='{"name": "x", "documents": [{"id": "d", "sentences": []} {"id": "e", "sentences": []}]}')
    @example(text='x"name": "x", "documents": [{"id": "d", "sentences": []}]}')
    @example(text='{xname": "x", "documents": [{"id": "d", "sentences": []}]}')
    @example(text='{"name"; "x", "documents": [{"id": "d", "sentences": []}]}')
    @example(text='{"name": "x", "documents": [{"id": "d", "sentences": []}]]')
    @example(text='{"name": "x", "documents": [{"id": "d", "sentences": []};{"id": "e", "sentences": []}]}')
    @example(text="[" * 100_000)
    @example(text='{"documents": [' + "[" * 100_000 + "]}")
    def test_matches_whole_text_path(self, text):
        streamed, streamed_warnings = outcome(parse_corpus, text)
        whole, whole_warnings = outcome(oracle_parse, text)
        assert streamed == whole
        assert streamed_warnings == whole_warnings
        if isinstance(whole, Corpus):
            assert sharing(streamed) == sharing(whole)

    def test_peak_memory_is_a_small_multiple_of_the_text(self):
        text = json.dumps(corpus_to_dict(build_large_corpus()), separators=(",", ":"))
        tracemalloc.start()
        try:
            parse_corpus(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)


class TestInvariants:
    def test_duplicate_document_id(self):
        data = minimal_corpus_dict()
        data["documents"].append(json.loads(json.dumps(data["documents"][0])))
        data["documents"][1]["sentences"][0]["id"] = "s9"
        with pytest.raises(CorpusValidationError, match="duplicate document id 'd1'"):
            parse_corpus(json.dumps(data))

    def test_duplicate_sentence_id_within_document(self):
        data = minimal_corpus_dict()
        sent = json.loads(json.dumps(data["documents"][0]["sentences"][0]))
        data["documents"][0]["sentences"].append(sent)
        with pytest.raises(CorpusValidationError, match="duplicate sentence id 's1'"):
            parse_corpus(json.dumps(data))

    def test_same_sentence_id_across_documents_ok(self, fixture_corpus):
        ids = [s.id for s in sentences(fixture_corpus)]
        assert ids.count("s1") == 2

    def test_message_type_requires_annotated(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["message_type"] = "kidnap"
        with pytest.raises(CorpusValidationError, match="message_type"):
            parse_corpus(json.dumps(data))

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusValidationError, match="at least one document"):
            parse_corpus(json.dumps({"name": "x", "documents": []}))

    def test_token_constructor_validates(self):
        with pytest.raises(CorpusValidationError, match="^empty token surface$"):
            Token(surface="", pos="NOUN")
        with pytest.raises(CorpusValidationError, match="^empty token pos$"):
            Token(surface="run", pos=" ")

    def test_tree_classes_are_frozen_and_slotted(self):
        token = Token("run", "VERB")
        document = Document("d1", ())
        for obj in (token, Sentence("s1", False, (token,)), document, Corpus("c", (document,))):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, "changed")
        assert hash(token) == hash(Token("run", "VERB"))

    def test_sentence_constructor_validates(self):
        with pytest.raises(CorpusValidationError, match="message_type"):
            Sentence(id="s1", annotated=False, tokens=(), message_type="kidnap")


def dumps(corpus: Corpus) -> str:
    return json.dumps(corpus_to_dict(corpus), ensure_ascii=False, indent=2)


class TestRoundTrip:
    def test_fixture_round_trip(self, fixture_corpus):
        assert parse_corpus(dumps(fixture_corpus)) == fixture_corpus

    def test_optional_fields_omitted(self):
        corpus = parse_corpus(json.dumps(minimal_corpus_dict()))
        data = corpus_to_dict(corpus)
        token = data["documents"][0]["sentences"][0]["tokens"][0]
        assert "lemma" not in token
        assert "message_type" not in data["documents"][0]["sentences"][0]

    @given(corpus=corpora())
    def test_round_trip_property(self, corpus):
        assert parse_corpus(dumps(corpus)) == corpus


class TestStats:
    def test_fixture_stats(self, fixture_corpus, config):
        stats = compute_stats(fixture_corpus, config)
        assert stats.n_documents == 2
        assert stats.n_tokens == 9
        assert stats.n_sentences == 3
        assert stats.n_annotated_sentences == 1
        assert stats.n_distinct_vn_corpus == 4
        assert stats.n_distinct_vn_messages == 2

    def test_unannotated_corpus(self):
        corpus = parse_corpus(json.dumps(minimal_corpus_dict()))
        with pytest.warns(CorpusWarning, match="gold lexicon is empty"):
            stats = compute_stats(corpus, FilterConfig())
        assert stats.n_annotated_sentences == 0
        assert stats.n_distinct_vn_messages == 0
        assert stats.n_distinct_vn_corpus == 1

    @given(corpus=corpora())
    def test_stats_consistency(self, corpus):
        stats = compute_stats(corpus, FilterConfig())
        assert stats.n_tokens == sum(len(s.tokens) for s in sentences(corpus))
        assert stats.n_annotated_sentences <= stats.n_sentences
        assert stats.n_distinct_vn_messages <= stats.n_distinct_vn_corpus


TOKEN = {"surface": "x", "pos": "NOUN"}


def test_corpus_iteration_order():
    data = {
        "name": "ordered",
        "documents": [
            {"id": "b", "sentences": [sentence_dict("s2", [TOKEN]), sentence_dict("s1", [TOKEN])]},
            {"id": "a", "sentences": [sentence_dict("s1", [TOKEN])]},
        ],
    }
    corpus = parse_corpus(json.dumps(data))
    seen = [(d.id, s.id) for d in corpus.documents for s in d.sentences]
    assert seen == [("b", "s2"), ("b", "s1"), ("a", "s1")]
