import gc
import io
import json
import warnings

import pytest
from hypothesis import given

from lexsweep import FilterConfig, corpus_to_dict, parse_corpus
from lexsweep.corpus import (
    Corpus,
    CorpusValidationError,
    CorpusParseError,
    CorpusWarning,
    Document,
    Sentence,
    Token,
    compute_stats,
    dumps_corpus,
)

from gencorpus import corpora


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
        tokens = [tok for _, sentence in parsed.sentences() for tok in sentence.tokens]
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

    def test_unhashable_token_value_rejected(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"].append({"surface": ["run"], "pos": "VERB"})
        with pytest.raises(CorpusValidationError, match="'surface' in .*token 1 must be str"):
            parse_corpus(json.dumps(data))


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
        ids = [s.id for _, s in fixture_corpus.sentences()]
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

    def test_sentence_constructor_validates(self):
        with pytest.raises(CorpusValidationError, match="message_type"):
            Sentence(id="s1", annotated=False, tokens=(), message_type="kidnap")


class TestRoundTrip:
    def test_fixture_round_trip(self, fixture_corpus):
        assert parse_corpus(dumps_corpus(fixture_corpus)) == fixture_corpus

    def test_optional_fields_omitted(self):
        corpus = parse_corpus(json.dumps(minimal_corpus_dict()))
        data = corpus_to_dict(corpus)
        token = data["documents"][0]["sentences"][0]["tokens"][0]
        assert "lemma" not in token
        assert "message_type" not in data["documents"][0]["sentences"][0]

    @given(corpus=corpora())
    def test_round_trip_property(self, corpus):
        assert parse_corpus(dumps_corpus(corpus)) == corpus


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
        assert stats.n_tokens == sum(len(s.tokens) for _, s in corpus.sentences())
        assert stats.n_annotated_sentences <= stats.n_sentences
        assert stats.n_distinct_vn_messages <= stats.n_distinct_vn_corpus


def test_corpus_iteration_order():
    corpus = Corpus(
        name="ordered",
        documents=(
            Document(
                id="a",
                sentences=(
                    Sentence(id="s1", annotated=False, tokens=(Token("x", "NOUN"),)),
                    Sentence(id="s2", annotated=False, tokens=(Token("y", "NOUN"),)),
                ),
            ),
            Document(
                id="b",
                sentences=(Sentence(id="s1", annotated=False, tokens=(Token("z", "NOUN"),)),),
            ),
        ),
    )
    seen = [(d.id, s.id) for d, s in corpus.sentences()]
    assert seen == [("a", "s1"), ("a", "s2"), ("b", "s1")]
