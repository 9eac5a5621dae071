import io
import json

import pytest
from hypothesis import given

from lexsweep import (
    Corpus,
    CorpusValidationError,
    CorpusParseError,
    CorpusWarning,
    Document,
    FilterConfig,
    Sentence,
    Token,
    compute_stats,
    corpus_to_dict,
    dumps_corpus,
    parse_corpus,
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
        with pytest.raises(CorpusValidationError, match="surface"):
            parse_corpus(json.dumps(data))

    def test_blank_lemma_becomes_none(self):
        data = minimal_corpus_dict()
        data["documents"][0]["sentences"][0]["tokens"][0]["lemma"] = "  "
        corpus = parse_corpus(json.dumps(data))
        assert corpus.documents[0].sentences[0].tokens[0].lemma is None


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
        with pytest.raises(CorpusValidationError):
            Token(surface="", pos="NOUN")
        with pytest.raises(CorpusValidationError):
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
