"""Corpus-frequency lexicon extraction, threshold sweeps, and evaluation.

Workflow: parse an annotated corpus, normalize tokens into content word
keys, extract candidate lexicons with one of four frequency measures,
score them against the gold (message) lexicon, and sweep thresholds to
find good operating points.
"""

from .corpus import (
    Corpus,
    CorpusError,
    CorpusParseError,
    CorpusStats,
    CorpusValidationError,
    CorpusWarning,
    Document,
    Sentence,
    Token,
    compute_stats,
    corpus_to_dict,
    dumps_corpus,
    load_corpus,
    parse_corpus,
)
from .evaluation import MetricsRow, evaluate, f_measure
from .lexicon import (
    DEFAULT_CONTENT_POS,
    CorpusIndex,
    FilterConfig,
    Lexicon,
    WordKeySource,
    build_gold,
    build_index,
    build_universe,
    format_lexicon,
    load_stopwords,
    normalize,
)
from .measures import Measure, MeasureSpec, extract
from .reporting import CSV_HEADER, render_svg, write_report_bundle
from .sweep import DEFAULT_FALLOUT_CAP, SweepResult, run_all_sweeps, threshold_range

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusError",
    "CorpusIndex",
    "CorpusParseError",
    "CorpusStats",
    "CorpusValidationError",
    "CorpusWarning",
    "CSV_HEADER",
    "DEFAULT_CONTENT_POS",
    "DEFAULT_FALLOUT_CAP",
    "Document",
    "FilterConfig",
    "Lexicon",
    "Measure",
    "MeasureSpec",
    "MetricsRow",
    "Sentence",
    "SweepResult",
    "Token",
    "WordKeySource",
    "build_gold",
    "build_index",
    "build_universe",
    "compute_stats",
    "corpus_to_dict",
    "dumps_corpus",
    "evaluate",
    "extract",
    "f_measure",
    "format_lexicon",
    "load_corpus",
    "load_stopwords",
    "normalize",
    "parse_corpus",
    "render_svg",
    "run_all_sweeps",
    "threshold_range",
    "write_report_bundle",
]
