"""Corpus-frequency lexicon extraction, threshold sweeps, and evaluation.

Workflow: parse an annotated corpus, normalize tokens into content word
keys, extract candidate lexicons with one of four frequency measures,
score them against the gold (message) lexicon, and sweep thresholds to
find good operating points.
"""

from .corpus import CorpusError, corpus_to_dict, load_corpus, parse_corpus
from .evaluation import evaluate
from .lexicon import FilterConfig, build_gold, build_index
from .measures import Measure, MeasureSpec, extract
from .reporting import write_report_bundle
from .sweep import run_all_sweeps

__version__ = "0.1.0"

__all__ = [
    "CorpusError",
    "FilterConfig",
    "Measure",
    "MeasureSpec",
    "build_gold",
    "build_index",
    "corpus_to_dict",
    "evaluate",
    "extract",
    "load_corpus",
    "parse_corpus",
    "run_all_sweeps",
    "write_report_bundle",
]
