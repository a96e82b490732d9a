"""Discriminating similar languages in short code-mixed text with
character n-gram language models.

Four classification methods over shared per-language frequency models:
simple gram-hit scoring, summed relative frequencies, penalty-smoothed
Naive Bayes in log space, and a word-level backoff identifier. On top
of those sit confidence-ordered model adaptation for closed test sets,
macro/micro F1 evaluation, a parameter-sweep harness, and a
deterministic synthetic corpus generator.
"""

from .adaptation import FULL, AdaptConfig, adaptive_identify
from .corpus import (
    Corpus,
    CorpusError,
    Document,
    NormalizedText,
    load_tsv,
    normalize,
    ordered_split,
    save_tsv,
)
from .evaluation import ClassMetrics, EvalReport, SweepResult, SweepRow, evaluate, sweep
from .heli import (
    HeliConfig,
    HeliModelSet,
    heli_add_document,
    heli_build,
    heli_classify,
    heli_score_doc,
    heli_score_word,
    load_heli_models,
    save_heli_models,
)
from .ngram import (
    ModelIOError,
    ModelSet,
    NgramModel,
    NgramRange,
    add_document,
    build_models,
    extract_ngrams,
    load_models,
    save_models,
)
from .scorers import Prediction, classify
from .synth import LanguageSpec, Lcg, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "ClassMetrics",
    "Corpus",
    "CorpusError",
    "Document",
    "EvalReport",
    "FULL",
    "HeliConfig",
    "HeliModelSet",
    "LanguageSpec",
    "Lcg",
    "ModelIOError",
    "ModelSet",
    "NgramModel",
    "NgramRange",
    "NormalizedText",
    "Prediction",
    "SweepResult",
    "SweepRow",
    "SynthSpec",
    "add_document",
    "adaptive_identify",
    "build_models",
    "classify",
    "evaluate",
    "extract_ngrams",
    "generate",
    "heli_add_document",
    "heli_build",
    "heli_classify",
    "heli_score_doc",
    "heli_score_word",
    "load_heli_models",
    "load_models",
    "load_tsv",
    "normalize",
    "ordered_split",
    "save_heli_models",
    "save_models",
    "save_tsv",
    "sweep",
    "__version__",
]
