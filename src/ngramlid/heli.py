"""Word-level backoff classifier over word and character n-gram domains.

Each word of a document is scored in the most specific model domain
that knows anything about it. Domain precedence is fixed
(``HeliConfig._domains``): original-cased words (wordO), lowercased
words (wordL), original-cased grams (gramO, longest length first),
lowercased grams (gramL, longest first). Within a gram domain the
word's score is the mean of per-gram values; a gram no language has
ever seen backs off by dropping its final character until something
matches or the minimum length is passed, in which case it drops out of
the mean.

A word present in a language's model contributes -log of its relative
frequency; a word (or gram) the language is missing contributes that
language's penalty, pm * log(total tokens of the domain), the same
appeared-only-once smoothing rule the Naive Bayes scorer uses.

Document score is the mean of its word scores; lower is better.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .corpus import Corpus, Document, NormalizedText, normalize
from .ngram import (
    ModelIOError,
    NgramModel,
    NgramRange,
    _build,
    _check_pm,
    _parse_pm,
    _parse_rows,
    _read_model_lines,
    _write_model_file,
    extract_ngrams,
)
from .scorers import Prediction, to_prediction

WORD_LENGTH_KEY = 0  # word sub-models store everything under pseudo-length 0


@dataclass(frozen=True)
class HeliConfig:
    lnr: NgramRange | None
    onr: NgramRange | None
    lw: bool
    ow: bool
    pm: float

    def __post_init__(self) -> None:
        if not (self.lw or self.ow or self.lnr or self.onr):
            raise ValueError("at least one scoring domain must be enabled")
        _check_pm(self.pm)

    @cached_property
    def _domains(self) -> tuple[tuple[str, NgramRange | None, bool], ...]:
        """The enabled domains in precedence order, as ``(sub-model kind,
        gram range or None for a word kind, lowercased)``."""
        table = (
            ("wordO", self.ow, None, False),
            ("wordL", self.lw, None, True),
            ("gramO", self.onr, self.onr, False),
            ("gramL", self.lnr, self.lnr, True),
        )
        return tuple((kind, rng, lower) for kind, enabled, rng, lower in table if enabled)

    def enabled_kinds(self) -> list[str]:
        return [kind for kind, _, _ in self._domains]


@dataclass
class HeliModelSet:
    """Per-language word and gram sub-models for each enabled domain."""

    config: HeliConfig
    submodels: dict[str, dict[str, NgramModel]]

    @property
    def languages(self) -> list[str]:
        return sorted(self.submodels[self.config._domains[0][0]])

    def with_pm(self, pm: float, copy_counts: bool = False) -> "HeliModelSet":
        """Clone with a different penalty modifier, as ``ModelSet.with_pm``."""
        config = replace(self.config, pm=pm)
        subs = {
            kind: {lang: m.clone(pm, copy_counts) for lang, m in by_lang.items()}
            for kind, by_lang in self.submodels.items()
        }
        return HeliModelSet(config=config, submodels=subs)


def _doc_items(norm: NormalizedText, config: HeliConfig) -> list[tuple]:
    """``(kind, items, length key)`` of one normalized document per enabled
    domain; gram items are keyed by their own length (None)."""
    return [
        (kind, Counter(norm.lowercased if lower else norm.words), WORD_LENGTH_KEY)
        if rng is None
        else (kind, extract_ngrams(norm, rng, lowercase=lower), None)
        for kind, rng, lower in config._domains
    ]


def heli_build(train: Corpus, config: HeliConfig) -> HeliModelSet:
    """Count words and grams per language over a labeled corpus.

    Counts are folded document by document; totals and penalties are
    computed once per sub-model at the end. Raises for an unlabeled
    corpus, a label a model file cannot store or a language with no words.
    """
    kinds = config.enabled_kinds()
    subs = _build(train, "heli_build", kinds, config.pm, lambda norm: _doc_items(norm, config))
    return HeliModelSet(config=config, submodels=subs)


def heli_add_document(models: HeliModelSet, doc: Document, language: str) -> HeliModelSet:
    """Fold one document into a language's sub-models, in place.

    Totals and penalties are updated for the lengths the document touches.
    """
    if language not in models.languages:
        raise ValueError(f"unknown language {language!r}")
    for kind, items, length in _doc_items(normalize(doc.text), models.config):
        if items:
            models.submodels[kind][language].add_grams(items, length)
    return models


def _word_domain_values(
    word: str, by_lang: dict[str, NgramModel]
) -> dict[str, float] | None:
    """Score in a word domain, or None when no language knows the word."""
    if not any(word in m.counts.get(WORD_LENGTH_KEY, {}) for m in by_lang.values()):
        return None
    values = {}
    for lang, m in by_lang.items():
        c = m.counts.get(WORD_LENGTH_KEY, {}).get(word)
        if c is None:
            values[lang] = m.penalty(WORD_LENGTH_KEY)
        else:
            values[lang] = -math.log(c / m.totals[WORD_LENGTH_KEY])
    return values


def _gram_domain_values(
    word: str, rng: NgramRange, by_lang: dict[str, NgramModel]
) -> dict[str, float] | None:
    """Score in a gram domain, trying lengths from the longest down.

    The word enters at length min(rng.max_n, len(word) + 2); the first
    length at which any of its grams is known to any language becomes
    the scoring length. Individually unknown grams then back off by
    truncation; grams unknown at every length are left out of the mean.
    """
    padded = f" {word} "
    size = len(padded)

    def known(gram: str, length: int) -> bool:
        return any(gram in m.counts.get(length, {}) for m in by_lang.values())

    for n in range(min(rng.max_n, size), rng.min_n - 1, -1):
        grams = [padded[i : i + n] for i in range(size - n + 1)]
        if not any(known(g, n) for g in grams):
            continue
        sums = {lang: 0.0 for lang in by_lang}
        used = 0
        for gram in grams:
            length = n
            while not known(gram, length):
                length -= 1
                if length < rng.min_n:
                    break
                gram = gram[:length]
            else:
                used += 1
                for lang, m in by_lang.items():
                    c = m.counts.get(length, {}).get(gram)
                    if c is None:
                        sums[lang] += m.penalty(length)
                    else:
                        sums[lang] += -math.log(c / m.totals[length])
        return {lang: s / used for lang, s in sums.items()}
    return None


def _last_resort_values(models: HeliModelSet) -> dict[str, float]:
    """Every language pays the penalty of the last domain in precedence."""
    kind, rng, _ = models.config._domains[-1]
    length = WORD_LENGTH_KEY if rng is None else rng.min_n
    return {lang: m.penalty(length) for lang, m in models.submodels[kind].items()}


def heli_score_word(
    word_original: str, word_lowercased: str, models: HeliModelSet
) -> dict[str, float]:
    """Score one word in the first domain that recognizes it."""
    for kind, rng, lower in models.config._domains:
        word = word_lowercased if lower else word_original
        by_lang = models.submodels[kind]
        if rng is None:
            values = _word_domain_values(word, by_lang)
        else:
            values = _gram_domain_values(word, rng, by_lang)
        if values is not None:
            return values
    return _last_resort_values(models)


def heli_score_doc(doc: Document, models: HeliModelSet) -> dict[str, float]:
    """Mean word score per language; all zero for a wordless document.

    Word scores are combined with an exactly rounded sum, so the result
    does not depend on word order.
    """
    norm = normalize(doc.text)
    languages = models.languages
    if not norm.words:
        return {lang: 0.0 for lang in languages}
    per_lang: dict[str, list[float]] = {lang: [] for lang in languages}
    for orig, lower in zip(norm.words, norm.lowercased):
        values = heli_score_word(orig, lower, models)
        for lang in languages:
            per_lang[lang].append(values[lang])
    n = len(norm.words)
    return {lang: math.fsum(vals) / n for lang, vals in per_lang.items()}


def heli_classify(doc: Document, models: HeliModelSet) -> Prediction:
    """Classify one document; lowest mean word score wins."""
    if not models.languages:
        raise ValueError("model set has no languages")
    return to_prediction(doc.id, heli_score_doc(doc, models), lower=True)


def _range_header(rng: NgramRange | None) -> str:
    return f"{rng.min_n} {rng.max_n}" if rng else "-"


def _parse_range_header(value: str) -> NgramRange | None:
    if value == "-":
        return None
    lo, hi = value.split()
    return NgramRange(int(lo), int(hi))


def save_heli_models(models: HeliModelSet, path: str | Path) -> None:
    """Write word+gram sub-models as UTF-8 text.

    Rows are ``language<TAB>kind<TAB>length<TAB>item<TAB>count`` sorted
    by (language, kind, length, item); word rows use length 0.
    """
    config = models.config
    header = [
        "#version 1",
        f"#pm {config.pm!r}",
        "#log natural",
        f"#lnr {_range_header(config.lnr)}",
        f"#onr {_range_header(config.onr)}",
        f"#lw {int(config.lw)}",
        f"#ow {int(config.ow)}",
    ]
    _write_model_file(path, header, models.submodels)


def parse_heli_models(path: Path, header: dict, rows: list, n_fields: int) -> HeliModelSet:
    """Build a model set from a file split by ``_read_model_lines``."""
    pm = _parse_pm(path, header)
    try:
        config = HeliConfig(
            lnr=_parse_range_header(header["lnr"]),
            onr=_parse_range_header(header["onr"]),
            lw=bool(int(header["lw"])),
            ow=bool(int(header["ow"])),
            pm=pm,
        )
    except (KeyError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad or missing header: {exc}") from exc
    kinds = {
        kind: rng and ("lnr" if lower else "onr", rng) for kind, rng, lower in config._domains
    }
    subs = _parse_rows(path, rows, n_fields, pm, kinds)
    return HeliModelSet(config=config, submodels=subs)


def load_heli_models(path: str | Path) -> HeliModelSet:
    """Load a model set written by ``save_heli_models``."""
    path = Path(path)
    return parse_heli_models(path, *_read_model_lines(path))
