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
appeared-only-once smoothing rule (``ngram._penalty``) the Naive Bayes
scorer uses, with the pm of the model set's config.

Document score is the mean of its word scores; lower is better.

Training (``heli_build``, and ``heli_add_document`` in adaptation)
reads each document's items from ``_doc_items``. A caseless document,
one that lowercasing leaves unchanged, has the same items in both
casings, so its lowercased domains reuse the original-cased ones' items:
the word tuple, and, when ``lnr == onr``, the per-length gram lists,
extracted once. Each kind still counts its own items (a fold builds one
``Counter`` per shared list and adds it to both kinds), so every count
is as if each domain were extracted on its own. A document with any
cased word extracts every domain separately.

Whether any language knows an item decides both the domain and the
backoff, so a model set keeps an index of the known items: per kind and
length, the union of every language's items. It is built on the first
score (``HeliModelSet.known_items``), not by ``heli_build`` or the
model-file reader, so training and loading do not pay for it; after
that ``heli_add_document`` adds each fold's items to it, and
``HeliModelSet.with_pm`` shares it with clones that share counts.

The values are read from a second lazy table, the scoring rows
(``HeliModelSet.score_rows``): per kind and known length, one
``(counts, total, penalty)`` row per language, in ``languages`` order.
So a scored item costs one lookup per language and an absent item
reads its penalty rather than taking a logarithm. A word's values are
a list in that order, and a document's score is the ``math.fsum`` of
one column per language. ``heli_add_document`` drops the rows and the
next score rebuilds them, so every total and penalty is current; no
clone shares them, since its pm or its lengths differ.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import Corpus, Document, NormalizedText, normalize
from .ngram import (
    ModelIOError,
    NgramModel,
    NgramRange,
    _build,
    _check_header_keys,
    _check_pm,
    _check_within,
    _grams_by_length,
    _parse_flag,
    _parse_pm,
    _parse_range_header,
    _parse_rows,
    _penalty,
    _read_model_lines,
    _write_model_file,
)
from .scorers import Prediction, to_prediction

WORD_LENGTH_KEY = 0  # word sub-models store everything under pseudo-length 0

_NOTHING_KNOWN: frozenset[str] = frozenset()

# One language's scoring row at one kind and length:
# (its counts there, their total, the penalty of an absent item).
_Row = tuple[dict[str, int], int, float]


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
    _known: dict[str, dict[int, set[str]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _rows: dict[str, dict[int, list[_Row]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def languages(self) -> list[str]:
        return sorted(self.submodels[self.config._domains[0][0]])

    def known_items(self) -> dict[str, dict[int, set[str]]]:
        """Per kind and length, the items that any language's sub-model
        counts; built on the first call, then kept exact by
        ``heli_add_document``.

        Code that edits sub-model counts any other way after the first
        score must build a new model set.
        """
        if self._known is None:
            self._known = {kind: _union(by_lang) for kind, by_lang in self.submodels.items()}
        return self._known

    def score_rows(self) -> dict[str, dict[int, list[_Row]]]:
        """Per kind and known length, each language's row in ``languages``
        order: ``(counts, total, ngram._penalty(pm, total))``, with an
        empty ``counts`` and total 0 for a language without that length.

        Built on the first score and dropped by ``heli_add_document``, so
        every total and penalty is current; a clone builds its own.
        """
        if self._rows is None:
            pm = self.config.pm
            languages = self.languages
            known = self.known_items()
            rows: dict[str, dict[int, list[_Row]]] = {}
            for kind, by_lang in self.submodels.items():
                models = [by_lang[lang] for lang in languages]
                by_len = rows[kind] = {}
                for n in known[kind]:
                    row = by_len[n] = []
                    for m in models:
                        total = m.totals.get(n, 0)
                        row.append((m.counts.get(n, {}), total, _penalty(pm, total)))
            self._rows = rows
        return self._rows

    def with_pm(
        self, pm: float, copy_counts: bool = False, rng: NgramRange | None = None
    ) -> "HeliModelSet":
        """Clone with a different penalty modifier, as ``ModelSet.with_pm``;
        ``rng`` narrows every gram domain to its lengths.

        The slice equals a build over ``rng``: word sub-models do not
        depend on the range, and scoring reads gram counts and totals
        only at lengths inside it.

        A clone that shares counts shares the known-items index too (built
        here if it is not yet): the same set per kept length, which at those
        lengths equals the clone's own union. A clone with copied counts,
        the kind to fold into, builds its own index when first scored.
        """
        config = replace(self.config, pm=pm)
        gram_kinds = {kind: outer for kind, outer, _ in config._domains if outer}
        if rng is not None:
            for outer in gram_kinds.values():
                _check_within(rng, outer)
            config = replace(config, lnr=config.lnr and rng, onr=config.onr and rng)
        subs = {
            kind: {
                lang: m.clone(copy_counts, rng if kind in gram_kinds else None)
                for lang, m in by_lang.items()
            }
            for kind, by_lang in self.submodels.items()
        }
        clone = HeliModelSet(config=config, submodels=subs)
        if not copy_counts:
            clone._known = {
                kind: {
                    n: items
                    for n, items in by_len.items()
                    if rng is None or kind not in gram_kinds or rng.holds(n)
                }
                for kind, by_len in self.known_items().items()
            }
        return clone


def _union(by_lang: dict[str, NgramModel]) -> dict[int, set[str]]:
    """Per length, the items any of ``by_lang``'s models counts."""
    known: dict[int, set[str]] = {}
    for m in by_lang.values():
        for n, items in m.counts.items():
            known.setdefault(n, set()).update(items)
    return known


def _doc_items(
    norm: NormalizedText, config: HeliConfig
) -> Iterator[tuple[str, int, Sequence[str]]]:
    """``(kind, length, items)`` of one normalized document, per enabled
    domain and length, with multiplicity: a word domain's words under
    length 0, a gram domain's grams one length at a time. Empty item
    lists are left out.

    A caseless document (lowercasing changes none of its words) has the
    same items in both casings, so its lowercased domains yield the very
    objects of the original-cased ones: ``norm.words`` for wordL, and for
    gramL, when ``lnr == onr``, gramO's per-length lists, extracted once.
    A document with any cased word extracts each domain on its own.
    """
    caseless = norm.lowercased == norm.words
    share_grams = caseless and config.onr is not None and config.lnr == config.onr
    for kind, rng, lower in config._domains:
        words = norm.lowercased if lower and not caseless else norm.words
        if rng is None:
            if words:
                yield kind, WORD_LENGTH_KEY, words
            continue
        if not (lower and share_grams):
            by_length = _grams_by_length(words, rng)
            if share_grams:  # gramO, kept for gramL, which comes next
                by_length = list(by_length)
        for n, grams in by_length:
            yield kind, n, grams


def heli_build(train: Corpus, config: HeliConfig) -> HeliModelSet:
    """Count words and grams per language over a labeled corpus.

    Each document's words, and its grams one length at a time, go into
    one counter per (kind, language, length) (``ngram._build``); totals
    are computed once per sub-model at the end. Raises for an unlabeled
    corpus, a label a model file cannot store or a language with nothing
    counted in any enabled domain.
    """
    kinds = config.enabled_kinds()
    subs = _build(train, "heli_build", kinds, lambda norm: _doc_items(norm, config))
    return HeliModelSet(config=config, submodels=subs)


def heli_add_document(
    models: HeliModelSet, doc: Document, language: str, *, norm: NormalizedText | None = None
) -> HeliModelSet:
    """Fold one document into a language's sub-models, in place, one kind
    and length at a time.

    Totals are updated for the lengths the document touches, the
    known-items index, once built, gains the document's items, and the
    scoring rows are dropped, to be rebuilt by the next score.
    ``norm`` is the document's normalized text, for callers that have it.
    """
    if language not in models.languages:
        raise ValueError(f"unknown language {language!r}")
    if norm is None:
        norm = normalize(doc.text)
    known = models._known
    models._rows = None
    counted: dict[int, tuple[Sequence[str], Counter]] = {}  # per length, the last items counted
    for kind, length, items in _doc_items(norm, models.config):
        last = counted.get(length)
        if last is None or last[0] is not items:  # a shared list is counted once
            last = counted[length] = (items, Counter(items))
        models.submodels[kind][language].add_grams(last[1], length)
        if known is not None:
            known[kind].setdefault(length, set()).update(last[1])
    return models


def _word_domain_values(
    word: str, rows: dict[int, list[_Row]], known: dict[int, set[str]]
) -> list[float] | None:
    """Score in a word domain, or None when no language knows the word."""
    if word not in known.get(WORD_LENGTH_KEY, _NOTHING_KNOWN):
        return None
    return [
        penalty if (c := counts.get(word)) is None else -math.log(c / total)
        for counts, total, penalty in rows[WORD_LENGTH_KEY]
    ]


def _gram_domain_values(
    word: str, rng: NgramRange, rows: dict[int, list[_Row]], known: dict[int, set[str]]
) -> list[float] | None:
    """Score in a gram domain, trying lengths from the longest down.

    The word enters at length min(rng.max_n, len(word) + 2); the first
    length at which any of its grams is known to any language becomes
    the scoring length. Individually unknown grams then back off by
    truncation; grams unknown at every length are left out of the mean.
    """
    padded = f" {word} "
    size = len(padded)
    for n in range(min(rng.max_n, size), rng.min_n - 1, -1):
        grams = [padded[i : i + n] for i in range(size - n + 1)]
        if known.get(n, _NOTHING_KNOWN).isdisjoint(grams):
            continue
        sums = [0.0] * len(rows[n])
        used = 0
        for gram in grams:
            length = n
            while gram not in known.get(length, _NOTHING_KNOWN):
                length -= 1
                if length < rng.min_n:
                    break
                gram = gram[:length]
            else:
                used += 1
                for i, (counts, total, penalty) in enumerate(rows[length]):
                    c = counts.get(gram)
                    sums[i] += penalty if c is None else -math.log(c / total)
        return [s / used for s in sums]
    return None


def _last_resort_values(models: HeliModelSet) -> dict[str, float]:
    """Every language pays the penalty of the last domain in precedence."""
    kind, rng, _ = models.config._domains[-1]
    length = WORD_LENGTH_KEY if rng is None else rng.min_n
    pm = models.config.pm
    return {
        lang: _penalty(pm, m.totals.get(length, 0)) for lang, m in models.submodels[kind].items()
    }


def _word_values(
    word_original: str,
    word_lowercased: str,
    domains: tuple[tuple[str, NgramRange | None, bool], ...],
    known: dict[str, dict[int, set[str]]],
    rows: dict[str, dict[int, list[_Row]]],
) -> list[float] | None:
    """One word's values in ``languages`` order, from the first domain
    that recognizes it; None when none does."""
    for kind, rng, lower in domains:
        word = word_lowercased if lower else word_original
        if rng is None:
            values = _word_domain_values(word, rows[kind], known[kind])
        else:
            values = _gram_domain_values(word, rng, rows[kind], known[kind])
        if values is not None:
            return values
    return None


def heli_score_word(
    word_original: str, word_lowercased: str, models: HeliModelSet
) -> dict[str, float]:
    """Score one word in the first domain that recognizes it."""
    values = _word_values(
        word_original, word_lowercased, models.config._domains, models.known_items(),
        models.score_rows(),
    )
    if values is None:
        return _last_resort_values(models)
    return dict(zip(models.languages, values))


def heli_score_doc(
    doc: Document, models: HeliModelSet, *, norm: NormalizedText | None = None
) -> dict[str, float]:
    """Mean word score per language; all zero for a wordless document.

    Word scores are combined with an exactly rounded sum, so the result
    does not depend on word order. ``norm`` is the document's normalized
    text, for callers that score it more than once.
    """
    if norm is None:
        norm = normalize(doc.text)
    languages = models.languages
    if not norm.words:
        return {lang: 0.0 for lang in languages}
    domains, known, rows = models.config._domains, models.known_items(), models.score_rows()
    per_word = []
    for orig, lower in zip(norm.words, norm.lowercased):
        values = _word_values(orig, lower, domains, known, rows)
        if values is None:
            by_lang = _last_resort_values(models)
            values = [by_lang[lang] for lang in languages]
        per_word.append(values)
    n = len(norm.words)
    return {lang: math.fsum(column) / n for lang, column in zip(languages, zip(*per_word))}


def heli_classify(doc: Document, models: HeliModelSet) -> Prediction:
    """Classify one document; lowest mean word score wins."""
    if not models.languages:
        raise ValueError("model set has no languages")
    return to_prediction(doc.id, heli_score_doc(doc, models), lower=True)


def _range_header(rng: NgramRange | None) -> str:
    return f"{rng.min_n} {rng.max_n}" if rng else "-"


def _parse_domain_range(value: str) -> NgramRange | None:
    return None if value == "-" else _parse_range_header(value)


def save_heli_models(models: HeliModelSet, path: str | Path) -> None:
    """Write word+gram sub-models as UTF-8 text.

    Rows are ``language<TAB>kind<TAB>length<TAB>item<TAB>count`` sorted
    by (language, kind, length, item); word rows use length 0.
    """
    config = models.config
    header = [
        "#version 1",
        f"#pm {float(config.pm)!r}",
        "#log natural",
        f"#lnr {_range_header(config.lnr)}",
        f"#onr {_range_header(config.onr)}",
        f"#lw {int(config.lw)}",
        f"#ow {int(config.ow)}",
    ]
    _write_model_file(path, header, models.submodels)


def parse_heli_models(path: Path, header: dict, rows: list) -> HeliModelSet:
    """Build a model set from a file split by ``_read_model_lines``."""
    _check_header_keys(path, header, "lnr", "onr", "lw", "ow")
    pm = _parse_pm(path, header)
    try:
        config = HeliConfig(
            lnr=_parse_domain_range(header["lnr"]),
            onr=_parse_domain_range(header["onr"]),
            lw=_parse_flag(header["lw"]),
            ow=_parse_flag(header["ow"]),
            pm=pm,
        )
    except (KeyError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad or missing header: {exc}") from exc
    kinds = {
        kind: rng and ("lnr" if lower else "onr", rng) for kind, rng, lower in config._domains
    }
    subs = _parse_rows(path, rows, kinds)
    return HeliModelSet(config=config, submodels=subs)


def load_heli_models(path: str | Path) -> HeliModelSet:
    """Load a model set written by ``save_heli_models``."""
    path = Path(path)
    return parse_heli_models(path, *_read_model_lines(path))
