"""Confidence-ordered language-model adaptation over a closed test set.

One epoch works in rounds: classify every unresolved document, sort by
confidence margin (highest first, ties by ascending id), peel off the
top split, fold each split document's counts into its predicted
language's model (unless its margin falls at or below the confidence
threshold), freeze those predictions, and repeat on what remains. The
split size is recomputed each round so the remaining documents divide
evenly over the remaining splits; the final split takes everything
left. With k splits and no threshold, k=1 adopts everything after a
single classification pass, so its output equals plain batch
classification; larger k re-scores progressively harder documents
against progressively richer models.

Asking for more splits than there are documents degenerates to a single
bulk split, which also makes the output identical to batch output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, Document, NormalizedText, normalize
from .heli import HeliModelSet, heli_add_document, heli_score_doc
from .ngram import GramGroups, ModelSet
from .scorers import (
    Prediction,
    lower_is_better,
    score_language,
    score_with,
    to_prediction,
)

FULL = "full"  # one document per split

ADAPT_METHODS = ("simple", "sum_rf", "nb", "heli")


@dataclass(frozen=True)
class AdaptConfig:
    k: int | str = 1
    ct: float | None = None
    epochs: int = 1

    def __post_init__(self) -> None:
        if self.k != FULL and (not isinstance(self.k, int) or self.k < 1):
            raise ValueError(f"k must be a positive integer or {FULL!r}, got {self.k}")
        if self.ct is not None and not self.ct >= 0:
            raise ValueError(f"confidence threshold must be non-negative, got {self.ct}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")


class _ScorerBackend:
    """Gram-model backend: caches each document's grams, grouped by length
    once (or handed over already grouped), and supports re-scoring a
    single language after its model changed."""

    def __init__(self, model_set: ModelSet, method: str, grams: dict[int, GramGroups] | None):
        self.model_set = model_set
        self.method = method
        self.lower = lower_is_better(method)
        self._grams = dict(grams or {})

    @property
    def languages(self) -> list[str]:
        return self.model_set.languages

    def grams(self, doc: Document) -> GramGroups:
        g = self._grams.get(doc.id)
        if g is None:
            g = GramGroups(self.model_set.doc_grams(doc))
            self._grams[doc.id] = g
        return g

    def score_all(self, doc: Document) -> dict[str, float]:
        return score_with(self.method, self.grams(doc), self.model_set)

    def score_one(self, doc: Document, lang: str) -> float:
        ms = self.model_set
        return score_language(self.method, self.grams(doc), ms.models[lang], ms.penalty_modifier)

    def absorb(self, doc: Document, lang: str) -> list[str]:
        grams = self.grams(doc)
        if not grams:
            return []
        self.model_set.models[lang].add_grams(grams)
        return [lang]


class _HeliBackend:
    """Backoff-model backend: caches each document's normalized text.
    Adding data to one language can move the domain a word is scored in,
    which shifts every language's score, so ``absorb`` reports every
    language (or none, for a wordless document) and a document is always
    re-scored in full."""

    lower = True

    def __init__(self, models: HeliModelSet):
        self.models = models
        self._norms: dict[int, NormalizedText] = {}

    @property
    def languages(self) -> list[str]:
        return self.models.languages

    def norm(self, doc: Document) -> NormalizedText:
        norm = self._norms.get(doc.id)
        if norm is None:
            norm = self._norms[doc.id] = normalize(doc.text)
        return norm

    def score_all(self, doc: Document) -> dict[str, float]:
        return heli_score_doc(doc, self.models, norm=self.norm(doc))

    def absorb(self, doc: Document, lang: str) -> list[str]:
        norm = self.norm(doc)
        if not norm.words:
            return []
        heli_add_document(self.models, doc, lang, norm=norm)
        return self.languages


def _make_backend(model_set, method: str, grams: dict[int, GramGroups] | None):
    if method == "heli":
        if not isinstance(model_set, HeliModelSet):
            raise ValueError("method 'heli' needs a HeliModelSet")
        return _HeliBackend(model_set)
    if method not in ("simple", "sum_rf", "nb"):
        raise ValueError(f"unknown method {method!r}; expected one of {ADAPT_METHODS}")
    if not isinstance(model_set, ModelSet):
        raise ValueError(f"method {method!r} needs a ModelSet")
    return _ScorerBackend(model_set, method, grams)


def adaptive_identify(
    test: Corpus,
    model_set,
    method: str,
    config: AdaptConfig,
    trace_path: str | Path | None = None,
    grams: dict[int, GramGroups] | None = None,
) -> list[Prediction]:
    """Identify every document of ``test``, adapting models along the way.

    Returns one prediction per document, ordered by document id, each
    being the prediction in force when its document was resolved.
    ``epochs=0`` disables adaptation entirely. The models inside
    ``model_set`` are mutated; pass a copy to keep the originals.

    A document is re-scored only against the languages whose model
    changed since it was last scored: in one ``score_all`` call when
    every language changed, otherwise one ``score_one`` call per changed
    language. Either way the scores are bit-identical to a full
    re-scoring.

    For the gram methods, ``grams`` maps a document id to that document's
    grouped grams under the model set's options, for callers that
    extracted them already (a sweep slices one extraction per document);
    any other document is extracted as usual. Adaptation folds them into
    the models, so they must equal what ``ModelSet.doc_grams`` gives.
    """
    backend = _make_backend(model_set, method, grams)
    languages = backend.languages
    if not languages:
        raise ValueError("model set has no languages")

    docs = list(test)
    trace: list[tuple[int, int, str, float, int]] = []
    resolved: dict[int, Prediction] = {}

    versions = {lang: 0 for lang in languages}
    cache: dict[int, dict[str, tuple[float, int]]] = {}

    def scores_for(doc: Document) -> dict[str, float]:
        entry = cache.get(doc.id)
        if entry is None:
            scores = backend.score_all(doc)
            cache[doc.id] = {lang: (scores[lang], versions[lang]) for lang in languages}
            return scores
        stale = [lang for lang in languages if entry[lang][1] != versions[lang]]
        if len(stale) == len(languages):
            scores = backend.score_all(doc)
            for lang in languages:
                entry[lang] = (scores[lang], versions[lang])
        else:
            for lang in stale:
                entry[lang] = (backend.score_one(doc, lang), versions[lang])
        return {lang: entry[lang][0] for lang in languages}

    def predict(doc: Document) -> Prediction:
        return to_prediction(doc.id, scores_for(doc), lower=backend.lower)

    iteration = 0
    if config.epochs == 0:
        for doc in docs:
            pred = predict(doc)
            resolved[doc.id] = pred
            trace.append((0, doc.id, pred.best, pred.margin, 0))
    else:
        for _ in range(config.epochs):
            unresolved = list(docs)
            if config.k == FULL:
                splits_left = len(unresolved)
            else:
                # more splits than documents degenerates to one bulk split
                splits_left = config.k if config.k <= len(unresolved) else 1
            while unresolved:
                iteration += 1
                preds = {doc.id: predict(doc) for doc in unresolved}
                unresolved.sort(key=lambda d: (-preds[d.id].margin, d.id))
                size = math.ceil(len(unresolved) / splits_left)
                split, unresolved = unresolved[:size], unresolved[size:]
                splits_left -= 1
                for doc in split:
                    pred = preds[doc.id]
                    adopt = config.ct is None or pred.margin > config.ct
                    if adopt:
                        for lang in backend.absorb(doc, pred.best):
                            versions[lang] += 1
                    resolved[doc.id] = pred
                    trace.append((iteration, doc.id, pred.best, pred.margin, int(adopt)))

    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for it, doc_id, best, margin, adopted in trace:
                fh.write(f"{it}\t{doc_id}\t{best}\t{margin!r}\t{adopted}\n")

    return [resolved[doc.id] for doc in sorted(docs, key=lambda d: d.id)]
