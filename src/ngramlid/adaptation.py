"""Confidence-ordered language-model adaptation over a closed test set.

One epoch works in rounds: take the unresolved documents in order of
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

Each epoch starts from the models the previous one left and folds every
adopted test document again, so with E epochs a document's text is
counted in the models up to E times, once per epoch that adopts it.

Asking for more splits than there are documents degenerates to a single
bulk split, which also makes the output identical to batch output.

A round needs the exact margin only of the documents it adopts. Every
other document only has to be shown to rank below the split, and for nb
an upper bound on its margin does that (``_NbBounds``), so most repeat
scorings are skipped. The output is the same as re-scoring every
unresolved document every round, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import mul
from pathlib import Path

from .corpus import Corpus, Document, NormalizedText, normalize
from .heli import HeliModelSet, heli_add_document, heli_score_doc
from .ngram import GramGroups, ModelSet, NgramModel
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


class _DocBounds:
    """One test document's share of ``_NbBounds``: its gram mass per
    length of the range and, per language index, the log totals its
    stored score was computed with (None when one of its lengths had no
    mass then), their mass-weighted sum, and what folds did since: the
    count growth ``d`` of its grams and the mass ``k`` per length of
    its grams that were new to the language."""

    __slots__ = ("mass", "then", "then_sum", "d", "k")

    def __init__(self, width: int, n_languages: int) -> None:
        self.mass = [0] * width
        self.then: list[tuple[float, ...] | None] = [None] * n_languages
        self.then_sum = [0.0] * n_languages
        self.d = [0.0] * n_languages
        self.k: list[dict[int, int] | None] = [None] * n_languages


class _NbBounds:
    """Bounds on a test document's nb scores after folds, from its last
    exact score ``S`` per language, without re-scoring it.

    Folds only add counts. With ``T_n`` the totals ``S`` was computed
    with, ``T'_n`` today's, ``M_n`` the document's gram mass at length
    ``n``, ``D`` the sum of ``m * log((c + a) / c)`` over its grams whose
    count grew from ``c`` by ``a``, and ``K_n`` the mass of its grams
    that were new to the language, the score now lies in

        S + min(1,pm) * sum M_n log(T'_n/T_n) - D
          - sum K_n (min(1,pm) log(T'_n/T_n) + pm log T_n)

        S + max(1,pm) * sum M_n log(T'_n/T_n) + max(0,1-pm) * sum K_n log T_n

    for every pm: a present gram's cost rises by ``log(T'/T)`` less its
    count's growth, an absent one's by ``pm log(T'/T)``, and a gram that
    became present costs between 0 and ``log T' - pm log T`` more. A
    length with no mass when ``S`` was computed forces an exact score.

    ``D`` and ``K_n`` are kept per (document, language) from postings,
    which map each gram to the test documents that hold it; every fold
    updates them for every test document, resolved or not, so a later
    epoch's bounds stay sound.
    """

    def __init__(self, backend: "_ScorerBackend", docs: list[Document]) -> None:
        model_set = backend.model_set
        pm = model_set.penalty_modifier
        self.pm = pm
        self.up, self.down, self.new_up = max(1.0, pm), min(1.0, pm), max(0.0, 1.0 - pm)
        self.languages = backend.languages
        self.index = {lang: j for j, lang in enumerate(self.languages)}
        self.min_n = model_set.range.min_n
        self.width = model_set.range.max_n - self.min_n + 1
        self.logs = [self._log_totals(model_set.models[lang]) for lang in self.languages]
        self.states: dict[int, _DocBounds] = {}
        # per length and gram, each test document holding it, once per occurrence
        self.postings: dict[int, dict[str, list[_DocBounds]]] = {}
        for doc in docs:
            state = self.states[doc.id] = _DocBounds(self.width, len(self.languages))
            for n, pairs in backend.grams(doc).groups:
                post = self.postings.setdefault(n, {})
                mass = 0
                for gram, m in pairs:
                    holders = post.get(gram)
                    if holders is None:
                        post[gram] = [state] * m
                    else:
                        holders += [state] * m
                    mass += m
                state.mass[n - self.min_n] = mass

    def _log_totals(self, model: NgramModel) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """``log T_n`` per length of the range (0.0 for no mass), and the
        offsets of the lengths with no mass."""
        totals = [model.totals.get(self.min_n + i, 0) for i in range(self.width)]
        logs = tuple(math.log(t) if t > 0 else 0.0 for t in totals)
        return logs, tuple(i for i, t in enumerate(totals) if t == 0)

    def scored(self, doc: Document, languages: list[str]) -> None:
        """Record that ``doc`` was just scored exactly against ``languages``."""
        state = self.states[doc.id]
        for lang in languages:
            j = self.index[lang]
            logs, empty = self.logs[j]
            state.then[j] = None if any(state.mass[i] for i in empty) else logs
            state.then_sum[j] = sum(map(mul, state.mass, logs))
            state.d[j] = 0.0
            state.k[j] = None

    def fold(self, grams: GramGroups, model: NgramModel, lang: str) -> None:
        """Charge a fold into ``lang`` to the test documents holding its
        grams, then fold it."""
        j = self.index[lang]
        for n, pairs in grams.groups:
            counts = model.counts.get(n, {})
            post = self.postings[n]
            offset = n - self.min_n
            for gram, a in pairs:
                c = counts.get(gram)
                if c is None:
                    for state in post[gram]:
                        k = state.k[j]
                        if k is None:
                            state.k[j] = {offset: 1}
                        else:
                            k[offset] = k.get(offset, 0) + 1
                else:
                    step = math.log((c + a) / c)
                    for state in post[gram]:
                        state.d[j] += step
        model.add_grams(grams)
        self.logs[j] = self._log_totals(model)

    def margin(self, doc: Document, entry: dict[str, tuple], stale: list[str]) -> float:
        """An upper bound on ``doc``'s margin: the second-smallest upper
        bound on a score minus the smallest lower bound. Each stale
        language's bounds are widened by ``1e-9 * (|S| + their terms + 1)``,
        far above the rounding error of an exact score."""
        state = self.states[doc.id]
        mass = state.mass
        hi = [entry[lang][0] for lang in self.languages]
        lo = hi[:]
        for lang in stale:
            j = self.index[lang]
            then = state.then[j]
            if then is None:
                return math.inf
            now = self.logs[j][0]
            now_sum = sum(map(mul, mass, now))
            grow = now_sum - state.then_sum[j]
            d = state.d[j]
            up = self.up * grow
            down = self.down * grow - d
            size = self.up * now_sum + d
            k = state.k[j]
            if k is not None:
                for i, km in k.items():
                    up += self.new_up * km * then[i]
                    charge = km * (self.down * (now[i] - then[i]) + self.pm * then[i])
                    down -= charge
                    size += charge
            s = hi[j]
            slack = 1e-9 * (abs(s) + size + 1.0)
            hi[j] = s + up + slack
            lo[j] = s + down - slack
        hi.sort()
        return hi[1] - min(lo)


class _ScorerBackend:
    """Gram-model backend: caches each document's grams, grouped by length
    once (or handed over already grouped), and supports re-scoring a
    single language after its model changed. nb (with two languages or
    more) bounds the margins of the stale documents among ``docs``, the
    test documents; the other methods bound nothing, so every stale
    document is re-scored. ``docs`` is None when nothing will be folded:
    each document is then scored once, and only handed-over grams are
    kept."""

    def __init__(
        self,
        model_set: ModelSet,
        method: str,
        grams: dict[int, GramGroups] | None,
        docs: list[Document] | None,
    ):
        self.model_set = model_set
        self.method = method
        self.lower = lower_is_better(method)
        self._grams = dict(grams or {})
        self.keep = docs is not None
        bounded = docs is not None and method == "nb" and len(model_set.models) > 1
        self.bounds = _NbBounds(self, docs) if bounded else None

    @property
    def languages(self) -> list[str]:
        return self.model_set.languages

    def grams(self, doc: Document) -> GramGroups:
        g = self._grams.get(doc.id)
        if g is None:
            g = self.model_set.doc_grams(doc)
            if self.keep:
                self._grams[doc.id] = g
        return g

    def score_all(self, doc: Document) -> dict[str, float]:
        scores = score_with(self.method, self.grams(doc), self.model_set)
        if self.bounds is not None:
            self.bounds.scored(doc, self.languages)
        return scores

    def score_one(self, doc: Document, lang: str) -> float:
        ms = self.model_set
        score = score_language(self.method, self.grams(doc), ms.models[lang], ms.penalty_modifier)
        if self.bounds is not None:
            self.bounds.scored(doc, [lang])
        return score

    def margin_bound(self, doc: Document, entry: dict, stale: list[str]) -> float:
        return math.inf if self.bounds is None else self.bounds.margin(doc, entry, stale)

    def absorb(self, doc: Document, lang: str) -> list[str]:
        grams = self.grams(doc)
        if not grams:
            return []
        model = self.model_set.models[lang]
        if self.bounds is None:
            model.add_grams(grams)
        else:
            self.bounds.fold(grams, model, lang)
        return [lang]


class _HeliBackend:
    """Backoff-model backend: caches each document's normalized text,
    unless ``keep`` is off (nothing will be folded, so each document is
    scored once). Adding data to one language can move the domain a word
    is scored in, which shifts every language's score, so ``absorb``
    reports every language (or none, for a wordless document), a
    document is always re-scored in full, and no margin is bounded."""

    lower = True

    def __init__(self, models: HeliModelSet, keep: bool):
        self.models = models
        self.keep = keep
        self._norms: dict[int, NormalizedText] = {}

    @property
    def languages(self) -> list[str]:
        return self.models.languages

    def norm(self, doc: Document) -> NormalizedText:
        norm = self._norms.get(doc.id)
        if norm is None:
            norm = normalize(doc.text)
            if self.keep:
                self._norms[doc.id] = norm
        return norm

    def score_all(self, doc: Document) -> dict[str, float]:
        return heli_score_doc(doc, self.models, norm=self.norm(doc))

    def margin_bound(self, doc: Document, entry: dict, stale: list[str]) -> float:
        return math.inf

    def absorb(self, doc: Document, lang: str) -> list[str]:
        norm = self.norm(doc)
        if not norm.words:
            return []
        heli_add_document(self.models, doc, lang, norm=norm)
        return self.languages


def _make_backend(model_set, method: str, grams: dict[int, GramGroups] | None, docs):
    if method == "heli":
        if not isinstance(model_set, HeliModelSet):
            raise ValueError("method 'heli' needs a HeliModelSet")
        return _HeliBackend(model_set, keep=docs is not None)
    if method not in ("simple", "sum_rf", "nb"):
        raise ValueError(f"unknown method {method!r}; expected one of {ADAPT_METHODS}")
    if not isinstance(model_set, ModelSet):
        raise ValueError(f"method {method!r} needs a ModelSet")
    return _ScorerBackend(model_set, method, grams, docs)


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
    ``epochs=0`` disables adaptation entirely: each document is scored
    once and nothing of it is kept but its prediction. The models inside
    ``model_set`` are mutated; pass a copy to keep the originals.

    Each round takes its split from a heap keyed by (-margin bound, id).
    A document whose scores are all current enters with its exact
    margin; any other enters with the backend's upper bound on its
    margin (infinite for a document never scored, and for every stale
    document of simple, sum_rf and heli). A popped document whose bound
    is not exact is re-scored and pushed back with its exact margin; an
    exact one at the top joins the split. So a document is re-scored
    only when it might rank in the split, and the split is the one a
    full re-scoring of every document would pick, ties by id included.

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
    docs = list(test)
    backend = _make_backend(model_set, method, grams, docs if config.epochs else None)
    languages = backend.languages
    if not languages:
        raise ValueError("model set has no languages")

    trace: list[tuple[int, int, str, float, int]] = []
    resolved: dict[int, Prediction] = {}

    versions = {lang: 0 for lang in languages}
    cache: dict[int, dict[str, tuple[float, int]]] = {}
    current: dict[int, Prediction] = {}  # each document's prediction from its last scoring

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
        pred = current[doc.id] = to_prediction(doc.id, scores_for(doc), lower=backend.lower)
        return pred

    def ranked(doc: Document) -> tuple:
        """The heap item of ``doc``: (-margin bound, id, its prediction when
        the bound is exact, else None, doc)."""
        entry = cache.get(doc.id)
        if entry is None:
            return (-math.inf, doc.id, None, doc)
        stale = [lang for lang in languages if entry[lang][1] != versions[lang]]
        if not stale:
            pred = current[doc.id]
            return (-pred.margin, doc.id, pred, doc)
        return (-backend.margin_bound(doc, entry, stale), doc.id, None, doc)

    iteration = 0
    if config.epochs == 0:
        for doc in docs:
            pred = to_prediction(doc.id, backend.score_all(doc), lower=backend.lower)
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
                heap = [ranked(doc) for doc in unresolved]
                heapq.heapify(heap)
                size = math.ceil(len(heap) / splits_left)
                split: list[tuple[Document, Prediction]] = []
                while len(split) < size:
                    _, doc_id, pred, doc = heapq.heappop(heap)
                    if pred is None:
                        pred = predict(doc)
                        heapq.heappush(heap, (-pred.margin, doc_id, pred, doc))
                    else:
                        split.append((doc, pred))
                unresolved = [item[3] for item in heap]
                splits_left -= 1
                for doc, pred in split:
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
