"""Document scoring: simple scoring, sum of relative frequencies, and
the penalty-smoothed Naive Bayes formulation.

Simple scoring and the frequency sum are higher-is-better; Naive Bayes
accumulates negative log relative frequencies, so lower is better. The
penalty modifier only ever matters for Naive Bayes. Models store no pm:
every scorer takes the scored model set's pm as its last argument.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Document
from .ngram import GramGroups, ModelSet, NgramModel, _penalty, group_by_length

METHODS = ("simple", "sum_rf", "nb")


@dataclass(frozen=True)
class Prediction:
    doc_id: int
    best: str
    scores: dict[str, float]
    margin: float


def _score_simple(grouped, model: NgramModel, pm: float) -> float:
    hit = 0
    for length, items in grouped:
        counts = model.counts.get(length)
        if not counts:
            continue
        for gram, mult in items:
            if gram in counts:
                hit += mult
    return hit


def _score_sum_rf(grouped, model: NgramModel, pm: float) -> float:
    # integer accumulation per length, one division each: equal exact
    # scores come out as equal floats, whatever grams produced them
    terms = []
    for length, items in grouped:
        counts = model.counts.get(length)
        if not counts:
            continue
        acc = 0
        for gram, mult in items:
            c = counts.get(gram)
            if c is not None:
                acc += mult * c
        if acc:
            terms.append(acc / model.totals[length])
    return math.fsum(terms)


def _score_nb(grouped, model: NgramModel, pm: float) -> float:
    # Present grams cost -log(count/total); absent ones cost the
    # penalty at that gram length. fsum keeps the score
    # independent of gram enumeration order.
    terms = []
    for length, items in grouped:
        counts = model.counts.get(length, {})
        denom = model.totals.get(length, 0)
        pen = _penalty(pm, denom)
        for gram, mult in items:
            c = counts.get(gram)
            if c is None:
                terms.append(mult * pen)
            else:
                terms.append(mult * -math.log(c / denom))
    return math.fsum(terms)


def _nb_length_terms(grouped, model: NgramModel) -> list[tuple[int, list[float], list[int]]]:
    """``_score_nb``'s terms split by gram length, for a sweep to reuse
    across penalty modifiers: ``(length, present, absent)`` per group,
    where ``present`` holds each present gram's term and ``absent`` each
    absent gram's multiplicity.

    Only absent grams depend on pm. ``fsum`` over ``present`` plus one
    ``mult * _penalty(pm, model.totals.get(length, 0))`` per ``absent``
    entry, for every length of a range, is exactly rounded over the same
    terms as ``_score_nb`` on the range's slice, so it gives the same
    float. Any floats with the exact sum of ``present`` give it too, so
    the sweep keeps each length's present terms as a few such floats
    (``evaluation._exact_parts``). The two stay separate loops: scoring
    through this split measured slower on the adaptation hot path.
    """
    split = []
    for length, items in grouped:
        counts = model.counts.get(length, {})
        denom = model.totals.get(length, 0)
        present, absent = [], []
        for gram, mult in items:
            c = counts.get(gram)
            if c is None:
                absent.append(mult)
            else:
                present.append(mult * -math.log(c / denom))
        split.append((length, present, absent))
    return split


_SCORERS = {"simple": _score_simple, "sum_rf": _score_sum_rf, "nb": _score_nb}


def score_simple(grams: Counter, model_set: ModelSet) -> dict[str, float]:
    """Number of gram tokens (with multiplicity) found in each model."""
    return score_with("simple", grams, model_set)


def score_sum_rf(grams: Counter, model_set: ModelSet) -> dict[str, float]:
    """Sum of per-gram relative frequencies; absent grams contribute 0."""
    return score_with("sum_rf", grams, model_set)


def score_nb(grams: Counter, model_set: ModelSet) -> dict[str, float]:
    """Sum of negative log relative frequencies, penalty-smoothed. Lower wins."""
    return score_with("nb", grams, model_set)


def score_with(
    method: str, grams: Counter | GramGroups, model_set: ModelSet
) -> dict[str, float]:
    """Score all languages of a model set over a precomputed gram multiset,
    given as a Counter or already grouped by length."""
    scorer = _SCORERS[method]
    grouped = group_by_length(grams)
    pm = model_set.penalty_modifier
    return {lang: scorer(grouped, m, pm) for lang, m in model_set.models.items()}


def score_language(
    method: str, grams: Counter | GramGroups, model: NgramModel, pm: float
) -> float:
    """Score a single language under penalty modifier ``pm``; bit-identical
    to its entry in ``score_with`` on a model set with that pm."""
    return _SCORERS[method](group_by_length(grams), model, pm)


def lower_is_better(method: str) -> bool:
    return method == "nb"


def to_prediction(
    doc_id: int, scores: dict[str, float], lower: bool
) -> Prediction:
    """Pick the winner under the given polarity.

    Ties go to the lexicographically smallest language code; the margin
    is the absolute gap between the two best scores (0.0 when there is
    only one language).
    """
    if not scores:
        raise ValueError("cannot predict from an empty score map")
    ordered = sorted(
        scores.items(), key=lambda kv: ((kv[1] if lower else -kv[1]), kv[0])
    )
    best = ordered[0][0]
    margin = abs(ordered[1][1] - ordered[0][1]) if len(ordered) > 1 else 0.0
    return Prediction(doc_id=doc_id, best=best, scores=dict(scores), margin=float(margin))


def classify(doc: Document, model_set: ModelSet, method: str) -> Prediction:
    """Score one document with the chosen method and pick a language."""
    if method not in _SCORERS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not model_set.models:
        raise ValueError("model set has no languages")
    grams = model_set.doc_grams(doc)
    scores = score_with(method, grams, model_set)
    return to_prediction(doc.id, scores, lower=lower_is_better(method))
