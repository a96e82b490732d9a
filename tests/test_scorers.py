from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from oracle_utils import BruteModel, impl_ranking

from ngramlid import (
    ModelSet,
    NgramModel,
    NgramRange,
    build_models,
    classify,
    score_nb,
    score_simple,
    score_sum_rf,
)
from ngramlid.corpus import Document
from ngramlid.ngram import _penalty
from ngramlid.scorers import score_with, to_prediction


def _model(language: str, counts: dict[int, dict[str, int]]) -> NgramModel:
    model = NgramModel(language=language, counts=counts)
    model.refresh()
    return model


def _model_set(rng: NgramRange, pm: float, **by_lang) -> ModelSet:
    models = {lang: _model(lang, counts) for lang, counts in by_lang.items()}
    return ModelSet(models=models, range=rng, penalty_modifier=pm)


def test_simple_counts_present_tokens():
    ms = _model_set(
        NgramRange(2, 2), 1.0, A={2: {"ab": 1}}, B={2: {"cd": 1}}
    )
    scores = score_simple(Counter({"ab": 2, "cd": 1}), ms)
    assert scores == {"A": 2, "B": 1}


def test_simple_empty_grams_all_tie():
    ms = _model_set(NgramRange(2, 2), 1.0, A={2: {"ab": 1}}, B={2: {"cd": 1}})
    scores = score_simple(Counter(), ms)
    assert scores == {"A": 0, "B": 0}


def test_simple_score_integral_and_bounded():
    rnd = random.Random(31)
    ms = _model_set(
        NgramRange(1, 2), 1.0, A={1: {"a": 3}, 2: {"ab": 1}}, B={2: {"xy": 2}}
    )
    for _ in range(100):
        grams = Counter(
            {
                g: rnd.randint(1, 4)
                for g in rnd.sample(["a", "b", "ab", "xy", "zz"], rnd.randint(0, 5))
            }
        )
        scores = score_simple(grams, ms)
        for value in scores.values():
            assert isinstance(value, int)
            assert 0 <= value <= sum(grams.values())


def test_sum_rf_single_gram():
    ms = _model_set(
        NgramRange(2, 2), 1.0, A={2: {"ab": 1, "cd": 3}}, B={2: {"xy": 7}}
    )
    scores = score_sum_rf(Counter({"ab": 1}), ms)
    assert scores["A"] == 0.25
    assert scores["B"] == 0.0


def test_sum_rf_linearity():
    ms = _model_set(NgramRange(2, 2), 1.0, A={2: {"ab": 2, "cd": 2}})
    single = score_sum_rf(Counter({"ab": 1}), ms)["A"]
    double = score_sum_rf(Counter({"ab": 2}), ms)["A"]
    assert double == 2 * single


def test_nb_present_vs_penalty():
    ms = _model_set(
        NgramRange(2, 2),
        2.0,
        A={2: {"xy": 10, "zz": 90}},
        B={2: {"qq": 100}},
    )
    scores = score_nb(Counter({"xy": 1}), ms)
    assert scores["A"] == pytest.approx(-math.log(0.1), rel=1e-12)
    assert scores["B"] == pytest.approx(2.0 * math.log(100), rel=1e-12)
    assert scores["A"] < scores["B"]  # lower is better; B is worse


def test_nb_empty_grams_all_tie():
    ms = _model_set(NgramRange(2, 2), 2.0, A={2: {"ab": 1}}, B={2: {"cd": 1}})
    assert score_nb(Counter(), ms) == {"A": 0.0, "B": 0.0}


def test_classify_recovers_training_language(make_corpus):
    corpus = make_corpus([("kanda villa", "aa"), ("zorro perro", "bb")])
    ms = build_models(corpus, NgramRange(2, 3), pm=2.0)
    for method in ("simple", "sum_rf", "nb"):
        pred = classify(Document(7, "kanda villa"), ms, method)
        assert pred.best == "aa"
        assert pred.doc_id == 7
        assert pred.margin > 0


def test_classify_matches_brute_force_oracle(make_corpus):
    pairs = [("kanda villa", "aa"), ("villa kol", "aa"), ("zorro perro", "bb")]
    ms = build_models(make_corpus(pairs), NgramRange(1, 3), pm=2.0)
    oracle = BruteModel(pairs, 1, 3)
    for text in ("kanda", "perro villa", "unrelated zz"):
        for method in ("simple", "sum_rf", "nb"):
            pred = classify(Document(0, text), ms, method)
            assert pred.best == oracle.ranking(text, method, pm=2)[0]


def test_classify_no_alphabetic_ties_lexicographic(make_corpus):
    corpus = make_corpus([("abc", "zz"), ("abd", "aa")])
    ms = build_models(corpus, NgramRange(2, 2), pm=2.0)
    for method in ("simple", "sum_rf", "nb"):
        pred = classify(Document(0, "12345 !!"), ms, method)
        assert pred.best == "aa"
        assert pred.margin == 0.0


def test_classify_symmetric_corpus_margin_zero(make_corpus):
    corpus = make_corpus([("aaa", "A"), ("bbb", "B")])
    ms = build_models(corpus, NgramRange(1, 2), pm=2.0)
    for method in ("simple", "sum_rf", "nb"):
        pred = classify(Document(0, "ab"), ms, method)
        assert pred.margin == 0.0
        assert pred.best == "A"


def test_classify_deterministic(make_corpus):
    corpus = make_corpus([("kanda villa", "aa"), ("zorro perro", "bb")])
    ms = build_models(corpus, NgramRange(1, 3), pm=2.0)
    doc = Document(3, "villa zorro")
    for method in ("simple", "sum_rf", "nb"):
        assert classify(doc, ms, method) == classify(doc, ms, method)


def test_classify_rejects_unknown_method(make_corpus):
    ms = build_models(make_corpus([("ab", "A")]), NgramRange(1, 1), pm=1.0)
    with pytest.raises(ValueError, match="unknown method"):
        classify(Document(0, "ab"), ms, "bayes")


def test_classify_empty_model_set_errors():
    ms = ModelSet(models={}, range=NgramRange(1, 1), penalty_modifier=1.0)
    with pytest.raises(ValueError):
        classify(Document(0, "ab"), ms, "nb")


def test_single_language_margin_zero(make_corpus):
    ms = build_models(make_corpus([("ab", "A")]), NgramRange(1, 2), pm=1.0)
    pred = classify(Document(0, "ab"), ms, "nb")
    assert pred.best == "A"
    assert pred.margin == 0.0


def test_nb_scale_invariance_when_all_grams_present(make_corpus):
    # duplicating every training document leaves relative frequencies, and
    # hence NB scores of fully covered docs, exactly unchanged
    pairs = [("ab cd", "A"), ("cd", "A"), ("xy xy", "B")]
    rng = NgramRange(1, 3)
    base = build_models(make_corpus(pairs), rng, pm=2.0)
    probe_a = Document(0, "ab cd")
    probe_b = Document(1, "xy")
    for k in (2, 3):
        scaled = build_models(make_corpus(pairs * k), rng, pm=2.0)
        for probe, lang in ((probe_a, "A"), (probe_b, "B")):
            before = classify(probe, base, "nb")
            after = classify(probe, scaled, "nb")
            assert after.scores[lang] == before.scores[lang]
            assert after.best == before.best == lang


def test_nb_unseen_gram_shifts_by_equal_penalty():
    # equal totals in every model make the penalty identical, so a brand-new
    # gram shifts every score by the same amount and keeps the ranking
    ms = _model_set(
        NgramRange(2, 2),
        2.0,
        A={2: {" a": 2, "aa": 2, "a ": 2}},
        B={2: {" b": 2, "bb": 2, "b ": 2}},
    )
    assert ms.models["A"].totals == ms.models["B"].totals == {2: 6}
    pen = _penalty(ms.penalty_modifier, 6)

    base = Counter({" a": 1, "aa": 1})
    extended = Counter({" a": 1, "aa": 1, "zz": 1})
    before = score_nb(base, ms)
    after = score_nb(extended, ms)
    for lang in ("A", "B"):
        assert after[lang] == before[lang] + 1 * pen
    assert impl_ranking(before, lower=True) == impl_ranking(after, lower=True)


def test_nb_ranking_matches_linear_space_product(make_corpus):
    pairs = [("ab ba", "A"), ("ab", "A"), ("bb ba", "B"), ("cc", "C")]
    ms = build_models(make_corpus(pairs), NgramRange(1, 2), pm=2.0)
    oracle = BruteModel(pairs, 1, 2)
    for text in ("ab", "ba bb", "cc ab", "zz"):
        scores = score_nb(ms.doc_grams(Document(0, text)), ms)
        products = oracle.nb_products(text, pm=2)
        assert isinstance(products["A"], Fraction)
        assert impl_ranking(scores, lower=True) == sorted(
            products, key=lambda lang: (-products[lang], lang)
        )


def test_to_prediction_tie_break_and_margin():
    pred = to_prediction(5, {"b": 1.0, "a": 1.0, "c": 3.0}, lower=True)
    assert pred.best == "a"
    assert pred.margin == 0.0
    pred = to_prediction(5, {"b": 2.0, "a": 1.0, "c": 3.0}, lower=False)
    assert pred.best == "c"
    assert pred.margin == 1.0


def test_score_with_matches_named_scorers():
    ms = _model_set(NgramRange(2, 2), 2.0, A={2: {"ab": 1}}, B={2: {"cd": 3}})
    grams = Counter({"ab": 1, "cd": 2, "zz": 1})
    assert score_with("simple", grams, ms) == score_simple(grams, ms)
    assert score_with("sum_rf", grams, ms) == score_sum_rf(grams, ms)
    assert score_with("nb", grams, ms) == score_nb(grams, ms)
