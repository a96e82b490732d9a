from __future__ import annotations

import random

import pytest

from ngramlid import (
    AdaptConfig,
    NgramRange,
    Prediction,
    build_models,
    classify,
    evaluate,
    sweep,
)
from ngramlid.corpus import Corpus, Document
from ngramlid import evaluation
from ngramlid.evaluation import SweepResult, SweepRow


def _preds(labels, ids=None):
    ids = ids if ids is not None else range(len(labels))
    return [
        Prediction(doc_id=i, best=label, scores={}, margin=0.0)
        for i, label in zip(ids, labels)
    ]


def _gold(labels):
    return Corpus(
        docs=tuple(Document(i, f"text{i}", label) for i, label in enumerate(labels))
    )


def test_all_correct_gives_ones():
    report = evaluate(_preds(["a", "b", "a"]), _gold(["a", "b", "a"]))
    assert report.macro_f1 == 1.0
    assert report.micro_f1 == 1.0
    assert report.n == 3
    assert report.per_class["a"].support == 2


def test_hand_counted_confusion_matrix():
    # gold A A B B, predicted A B B B
    report = evaluate(_preds(["A", "B", "B", "B"]), _gold(["A", "A", "B", "B"]))
    a, b = report.per_class["A"], report.per_class["B"]
    assert (a.precision, a.recall) == (1.0, 0.5)
    assert a.f1 == pytest.approx(2 / 3, rel=1e-12)
    assert (b.precision, b.recall) == (2 / 3, 1.0)
    assert b.f1 == pytest.approx(0.8, rel=1e-12)
    assert report.macro_f1 == pytest.approx(11 / 15, rel=1e-12)
    assert report.micro_f1 == 0.75
    assert report.confusion == {("A", "A"): 1, ("A", "B"): 1, ("B", "B"): 2}


def test_class_never_predicted_scores_zero_but_counts():
    report = evaluate(_preds(["a", "a", "a"]), _gold(["a", "a", "c"]))
    assert report.per_class["c"].f1 == 0.0
    assert report.per_class["c"].precision == 0.0
    assert report.per_class["c"].recall == 0.0
    assert report.macro_f1 == pytest.approx((0.8 + 0.0) / 2, rel=1e-12)


def test_never_gold_prediction_gets_no_row():
    report = evaluate(_preds(["a", "zz"]), _gold(["a", "a"]))
    assert set(report.per_class) == {"a"}
    assert report.per_class["a"].recall == 0.5
    assert report.confusion[("a", "zz")] == 1


def test_micro_f1_equals_accuracy_property():
    rnd = random.Random(51)
    labels = ["a", "b", "c", "d"]
    for _ in range(50):
        n = rnd.randint(1, 30)
        gold = [rnd.choice(labels) for _ in range(n)]
        pred = [rnd.choice(labels) for _ in range(n)]
        report = evaluate(_preds(pred), _gold(gold))
        accuracy = sum(g == p for g, p in zip(gold, pred)) / n
        assert report.micro_f1 == accuracy


def test_macro_invariant_under_label_permutation():
    rnd = random.Random(52)
    for _ in range(30):
        n = rnd.randint(2, 25)
        gold = [rnd.choice("abc") for _ in range(n)]
        pred = [rnd.choice("abc") for _ in range(n)]
        mapping = {"a": "x", "b": "y", "c": "z"}
        base = evaluate(_preds(pred), _gold(gold))
        renamed = evaluate(
            _preds([mapping[p] for p in pred]), _gold([mapping[g] for g in gold])
        )
        assert renamed.macro_f1 == base.macro_f1
        assert renamed.micro_f1 == base.micro_f1


def test_pair_order_permutation_invariance():
    gold = _gold(["a", "b", "a", "c"])
    preds = _preds(["a", "b", "c", "c"])
    shuffled = [preds[2], preds[0], preds[3], preds[1]]
    assert evaluate(shuffled, gold) == evaluate(preds, gold)


def test_alignment_errors():
    gold = _gold(["a", "b"])
    with pytest.raises(ValueError, match="align"):
        evaluate(_preds(["a"]), gold)
    with pytest.raises(ValueError, match="align"):
        evaluate(_preds(["a", "b"], ids=[0, 5]), gold)
    with pytest.raises(ValueError, match="duplicate"):
        evaluate(_preds(["a", "b"], ids=[0, 0]), gold)
    unlabeled = Corpus(docs=(Document(0, "x"),))
    with pytest.raises(ValueError, match="labeled"):
        evaluate(_preds(["a"]), unlabeled)


def test_report_renderings():
    report = evaluate(_preds(["A", "B", "B", "B"]), _gold(["A", "A", "B", "B"]))
    tsv = report.to_tsv()
    assert tsv.startswith("label\tprecision\trecall\tf1\tsupport\n")
    assert "macro_f1\t" in tsv and "micro_f1\t" in tsv
    pretty = report.pretty()
    assert "macro F1: 0.7333" in pretty
    assert "micro F1: 0.7500" in pretty


@pytest.fixture
def tiny_task(make_corpus):
    train = make_corpus(
        [("kanda villa", "aa"), ("villa kanda kollu", "aa"),
         ("gato perro", "bb"), ("perro zorro", "bb")]
    )
    dev = Corpus(
        docs=(
            Document(10, "kanda kollu", "aa"),
            Document(11, "zorro gato", "bb"),
            Document(12, "villa", "aa"),
        )
    )
    return train, dev


def test_sweep_single_cell_equals_direct_evaluation(tiny_task):
    train, dev = tiny_task
    rng = NgramRange(2, 3)
    result = sweep(train, dev, "nb", [rng], [2.0])
    assert len(result.rows) == 1
    models = build_models(train, rng, 2.0)
    direct = evaluate([classify(d, models, "nb") for d in dev], dev)
    row = result.rows[0]
    assert row.macro_f1 == direct.macro_f1
    assert row.micro_f1 == direct.micro_f1
    assert row.method == "nb" and row.range == rng and row.pm == 2.0


def test_sweep_rows_sorted_and_deterministic(tiny_task):
    train, dev = tiny_task
    ranges = [NgramRange(1, 2), NgramRange(2, 3), NgramRange(1, 3)]
    pms = [1.5, 2.0]
    first = sweep(train, dev, "nb", ranges, pms)
    second = sweep(train, dev, "nb", ranges, pms)
    assert first == second
    assert first.to_tsv() == second.to_tsv()
    macros = [row.macro_f1 for row in first.rows]
    assert macros == sorted(macros, reverse=True)
    assert len(first.rows) == 6
    # ties ordered by (min_n, max_n, pm)
    for left, right in zip(first.rows, first.rows[1:]):
        if left.macro_f1 == right.macro_f1:
            lkey = (left.range.min_n, left.range.max_n, left.pm)
            rkey = (right.range.min_n, right.range.max_n, right.pm)
            assert lkey < rkey


def test_sweep_ignores_pm_grid_for_unsmoothed_methods(tiny_task):
    train, dev = tiny_task
    result = sweep(train, dev, "simple", [NgramRange(1, 2)], [1.5, 2.0, 2.5])
    assert len(result.rows) == 1
    assert result.rows[0].pm == 1.0


def test_sweep_separable_corpus_is_perfect(make_corpus):
    # disjoint alphabets: every cell must hit macro F1 1.0
    train = make_corpus(
        [("aba bab", "A"), ("abba baa", "A"), ("xyx yxy", "B"), ("xxy yyx", "B")]
    )
    dev = Corpus(
        docs=(Document(20, "abab", "A"), Document(21, "yxyx", "B"))
    )
    result = sweep(
        train, dev, "nb", [NgramRange(1, 2), NgramRange(2, 3)], [1.5, 2.0]
    )
    assert all(row.macro_f1 == 1.0 for row in result.rows)


def test_sweep_with_adaptation(tiny_task):
    train, dev = tiny_task
    result = sweep(
        train, dev, "nb", [NgramRange(2, 3)], [2.0], adapt=AdaptConfig(k=2, epochs=1)
    )
    assert len(result.rows) == 1
    # adaptation clones models per cell; rerunning gives identical output
    again = sweep(
        train, dev, "nb", [NgramRange(2, 3)], [2.0], adapt=AdaptConfig(k=2, epochs=1)
    )
    assert result == again


def test_sweep_heli_method(tiny_task):
    train, dev = tiny_task
    result = sweep(train, dev, "heli", [NgramRange(2, 3)], [1.1, 1.2])
    assert len(result.rows) == 2
    assert all(row.method == "heli" for row in result.rows)


def test_sweep_parallel_jobs_match_serial(tiny_task):
    train, dev = tiny_task
    ranges = [NgramRange(1, 2), NgramRange(2, 3)]
    serial = sweep(train, dev, "nb", ranges, [2.0], jobs=1)
    parallel = sweep(train, dev, "nb", ranges, [2.0], jobs=2)
    assert serial == parallel


def test_sweep_starts_at_most_one_worker_per_range(tiny_task, monkeypatch):
    started = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", SerialPool)
    train, dev = tiny_task
    ranges = [NgramRange(1, 2), NgramRange(2, 3)]
    pooled = sweep(train, dev, "nb", ranges, [2.0], jobs=1000)
    assert pooled == sweep(train, dev, "nb", ranges, [2.0])
    assert started == [2]


def test_sweep_empty_grid_errors(tiny_task):
    train, dev = tiny_task
    with pytest.raises(ValueError):
        sweep(train, dev, "nb", [], [2.0])
    with pytest.raises(ValueError):
        sweep(train, dev, "nb", [NgramRange(1, 2)], [])
    with pytest.raises(ValueError, match="unknown method"):
        sweep(train, dev, "tfidf", [NgramRange(1, 2)], [2.0])
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            sweep(train, dev, "nb", [NgramRange(1, 2)], [2.0], jobs=jobs)
    # the sweep builds with the default preprocessing; no caller set another
    with pytest.raises(TypeError):
        sweep(train, dev, "nb", [NgramRange(1, 2)], [2.0], lowercase=False)


def test_sweep_tsv_format():
    result = SweepResult(
        rows=(SweepRow("nb", NgramRange(2, 6), 2.15, 0.8609, 0.9339),)
    )
    tsv = result.to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "method\trange_min\trange_max\tpm\tmacro_f1\tmicro_f1"
    assert lines[1].split("\t") == ["nb", "2", "6", "2.15", "0.8609", "0.9339"]
