from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import pytest

from ngramlid import (
    AdaptConfig,
    HeliConfig,
    NgramRange,
    Prediction,
    adaptive_identify,
    build_models,
    classify,
    evaluate,
    heli_build,
    sweep,
)
from ngramlid.adaptation import ADAPT_METHODS
from ngramlid.corpus import Corpus, Document, ordered_split
from ngramlid import evaluation
from ngramlid.evaluation import SweepResult, SweepRow, _exact_parts
from ngramlid.ngram import GramGroups, NgramModel
from ngramlid.scorers import _nb_length_terms, score_with, to_prediction
from ngramlid.synth import generate, spec_from_dict


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


@pytest.fixture(scope="module")
def synth_task():
    spec = spec_from_dict({
        "seed": 7,
        "lines_per_language": 16,
        "words_per_line": 3,
        "mixing_rate": 0.35,
        "shared": {"inventory": "etaoins", "word_lengths": [2, 3, 5, 7]},
        "languages": [
            {"code": "kan", "inventory": "abcdefgh"},
            {"code": "mal", "inventory": "cdefghij"},
            {"code": "tam", "inventory": "efghijkl"},
        ],
    })
    return ordered_split(generate(spec), 0.7)


GRID = [NgramRange(1, 2), NgramRange(2, 4), NgramRange(3, 6), NgramRange(5, 6)]


def _reference_sweep(train, dev, method, ranges, pms, adapt):
    """One build per cell, the way a user would evaluate each cell alone."""
    rows = []
    for rng in ranges:
        for pm in pms if method in ("nb", "heli") else [1.0]:
            if method == "heli":
                models = heli_build(train, HeliConfig(lnr=rng, onr=rng, lw=True, ow=True, pm=pm))
            else:
                models = build_models(train, rng, pm)
            preds = adaptive_identify(dev, models, method, adapt or AdaptConfig(epochs=0))
            report = evaluate(preds, dev)
            rows.append(SweepRow(method, rng, pm, report.macro_f1, report.micro_f1))
    rows.sort(key=lambda r: (-r.macro_f1, r.range.min_n, r.range.max_n, r.pm))
    return SweepResult(rows=tuple(rows))


@pytest.mark.parametrize(
    "adapt", [None, AdaptConfig(k=3), AdaptConfig(k=3, epochs=0)], ids=["plain", "adapt", "epochs0"]
)
@pytest.mark.parametrize("method", ADAPT_METHODS)
def test_sweep_equals_per_range_builds(synth_task, method, adapt):
    train, dev = synth_task
    pms = [1.2, 2.15]
    result = sweep(train, dev, method, GRID, pms, adapt=adapt)
    assert result == _reference_sweep(train, dev, method, GRID, pms, adapt)
    assert len({row.macro_f1 for row in result.rows}) > 1  # the grid discriminates


def _capture_builds(monkeypatch):
    """Record every model set the sweep builds, with a deep copy taken
    before any cell used it."""
    built = []

    def capture(build):
        def wrapped(*args, **kwargs):
            models = build(*args, **kwargs)
            built.append((models, copy.deepcopy(models)))
            return models

        return wrapped

    monkeypatch.setattr(evaluation, "build_models", capture(build_models))
    monkeypatch.setattr(evaluation, "heli_build", capture(heli_build))
    return built


@pytest.mark.parametrize("method", ["nb", "heli"])
def test_adaptation_sweep_leaves_the_shared_build_unchanged(synth_task, monkeypatch, method):
    train, dev = synth_task
    built = _capture_builds(monkeypatch)
    sweep(train, dev, method, GRID, [1.5, 2.15], adapt=AdaptConfig(k=2))
    assert len(built) == 1  # one build over the union range 1-6
    models, before = built[0]
    for kind, by_lang in before.submodels.items():
        for lang, model in by_lang.items():
            after = models.submodels[kind][lang]
            assert after.counts == model.counts
            assert after.totals == model.totals


@pytest.mark.parametrize("method", ["simple", "sum_rf", "heli"])
def test_sweep_without_epochs_shares_the_union_counts(synth_task, monkeypatch, method):
    # epochs=0 never folds a document, so no cell copies the union build's
    # counts, whatever k is; it used to copy them whenever adapt was given
    train, dev = synth_task
    built = _capture_builds(monkeypatch)
    cells = []

    def scored(test, models, *args, **kwargs):
        cells.append(models)
        return adaptive_identify(test, models, *args, **kwargs)

    monkeypatch.setattr(evaluation, "adaptive_identify", scored)
    sweep(train, dev, method, GRID, [1.5, 2.15], adapt=AdaptConfig(k=3, epochs=0))
    base = built[0][0]
    assert len(cells) == len(GRID) * (2 if method == "heli" else 1)
    for cell in cells:
        for kind, by_lang in cell.submodels.items():
            for lang, model in by_lang.items():
                for n, counts in model.counts.items():
                    assert counts is base.submodels[kind][lang].counts[n]


def test_sweep_parallel_jobs_match_serial(synth_task):
    train, dev = synth_task
    for method, adapt in (("nb", None), ("heli", None), ("nb", AdaptConfig(k=2))):
        serial = sweep(train, dev, method, GRID, [1.5, 2.0], adapt=adapt, jobs=1)
        parallel = sweep(train, dev, method, GRID, [1.5, 2.0], adapt=adapt, jobs=2)
        assert serial == parallel


def test_sweep_starts_at_most_one_worker_per_range(tiny_task, monkeypatch):
    started, grouped = [], []

    class SerialPool:  # records the pool size and its range groups; starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            grouped.append([task[3] for task in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", SerialPool)
    train, dev = tiny_task
    r12, r23, r34 = NgramRange(1, 2), NgramRange(2, 3), NgramRange(3, 4)
    built = _capture_builds(monkeypatch)
    pooled = sweep(train, dev, "nb", [r23, r12], [2.0], jobs=1000)
    assert started == [2] and grouped == [[[r12], [r23]]]
    assert pooled == sweep(train, dev, "nb", [r12, r23], [2.0])
    assert started == [2]  # one job runs in this process
    # fewer jobs than ranges: contiguous groups, one build each
    del built[:]
    pooled = sweep(train, dev, "nb", [r12, r23, r34], [2.0], jobs=2)
    assert started == [2, 2] and grouped[-1] == [[r12], [r23, r34]]
    assert [models.range for models, _ in built] == [r12, NgramRange(2, 4)]
    assert pooled == sweep(train, dev, "nb", [r12, r23, r34], [2.0])


def test_sweep_empty_grid_errors(tiny_task):
    train, dev = tiny_task
    with pytest.raises(ValueError):
        sweep(train, dev, "nb", [], [2.0])
    for method in ADAPT_METHODS:  # simple and sum_rf too, though they sweep pm 1.0
        with pytest.raises(ValueError, match="no penalty modifiers"):
            sweep(train, dev, method, [NgramRange(1, 2)], [])
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


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("method", ADAPT_METHODS)
def test_sweep_checks_every_pm_before_building(tiny_task, monkeypatch, method, bad):
    # simple and sum_rf sweep one cell per range, but check the grid all the same
    train, dev = tiny_task
    built = _capture_builds(monkeypatch)
    with pytest.raises(ValueError, match="penalty modifier"):
        sweep(train, dev, method, [NgramRange(1, 2)], [2.0, bad])
    assert built == []


def _random_nb_task(seed):
    """Random three-language corpora whose dev side has what a term cache
    must get right: a wordless document, absent grams of multiplicity
    two or more, and gram lengths the language "sh" has none of (its
    words are at most two letters, so it has no 5- or 6-grams)."""
    rnd = random.Random(seed)

    def text(letters, lengths, words):
        return " ".join(
            "".join(rnd.choice(letters) for _ in range(rnd.choice(lengths)))
            for _ in range(words)
        )

    langs = {"ab": ("abcdef", (1, 2, 3, 5)), "cd": ("cdefgh", (2, 3, 4, 6)), "sh": ("aceg", (1, 2))}
    train = Corpus(docs=tuple(
        Document(i, text(*langs[lang], rnd.randint(1, 6)), lang)
        for i, lang in enumerate(sorted(langs) * 6)
    ))
    dev = [Document(100, " ,. ", "ab"), Document(101, "zzq zzq zzq qq", "cd")]
    for i in range(8):
        lang = rnd.choice(sorted(langs))
        letters, _ = langs[lang]
        dev.append(Document(102 + i, text(letters + "xy", (1, 2, 4, 5, 6), rnd.randint(1, 5)), lang))
    return train, Corpus(docs=tuple(dev))


def _awkward_floats(rnd, count):
    """Floats that stress an exact sum: exponents from about 1e-300 to
    1e300, subnormals, signed zeros, and each value's near-negation, so
    that large terms cancel."""
    out = []
    for _ in range(count):
        kind = rnd.randrange(5)
        if kind == 0:
            x = rnd.uniform(-10, 10) * 10.0 ** rnd.randint(-300, 300)
        elif kind == 1:
            x = rnd.randint(-(2**52), 2**52) * math.ulp(0.0)  # subnormal
        elif kind == 2:
            x = rnd.choice((0.0, -0.0))
        elif kind == 3 and out:
            y = rnd.choice(out)  # cancels y but for its last bits
            x = -y + rnd.choice((0.0, math.ulp(y), -math.ulp(y), rnd.uniform(-1, 1)))
        else:
            x = rnd.uniform(-50, 50)
        out.append(x)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_exact_parts_keep_every_fsum_bit(seed):
    rnd = random.Random(seed)
    for case in range(600):
        if case % 10 == 0:  # all zeros, -0.0 among them
            terms = [rnd.choice((0.0, -0.0)) for _ in range(rnd.randint(1, 4))]
        else:
            terms = _awkward_floats(rnd, rnd.randint(0, 12))
        parts = _exact_parts(terms)
        assert sum(map(Fraction, parts)) == sum(map(Fraction, terms))
        assert len(parts) == bool(terms) + sum(1 for p in parts[1:] if p)
        assert not terms or parts[0].hex() == math.fsum(terms).hex()
        for extra in ([], [0.0], [-0.0], _awkward_floats(rnd, rnd.randint(1, 6))):
            assert math.fsum(parts + extra).hex() == math.fsum(terms + extra).hex(), (terms, extra)


@pytest.mark.parametrize("seed", range(12))
def test_nb_sweep_scores_equal_direct_scores(monkeypatch, seed):
    # every score the term cache produces == score_with on the cell's
    # slices, bit for bit; recorded where the sweep makes its predictions
    train, dev = _random_nb_task(seed)
    scored = []

    def record(doc_id, scores, lower):
        scored.append((doc_id, scores))
        return to_prediction(doc_id, scores, lower)

    monkeypatch.setattr(evaluation, "to_prediction", record)
    ranges = [NgramRange(1, 1), NgramRange(1, 3), NgramRange(2, 6), NgramRange(4, 6), NgramRange(5, 5)]
    pms = sorted([1.0, 2.15, 1.3 + seed / 7])
    sweep(train, dev, "nb", ranges, pms)

    base = build_models(train, NgramRange(1, 6), pms[0])
    grams = {doc.id: GramGroups(base.doc_grams(doc)) for doc in dev}
    expected = [
        (doc.id, score_with("nb", grams[doc.id].sliced(rng), base.with_pm(pm, rng=rng)))
        for rng in ranges for pm in pms for doc in dev
    ]
    # by float.hex, which, unlike ==, tells -0.0 from 0.0
    assert [(i, {lang: s.hex() for lang, s in scores.items()}) for i, scores in scored] == [
        (i, {lang: s.hex() for lang, s in scores.items()}) for i, scores in expected
    ]
    # absent grams repeated within a length, and one of multiplicity
    # above 1, in a range of two or more lengths
    split = [(n, absent) for g in grams.values() for m in base.models.values()
             for n, _, absent in _nb_length_terms(g.groups, m)]
    assert any(len(absent) > len(set(absent)) for _, absent in split)
    assert any(
        rng.min_n < rng.max_n and rng.holds(n) and max(absent, default=0) > 1
        for rng in ranges for n, absent in split
    )
    # the cases the docstring of _random_nb_task promises
    assert not grams[100]
    assert dict(dict(grams[101].groups)[4])[" zzq"] == 3
    assert " zzq" not in base.models["ab"].counts[4]
    assert 5 not in base.models["sh"].counts and 5 not in base.models["sh"].totals
    assert any(n == 5 for g in grams.values() for n, _ in g.groups)


@pytest.mark.parametrize("adapt", [None, AdaptConfig(k=2, epochs=0)], ids=["plain", "epochs0"])
def test_nb_sweep_computes_terms_once_per_document_and_language(synth_task, monkeypatch, adapt):
    train, dev = synth_task
    calls = []

    def counted(grouped, model):
        calls.append(model.language)
        return _nb_length_terms(grouped, model)

    monkeypatch.setattr(evaluation, "_nb_length_terms", counted)
    monkeypatch.setattr(evaluation, "adaptive_identify", None)  # no per-cell scoring pass
    result = sweep(train, dev, "nb", GRID[:3], [1.2, 1.5, 2.0, 2.15], adapt=adapt)
    assert len(result.rows) == 12
    assert len(calls) == len(dev) * len(train.label_set)


@pytest.mark.parametrize("adapt", [None, AdaptConfig(k=2, epochs=0)], ids=["plain", "epochs0"])
def test_nb_sweep_cells_clone_no_model(synth_task, monkeypatch, adapt):
    # each cell charges its pm to the union build's totals directly
    train, dev = synth_task
    want = sweep(train, dev, "nb", GRID, [1.2, 2.15], adapt=adapt)
    monkeypatch.setattr(NgramModel, "clone", None)
    assert sweep(train, dev, "nb", GRID, [1.2, 2.15], adapt=adapt) == want
