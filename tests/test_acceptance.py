"""Acceptance gate.

One test per acceptance criterion, each printing a PASS line with its
measurements (run with ``pytest -s`` or ``-rA`` to see them). The
reference-score reproduction criterion needs the DLI shared-task data,
which cannot ship with the repository; point DLI_DATA_DIR at it to
enable that test, otherwise criteria 1-4 and 6 constitute acceptance.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from oracle_utils import BruteModel, impl_ranking, random_tiny_corpus

from ngramlid import (
    AdaptConfig,
    FULL,
    HeliConfig,
    LanguageSpec,
    NgramRange,
    SynthSpec,
    adaptive_identify,
    build_models,
    classify,
    evaluate,
    generate,
    heli_build,
    heli_classify,
    heli_score_doc,
    load_models,
    load_tsv,
    normalize,
    ordered_split,
    save_models,
    sweep,
)
from ngramlid.cli import write_predictions
from ngramlid.corpus import Corpus, Document
from ngramlid.ngram import extract_ngrams
from ngramlid.scorers import score_with


def _corpus(pairs):
    return Corpus(
        docs=tuple(Document(i, text, label) for i, (text, label) in enumerate(pairs))
    )


def _unlabeled(texts):
    return Corpus(docs=tuple(Document(i, t) for i, t in enumerate(texts)))


# --------------------------------------------------------------------------
# Criterion 1: brute-force oracle equivalence on randomized tiny corpora
# --------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """Every strict score comparison must agree with exact arithmetic;
    languages the oracle proves exactly tied may appear in either order."""
    started = time.perf_counter()
    rnd = random.Random(20210414)
    corpora = 0
    checks = 0
    tie_groups = 0
    while corpora < 100:
        pairs, probes, lo, hi, pm = random_tiny_corpus(rnd)
        corpora += 1
        model_set = build_models(_corpus(pairs), NgramRange(lo, hi), float(pm))
        oracle = BruteModel(pairs, lo, hi)
        for text in probes:
            grams = model_set.doc_grams(Document(0, text))
            for method in ("simple", "sum_rf", "nb"):
                scores = score_with(method, grams, model_set)
                got = impl_ranking(scores, lower=method == "nb")
                expected = oracle.ranking_classes(text, method, pm=pm)
                tie_groups += sum(1 for cls in expected if len(cls) > 1)
                pos = 0
                for cls in expected:
                    chunk = set(got[pos : pos + len(cls)])
                    assert chunk == cls, (
                        f"corpus {corpora}: method {method}, text {text!r}: "
                        f"{got} not ordered like {expected}"
                    )
                    pos += len(cls)
                checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 PASS: {checks} rankings over {corpora} random corpora "
        f"match brute force exactly ({tie_groups} proven-tie groups, either "
        f"order accepted) in {elapsed:.2f}s"
    )


# --------------------------------------------------------------------------
# Criterion 2: every documented invariant encoded as a property test
# --------------------------------------------------------------------------


def _random_pairs(rnd, langs=("A", "B", "C")):
    pairs = [(f"{lang.lower()}base word", lang) for lang in langs]
    for _ in range(rnd.randint(3, 12)):
        lang = rnd.choice(langs)
        text = " ".join(
            "".join(rnd.choice("abcdef") for _ in range(rnd.randint(1, 5)))
            for _ in range(rnd.randint(1, 4))
        )
        pairs.append((text, lang))
    return pairs


def test_criterion_2_invariant_suite():
    rnd = random.Random(99)
    checked = []

    # normalize idempotence
    for _ in range(50):
        text = "".join(rnd.choice("ab XY.9é!") for _ in range(rnd.randint(0, 25)))
        norm = normalize(text)
        assert normalize(" ".join(norm.words)) == norm
    checked.append("normalize idempotence")

    # ordered split partitioning and exact floor quotas
    import warnings

    for _ in range(20):
        pairs = _random_pairs(rnd)
        corpus = _corpus(pairs)
        fraction = rnd.choice([0.4, 0.7, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train, dev = ordered_split(corpus, fraction)
        ids = sorted([d.id for d in train] + [d.id for d in dev])
        assert ids == [d.id for d in corpus]
        assert not set(d.id for d in train) & set(d.id for d in dev)
        for label, n in corpus.label_counts().items():
            assert train.label_counts().get(label, 0) == math.floor(fraction * n)
    checked.append("split partitioning")

    # gram-count formula: single word of length L gives L+3-n grams
    for _ in range(50):
        length = rnd.randint(1, 9)
        n = rnd.randint(1, 12)
        word = "x" * length
        grams = extract_ngrams(normalize(word), NgramRange(n, n))
        assert sum(grams.values()) == max(0, length + 3 - n)
    checked.append("gram-count formula")

    # count conservation: totals equal direct enumeration
    pairs = _random_pairs(rnd)
    model_set = build_models(_corpus(pairs), NgramRange(1, 3), 2.0)
    for lang, model in model_set.models.items():
        expected: Counter = Counter()
        for text, label in pairs:
            if label == lang:
                for word in normalize(text).lowercased:
                    for n in range(1, 4):
                        expected[n] += max(0, len(word) + 3 - n)
        assert model.totals == {n: c for n, c in expected.items() if c}
    checked.append("count conservation")

    # model round-trip identity
    path = Path(os.environ.get("TMPDIR", "/tmp")) / "acceptance_model.tsv"
    save_models(model_set, path)
    assert load_models(path) == model_set
    path.unlink()
    checked.append("model round-trip")

    # scorer determinism and simple-score integrality
    doc = Document(0, "abc fed aa")
    for method in ("simple", "sum_rf", "nb"):
        assert classify(doc, model_set, method) == classify(doc, model_set, method)
    simple_scores = score_with("simple", model_set.doc_grams(doc), model_set)
    budget = sum(c for _, pairs in model_set.doc_grams(doc).groups for _, c in pairs)
    for value in simple_scores.values():
        assert isinstance(value, int) and 0 <= value <= budget
    checked.append("determinism + simple bounds")

    # deterministic tie-breaking
    tie_models = build_models(_corpus([("aaa", "zz"), ("bbb", "aa")]), NgramRange(1, 2), 2.0)
    for method in ("simple", "sum_rf", "nb"):
        pred = classify(Document(0, "1234"), tie_models, method)
        assert pred.best == "aa" and pred.margin == 0.0
    checked.append("tie-breaking")

    # NB count-scale invariance on fully covered probes
    pairs = [("ab cd", "A"), ("cd cd", "A"), ("xy", "B")]
    base = build_models(_corpus(pairs), NgramRange(1, 3), 2.0)
    scaled = build_models(_corpus(pairs * 3), NgramRange(1, 3), 2.0)
    probe = Document(0, "cd ab")
    assert classify(probe, base, "nb").scores["A"] == classify(probe, scaled, "nb").scores["A"]
    checked.append("NB scale invariance")

    # adaptation: cardinality, order, termination bound, k=1 batch equality
    train = _corpus(_random_pairs(rnd))
    test = _unlabeled(["ab cd", "fed fed", "aabase", "zz", "cbase word"])
    models = build_models(train, NgramRange(1, 3), 2.0)
    batch = [classify(d, models, "nb") for d in test]
    for k in (1, 2, FULL):
        run_models = models.with_pm(2.0, copy_counts=True)
        preds = adaptive_identify(test, run_models, "nb", AdaptConfig(k=k, epochs=1))
        assert [p.doc_id for p in preds] == [d.id for d in test]
        if k == 1:
            assert preds == batch
    checked.append("adaptation cardinality/order/k=1")

    # adaptation model-growth conservation via trace
    trace_path = Path(os.environ.get("TMPDIR", "/tmp")) / "acceptance_trace.tsv"
    run_models = models.with_pm(2.0, copy_counts=True)
    before = {
        lang: {n: dict(t) for n, t in m.counts.items()}
        for lang, m in run_models.models.items()
    }
    adaptive_identify(
        test, run_models, "nb", AdaptConfig(k=2, epochs=1), trace_path=trace_path
    )
    adopted = {lang: Counter() for lang in run_models.models}
    for line in trace_path.read_text().splitlines():
        _, doc_id, predicted, _, flag = line.split("\t")
        if flag == "1":
            for _, pairs in run_models.doc_grams(test.docs[int(doc_id)]).groups:
                adopted[predicted].update(dict(pairs))
    for lang, model in run_models.models.items():
        grown: Counter = Counter()
        for n, table in model.counts.items():
            for gram, count in table.items():
                delta = count - before[lang].get(n, {}).get(gram, 0)
                if delta:
                    grown[gram] = delta
        assert grown == adopted[lang]
    trace_path.unlink()
    checked.append("adaptation conservation")

    # micro F1 = accuracy; macro invariant under label permutation
    from ngramlid import Prediction

    for _ in range(20):
        n = rnd.randint(1, 20)
        gold = [rnd.choice("abc") for _ in range(n)]
        pred = [rnd.choice("abc") for _ in range(n)]
        preds = [Prediction(i, p, {}, 0.0) for i, p in enumerate(pred)]
        gold_corpus = _corpus([(f"t{i}", g) for i, g in enumerate(gold)])
        report = evaluate(preds, gold_corpus)
        assert report.micro_f1 == sum(g == p for g, p in zip(gold, pred)) / n
        mapping = {"a": "q", "b": "r", "c": "s"}
        renamed = evaluate(
            [Prediction(i, mapping[p], {}, 0.0) for i, p in enumerate(pred)],
            _corpus([(f"t{i}", mapping[g]) for i, g in enumerate(gold)]),
        )
        assert renamed.macro_f1 == report.macro_f1
    checked.append("micro=accuracy + macro permutation")

    # heli: word-order permutation invariance and lower-is-better polarity
    heli_models = heli_build(
        _corpus(
            [
                ("kanda villa zzzz kanda kanda", "aa"),
                ("gato perro gato gato perro", "bb"),
            ]
        ),
        HeliConfig(lnr=NgramRange(2, 4), onr=None, lw=True, ow=False, pm=1.5),
    )
    a = heli_score_doc(Document(0, "kanda gato zz"), heli_models)
    b = heli_score_doc(Document(0, "zz gato kanda"), heli_models)
    assert a == b
    base_scores = heli_score_doc(Document(0, "gato"), heli_models)
    extended = heli_score_doc(Document(0, "gato zzzz"), heli_models)
    rank = lambda s, lang: sorted(s, key=lambda l: (s[l], l)).index(lang)
    assert rank(extended, "aa") <= rank(base_scores, "aa")
    assert heli_classify(Document(0, "kanda"), heli_models).best == "aa"
    checked.append("heli permutation + polarity")

    # synth determinism and exact label counts
    spec = SynthSpec(
        languages=(
            LanguageSpec(code="aa", inventory="abcd"),
            LanguageSpec(code="bb", inventory="efgh"),
        ),
        lines_per_language=25,
        words_per_line=4,
        seed=123,
    )
    first, second = generate(spec), generate(spec)
    assert first == second
    assert first.label_counts() == {"aa": 25, "bb": 25}
    assert generate(SynthSpec(
        languages=spec.languages, lines_per_language=25, words_per_line=4, seed=124,
    )) != first
    checked.append("synth determinism")

    # sweep determinism
    strain = _corpus([("aba bab", "A"), ("xyx yxy", "B"), ("abab ab", "A"), ("yx xy", "B")])
    sdev = _corpus([("abba", "A"), ("xyyx", "B")])
    r1 = sweep(strain, sdev, "nb", [NgramRange(1, 2), NgramRange(2, 3)], [1.5, 2.0])
    r2 = sweep(strain, sdev, "nb", [NgramRange(1, 2), NgramRange(2, 3)], [1.5, 2.0])
    assert r1.to_tsv() == r2.to_tsv()
    checked.append("sweep determinism")

    print(f"\nACCEPTANCE 2 PASS: invariant suite ({', '.join(checked)})")


# --------------------------------------------------------------------------
# Criterion 3: adaptation degeneracy configurations reduce to batch, byte-exact
# --------------------------------------------------------------------------


def test_criterion_3_adaptation_degeneracy(tmp_path):
    rnd = random.Random(7)
    pairs = _random_pairs(rnd)
    train = _corpus(pairs)
    test = _unlabeled(
        [" ".join("".join(rnd.choice("abcdef") for _ in range(3)) for _ in range(3))
         for _ in range(17)]
    )
    rng = NgramRange(1, 3)

    def run(name, config):
        models = build_models(train, rng, 2.0)
        preds = adaptive_identify(test, models, "nb", config)
        path = tmp_path / f"{name}.tsv"
        write_predictions(preds, path)
        return path.read_bytes()

    batch = run("batch", AdaptConfig(k=1, epochs=0))
    assert run("epochs0", AdaptConfig(k=5, epochs=0)) == batch
    assert run("ct_inf", AdaptConfig(k=5, ct=math.inf, epochs=1)) == batch
    assert run("k_large", AdaptConfig(k=len(test) + 3, epochs=1)) == batch
    print(
        "\nACCEPTANCE 3 PASS: epochs=0, ct=+inf, and k>|test| all produce "
        "byte-identical batch prediction files"
    )


# --------------------------------------------------------------------------
# Criterion 4: synthetic end-to-end, exact outcomes
# --------------------------------------------------------------------------

DISJOINT_SPEC = SynthSpec(
    languages=(
        LanguageSpec(code="aa", inventory="abcdefgh"),
        LanguageSpec(code="bb", inventory="ijklmnop"),
    ),
    lines_per_language=1000,
    words_per_line=6,
    seed=20210401,
)

OVERLAP_SPEC = SynthSpec(
    languages=(
        LanguageSpec(code="aa", inventory="abcdefghij",
                     char_weights=(5, 5, 4, 4, 3, 3, 2, 2, 1, 1)),
        LanguageSpec(code="bb", inventory="abcdefghij",
                     char_weights=(1, 1, 2, 2, 3, 3, 4, 4, 5, 5)),
        LanguageSpec(code="cc", inventory="abcdefghij",
                     char_weights=(1, 5, 1, 5, 1, 5, 1, 5, 1, 5)),
    ),
    lines_per_language=700,
    words_per_line=5,
    mixing_rate=0.9,
    shared=LanguageSpec(code="en", inventory="etaoinsrh", word_lengths=(2, 3, 4)),
    seed=77,
)

# frozen from the first run of this fixture; exact reproduction required
OVERLAP_MACRO_F1 = 0.36235023221324586


def test_criterion_4_synthetic_end_to_end():
    started = time.perf_counter()

    corpus = generate(DISJOINT_SPEC)
    train, dev = ordered_split(corpus, 0.9)
    models = build_models(train, NgramRange(2, 6), 2.15)
    report = evaluate([classify(d, models, "nb") for d in dev], dev)
    assert report.macro_f1 == 1.0
    assert report.micro_f1 == 1.0

    overlap = generate(OVERLAP_SPEC)
    otrain, odev = ordered_split(overlap, 0.9)
    omodels = build_models(otrain, NgramRange(2, 6), 2.15)
    oreport = evaluate([classify(d, omodels, "nb") for d in odev], odev)
    assert oreport.macro_f1 == OVERLAP_MACRO_F1
    assert oreport.macro_f1 < 1.0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 4 PASS: disjoint corpus macro F1 = 1.0 exactly; "
        f"overlap regression {oreport.macro_f1!r} reproduced; {elapsed:.2f}s"
    )


# --------------------------------------------------------------------------
# Criterion 5: reference-score reproduction (needs the DLI shared-task data)
# --------------------------------------------------------------------------

DLI_DIR = os.environ.get("DLI_DATA_DIR")

dli = pytest.mark.skipif(
    DLI_DIR is None,
    reason=(
        "DLI_DATA_DIR not set; the shared-task corpus is not redistributable, "
        "so criteria 1-4 and 6 constitute acceptance"
    ),
)


@dli
def test_criterion_5_dli_reproduction():
    data = Path(DLI_DIR)
    train_full = load_tsv(data / "train.tsv")
    assert len(train_full) == 16674
    assert train_full.label_counts() == {
        "kan": 493, "mal": 4204, "tam": 10969, "other": 1008,
    }

    train, dev = ordered_split(train_full, 0.9)
    results = {}

    nb_models = build_models(train, NgramRange(2, 6), 2.15)
    nb_report = evaluate([classify(d, nb_models, "nb") for d in dev], dev)
    results["nb 2-6 pm 2.15"] = (nb_report.macro_f1, 0.8609, 0.005)

    for k, expected in ((1, 0.8609), (10, 0.8648), (20, 0.8663), (FULL, 0.8663)):
        models = nb_models.with_pm(2.15, copy_counts=True)
        preds = adaptive_identify(dev, models, "nb", AdaptConfig(k=k, epochs=1))
        report = evaluate(preds, dev)
        results[f"adapt k={k}"] = (report.macro_f1, expected, 0.005)

    heli_models = heli_build(
        train,
        HeliConfig(lnr=NgramRange(2, 6), onr=NgramRange(2, 6), lw=True, ow=True, pm=1.11),
    )
    heli_report = evaluate([heli_classify(d, heli_models) for d in dev], dev)
    results["heli 2-6/2-6/y/y pm 1.11"] = (heli_report.macro_f1, 0.8403, 0.005)

    simple_models = build_models(train, NgramRange(7, 10), 1.0)
    simple_report = evaluate([classify(d, simple_models, "simple") for d in dev], dev)
    results["simple 7-10"] = (simple_report.macro_f1, 0.7321, 0.005)

    sumrf_models = build_models(train, NgramRange(7, 9), 1.0)
    sumrf_report = evaluate([classify(d, sumrf_models, "sum_rf") for d in dev], dev)
    results["sum_rf 7-9"] = (sumrf_report.macro_f1, 0.6897, 0.005)

    test_path, gold_path = data / "test.tsv", data / "test_gold.tsv"
    if test_path.exists() and gold_path.exists():
        test = load_tsv(test_path, labeled=False)
        assert len(test) == 4590
        models = build_models(train_full, NgramRange(2, 6), 2.15)
        preds = adaptive_identify(test, models, "nb", AdaptConfig(k=20, epochs=1))
        report = evaluate(preds, load_tsv(gold_path))
        results["system1 test"] = (report.macro_f1, 0.92, 0.01)

    lines = []
    failures = []
    for name, (got, expected, tol) in results.items():
        ok = abs(got - expected) <= tol
        lines.append(f"  {name}: {got:.4f} (expected {expected} +/- {tol})")
        if not ok:
            failures.append(name)
    print("\nACCEPTANCE 5 " + ("PASS:" if not failures else "FAIL:"))
    print("\n".join(lines))
    assert not failures, f"out of tolerance: {failures}"


# --------------------------------------------------------------------------
# Criterion 6: throughput
# --------------------------------------------------------------------------

PERF_SPEC = SynthSpec(
    languages=(
        LanguageSpec(code="kan", inventory="abcdefghij"),
        LanguageSpec(code="mal", inventory="cdefghijkl"),
        LanguageSpec(code="tam", inventory="efghijklmn"),
        LanguageSpec(code="other", inventory="ghijklmnop"),
    ),
    lines_per_language=3750,
    words_per_line=6,
    mixing_rate=0.3,
    shared=LanguageSpec(code="en", inventory="etaoins", word_lengths=(2, 3, 4)),
    seed=4242,
)


def test_criterion_6_performance():
    corpus = generate(PERF_SPEC)
    assert len(corpus) == 15000
    train, dev = ordered_split(corpus, 0.9)

    ranges = [
        NgramRange(1, 2), NgramRange(1, 3), NgramRange(2, 3), NgramRange(2, 4),
        NgramRange(2, 5), NgramRange(2, 6), NgramRange(3, 5), NgramRange(3, 6),
        NgramRange(4, 6), NgramRange(5, 6),
    ]
    pms = [1.5, 1.8, 2.0, 2.15, 2.5]
    started = time.perf_counter()
    result = sweep(train, dev, "nb", ranges, pms)
    sweep_elapsed = time.perf_counter() - started
    assert len(result.rows) == 50
    assert sweep_elapsed < 300.0

    models = build_models(train, NgramRange(2, 6), 2.15)
    probes = [Document(i, d.text) for i, d in enumerate(dev.docs[:1000])]
    started = time.perf_counter()
    for doc in probes:
        classify(doc, models, "nb")
    per_doc_ms = (time.perf_counter() - started) / len(probes) * 1000
    assert per_doc_ms < 1.0

    print(
        f"\nACCEPTANCE 6 PASS: 50-cell sweep over 15,000 lines in "
        f"{sweep_elapsed:.1f}s; single-document classification "
        f"{per_doc_ms:.3f} ms amortized"
    )
