from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from ngramlid import (
    HeliConfig,
    ModelIOError,
    NgramModel,
    NgramRange,
    add_document,
    build_models,
    classify,
    extract_ngrams,
    heli_add_document,
    heli_build,
    load_heli_models,
    load_models,
    normalize,
    save_heli_models,
    save_models,
)
from ngramlid.corpus import Document
from ngramlid.ngram import GramGroups


def test_extract_two_gram_padding():
    grams = extract_ngrams(normalize("ab"), NgramRange(2, 2))
    assert grams == Counter({" a": 1, "ab": 1, "b ": 1})


def test_extract_single_char_full_range():
    grams = extract_ngrams(normalize("a"), NgramRange(1, 3))
    assert grams == Counter({" ": 2, "a": 1, " a": 1, "a ": 1, " a ": 1})


def test_extract_accumulates_across_words():
    grams = extract_ngrams(normalize("ab ab"), NgramRange(2, 2))
    assert grams == Counter({" a": 2, "ab": 2, "b ": 2})


def test_extract_lowercase_flag():
    norm = normalize("AB")
    assert " A" in extract_ngrams(norm, NgramRange(2, 2), lowercase=False)
    assert " a" in extract_ngrams(norm, NgramRange(2, 2), lowercase=True)


def test_extract_no_padding_flag():
    grams = extract_ngrams(normalize("abc"), NgramRange(2, 2), pad=False)
    assert grams == Counter({"ab": 1, "bc": 1})


def test_extract_empty_words():
    assert extract_ngrams(normalize("..."), NgramRange(1, 3)) == Counter()


def test_extract_gram_count_formula_property():
    # a single word of length L yields max(0, L+3-n) grams of length n
    rnd = random.Random(21)
    for _ in range(200):
        length = rnd.randint(1, 9)
        word = "".join(rnd.choice("abcd") for _ in range(length))
        n = rnd.randint(1, 12)
        grams = extract_ngrams(normalize(word), NgramRange(n, n))
        assert sum(grams.values()) == max(0, length + 3 - n)


def test_range_validation():
    with pytest.raises(ValueError):
        NgramRange(0, 3)
    with pytest.raises(ValueError):
        NgramRange(4, 3)
    with pytest.raises(ValueError):
        NgramRange(2, 13)
    assert str(NgramRange.parse("2-6")) == "2-6"
    assert NgramRange.parse("3") == NgramRange(3, 3)


def test_build_models_toy_counts(make_corpus):
    corpus = make_corpus([("aa", "A"), ("bb", "B")])
    model_set = build_models(corpus, NgramRange(1, 1), pm=1.0)
    model = model_set.models["A"]
    assert model.counts[1] == {" ": 2, "a": 2}
    assert model.totals[1] == 4


def test_build_models_rejects_wordless_language(make_corpus):
    corpus = make_corpus([("ok words", "A"), ("123 !!", "B")])
    with pytest.raises(ValueError, match="'B'"):
        build_models(corpus, NgramRange(1, 2), pm=1.0)
    config = HeliConfig(lnr=NgramRange(1, 2), onr=None, lw=True, ow=False, pm=1.0)
    with pytest.raises(ValueError, match="'B'"):
        heli_build(corpus, config)


def test_build_models_rejects_unlabeled(make_unlabeled):
    with pytest.raises(ValueError, match="build_models requires a labeled corpus"):
        build_models(make_unlabeled(["a"]), NgramRange(1, 1), pm=1.0)
    config = HeliConfig(lnr=NgramRange(1, 2), onr=None, lw=True, ow=False, pm=1.0)
    with pytest.raises(ValueError, match="heli_build requires a labeled corpus"):
        heli_build(make_unlabeled(["a"]), config)


def test_build_models_rejects_bad_pm(make_corpus):
    corpus = make_corpus([("aa", "A")])
    with pytest.raises(ValueError):
        build_models(corpus, NgramRange(1, 1), pm=0.0)


def test_penalty_formula(make_corpus):
    corpus = make_corpus([("ab " * 25, "A")])
    model_set = build_models(corpus, NgramRange(2, 2), pm=2.15)
    model = model_set.models["A"]
    assert model.totals[2] == 75  # 25 words, 3 two-grams each
    assert model.penalty(2) == pytest.approx(2.15 * math.log(75), rel=1e-12)


def test_penalty_formula_round_totals():
    from ngramlid import NgramModel

    model = NgramModel(language="A", penalty_modifier=2.15)
    model.counts = {2: {"ab": 60, "cd": 40}}
    model.refresh()
    assert model.totals[2] == 100
    assert model.penalty(2) == pytest.approx(2.15 * math.log(100), rel=1e-12)


def test_penalty_zero_for_missing_length(make_corpus):
    # one-char words produce no grams longer than 3
    corpus = make_corpus([("a b", "A")])
    model_set = build_models(corpus, NgramRange(1, 6), pm=2.0)
    model = model_set.models["A"]
    assert model.penalty(6) == 0.0
    assert model.totals.get(6) is None


def test_add_document_additivity(make_corpus):
    corpus = make_corpus([("ab cd", "A"), ("ef", "B")])
    model_set = build_models(corpus, NgramRange(2, 2), pm=2.0)
    before = model_set.models["A"].counts[2].get("ab", 0)
    add_document(model_set, Document(99, "ab ab ab"), "A")
    assert model_set.models["A"].counts[2]["ab"] == before + 3


def test_add_document_empty_text_is_noop(make_corpus):
    corpus = make_corpus([("ab", "A"), ("cd", "B")])
    model_set = build_models(corpus, NgramRange(2, 2), pm=2.0)
    snapshot = {lang: dict(m.counts[2]) for lang, m in model_set.models.items()}
    add_document(model_set, Document(99, "42 !!"), "A")
    assert {lang: m.counts[2] for lang, m in model_set.models.items()} == snapshot


def test_add_document_unknown_language(make_corpus):
    corpus = make_corpus([("ab", "A")])
    model_set = build_models(corpus, NgramRange(2, 2), pm=2.0)
    with pytest.raises(ValueError, match="unknown language"):
        add_document(model_set, Document(99, "xy"), "Z")


def test_add_document_matches_rebuild(make_corpus):
    base_pairs = [("ab cd", "A"), ("cd ab ab", "A"), ("xy zw", "B")]
    extra = ("new words here", "A")
    incremental = build_models(make_corpus(base_pairs), NgramRange(1, 3), pm=1.7)
    add_document(incremental, Document(3, extra[0]), extra[1])
    rebuilt = build_models(make_corpus(base_pairs + [extra]), NgramRange(1, 3), pm=1.7)
    assert incremental.models == rebuilt.models


def test_other_languages_untouched_by_add(make_corpus):
    corpus = make_corpus([("ab", "A"), ("cd", "B")])
    model_set = build_models(corpus, NgramRange(2, 2), pm=2.0)
    before = dict(model_set.models["B"].counts[2])
    add_document(model_set, Document(9, "ab"), "A")
    assert model_set.models["B"].counts[2] == before


def test_count_conservation_property(make_corpus):
    rnd = random.Random(22)
    for _ in range(30):
        pairs = [
            (
                " ".join(
                    "".join(rnd.choice("abc") for _ in range(rnd.randint(1, 4)))
                    for _ in range(rnd.randint(1, 3))
                ),
                rnd.choice(["A", "B"]),
            )
            for _ in range(rnd.randint(2, 8))
        ]
        pairs += [("aaa", "A"), ("bbb", "B")]  # every label non-empty
        lo = rnd.randint(1, 3)
        hi = rnd.randint(lo, 4)
        model_set = build_models(make_corpus(pairs), NgramRange(lo, hi), pm=2.0)
        for lang, model in model_set.models.items():
            expected: Counter = Counter()
            for text, label in pairs:
                if label == lang:
                    for word in normalize(text).lowercased:
                        padded = f" {word} "
                        for n in range(lo, hi + 1):
                            count = len(padded) - n + 1
                            if count > 0:
                                expected[n] += count
            assert model.totals == dict(expected)


def test_scale_invariance_property(make_corpus):
    pairs = [("ab cd", "A"), ("cd cd", "A"), ("xy", "B")]
    rng = NgramRange(1, 3)
    base = build_models(make_corpus(pairs), rng, pm=2.0)
    for k in (2, 5):
        scaled = build_models(make_corpus(pairs * k), rng, pm=2.0)
        for lang in base.models:
            b, s = base.models[lang], scaled.models[lang]
            for n, grams in b.counts.items():
                for gram in grams:
                    assert s.rel_freq(gram) == b.rel_freq(gram)
                assert s.penalty(n) == pytest.approx(
                    b.penalty(n) + 2.0 * math.log(k), rel=1e-12
                )


def test_save_load_round_trip(tmp_path, make_corpus):
    corpus = make_corpus([("Hello There", "A"), ("ab cd ef", "B")])
    model_set = build_models(
        corpus, NgramRange(1, 4), pm=2.15, lowercase=False, pad=True
    )
    path = tmp_path / "model.tsv"
    save_models(model_set, path)
    loaded = load_models(path)
    assert loaded == model_set


def test_save_load_round_trip_defaults(tmp_path, make_corpus):
    corpus = make_corpus([("aa bb", "A"), ("cc", "B")])
    model_set = build_models(corpus, NgramRange(2, 3), pm=1.3)
    path = tmp_path / "model.tsv"
    save_models(model_set, path)
    assert load_models(path) == model_set


def test_saved_rows_are_sorted(tmp_path, make_corpus):
    corpus = make_corpus([("ba ab", "B"), ("ab", "A")])
    model_set = build_models(corpus, NgramRange(1, 2), pm=1.0)
    path = tmp_path / "model.tsv"
    save_models(model_set, path)
    rows = [
        line.split("\t")
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    keys = [(lang, int(n), gram) for lang, n, gram, _ in rows]
    assert keys == sorted(keys)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("#version 9\n#range 1 2\n#pm 1.0\n#log natural\nA\t1\ta\t1\n")
    with pytest.raises(ModelIOError, match="version"):
        load_models(path)


def test_load_rejects_truncated_file(tmp_path, make_corpus):
    corpus = make_corpus([("ab cd", "A"), ("ef", "B")])
    model_set = build_models(corpus, NgramRange(1, 2), pm=2.0)
    path = tmp_path / "model.tsv"
    save_models(model_set, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    with pytest.raises(ModelIOError):
        load_models(path)


def test_hand_written_model_file_classifies(tmp_path):
    path = tmp_path / "tiny.tsv"
    path.write_text(
        "#version 1\n"
        "#range 2 2\n"
        "#pm 2.0\n"
        "#log natural\n"
        "aa\t2\t x\t4\n"
        "aa\t2\txx\t4\n"
        "bb\t2\t y\t4\n"
        "bb\t2\tyy\t4\n",
        encoding="utf-8",
    )
    model_set = load_models(path)
    assert model_set.range == NgramRange(2, 2)
    assert model_set.penalty_modifier == 2.0
    assert model_set.lowercase and model_set.pad and not model_set.concatenate
    pred = classify(Document(0, "xx xx"), model_set, "nb")
    assert pred.best == "aa"


def test_load_rejects_inconsistent_rows(tmp_path):
    header = "#version 1\n#range 1 2\n#pm 1.0\n#log natural\n"
    bad_length = tmp_path / "a.tsv"
    bad_length.write_text(header + "A\t2\tabc\t1\n")
    with pytest.raises(ModelIOError):
        load_models(bad_length)
    bad_count = tmp_path / "b.tsv"
    bad_count.write_text(header + "A\t1\ta\t0\n")
    with pytest.raises(ModelIOError):
        load_models(bad_count)
    empty = tmp_path / "c.tsv"
    empty.write_text(header)
    with pytest.raises(ModelIOError, match="no gram rows"):
        load_models(empty)


def _refreshed(model):
    fresh = NgramModel(model.language, model.penalty_modifier, counts=model.counts)
    fresh.refresh()
    return fresh


def test_incremental_statistics_equal_a_full_refresh(make_corpus):
    # one-letter words give no grams longer than 3, so later folds add
    # lengths the model has never seen
    corpus = make_corpus([("a b a", "A"), ("c", "B")])
    model_set = build_models(corpus, NgramRange(1, 6), pm=2.15)
    model = model_set.models["A"]
    assert max(model.counts) == 3
    rnd = random.Random(7)
    for i in range(40):
        text = " ".join(
            "".join(rnd.choice("abcd") for _ in range(rnd.randint(1, 7)))
            for _ in range(rnd.randint(0, 4))
        )
        add_document(model_set, Document(i, text), rnd.choice("AB"))
    model.add_grams(Counter({"zzzzzzzzz": 2, "zz": 1}))  # length 9: outside the range
    model.add_grams(GramGroups(Counter({"ab": 3, "abcd": 1})))
    model.add_grams(Counter({"word": 2, "w": 1}), length=0)
    assert {4, 5, 6, 9, 0} <= set(model.counts)
    for m in model_set.models.values():
        fresh = _refreshed(m)
        assert m.totals == fresh.totals
        assert m.penalties == fresh.penalties


def test_heli_incremental_statistics_equal_a_full_refresh(make_corpus):
    corpus = make_corpus([("Ab ab", "A"), ("cd", "B")])
    config = HeliConfig(
        lnr=NgramRange(2, 7), onr=NgramRange(1, 4), lw=True, ow=True, pm=2.15
    )
    models = heli_build(corpus, config)
    assert max(models.submodels["gramL"]["A"].counts) == 4
    rnd = random.Random(11)
    for i in range(40):
        text = " ".join(
            "".join(rnd.choice("abcdAB") for _ in range(rnd.randint(1, 8)))
            for _ in range(rnd.randint(0, 4))
        )
        heli_add_document(models, Document(i, text), rnd.choice("AB"))
    assert max(models.submodels["gramL"]["A"].counts) == 7
    for by_lang in models.submodels.values():
        for m in by_lang.values():
            fresh = _refreshed(m)
            assert m.totals == fresh.totals
            assert m.penalties == fresh.penalties


@pytest.mark.parametrize("label", ["", "#x", "a\tb", "a\rb", "a\nb"])
def test_builds_reject_labels_a_model_file_cannot_store(make_corpus, label):
    corpus = make_corpus([("ab", label), ("cd", "en")])
    with pytest.raises(ValueError, match="cannot be stored"):
        build_models(corpus, NgramRange(1, 2), pm=2.0)
    config = HeliConfig(lnr=NgramRange(1, 2), onr=None, lw=True, ow=False, pm=2.0)
    with pytest.raises(ValueError, match="cannot be stored"):
        heli_build(corpus, config)


def test_unusual_but_storable_labels_round_trip(tmp_path, make_corpus):
    corpus = make_corpus([("ab", "x#"), ("cd", "en IN"), ("ef", "ta-Latn")])
    model_set = build_models(corpus, NgramRange(1, 2), pm=2.0)
    save_models(model_set, tmp_path / "nb.tsv")
    assert load_models(tmp_path / "nb.tsv").languages == ["en IN", "ta-Latn", "x#"]
    config = HeliConfig(lnr=NgramRange(1, 2), onr=None, lw=True, ow=False, pm=2.0)
    save_heli_models(heli_build(corpus, config), tmp_path / "heli.tsv")
    assert load_heli_models(tmp_path / "heli.tsv").languages == ["en IN", "ta-Latn", "x#"]


def test_with_pm_rejects_non_positive_pm(make_corpus):
    model_set = build_models(make_corpus([("ab", "A")]), NgramRange(1, 2), pm=2.0)
    for pm in (-1.0, 0.0):
        with pytest.raises(ValueError, match="penalty modifier must be positive"):
            model_set.with_pm(pm)


def test_non_finite_pm_rejected(make_corpus):
    corpus = make_corpus([("ab", "A")])
    model_set = build_models(corpus, NgramRange(1, 2), pm=2.0)
    for pm in (math.inf, math.nan):
        with pytest.raises(ValueError, match="penalty modifier must be positive"):
            build_models(corpus, NgramRange(1, 2), pm=pm)
        with pytest.raises(ValueError, match="penalty modifier must be positive"):
            model_set.with_pm(pm)


@pytest.mark.parametrize("pm", ["-1", "0", "nan", "inf", "x"])
def test_load_rejects_bad_pm_header(tmp_path, pm):
    path = tmp_path / "model.tsv"
    path.write_text(f"#version 1\n#range 1 2\n#pm {pm}\n#log natural\nA\t1\ta\t1\n")
    with pytest.raises(ModelIOError, match="bad or missing header"):
        load_models(path)


def test_load_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("#version 1\n#range 2 2\n#pm 1.0\n#log natural\nA\t2\tab\t3\nA\t2\tab\t5\n")
    with pytest.raises(ModelIOError, match="duplicate row"):
        load_models(path)


@pytest.mark.parametrize(
    "length, count",
    [("\u0662", "1"), ("2", "1_0"), ("2", " 7"), ("2", "+7"), ("2", "07"), ("02", "1")],
)
def test_load_rejects_non_canonical_integers(tmp_path, length, count):
    # int() reads all of these, but the writer never writes them
    path = tmp_path / "model.tsv"
    path.write_text(
        f"#version 1\n#range 2 2\n#pm 1.0\n#log natural\nA\t{length}\tab\t{count}\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="bad (length|count) in row"):
        load_models(path)


def test_load_rejects_repeated_header(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("#version 1\n#range 2 2\n#pm 2.0\n#pm 9.0\n#log natural\nA\t2\tab\t1\n")
    with pytest.raises(ModelIOError, match="repeated header #pm"):
        load_models(path)


def test_load_rejects_gram_length_outside_range(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text(
        "#version 1\n#range 2 3\n#pm 1.0\n#log natural\nA\t2\tab\t1\nA\t5\tabcde\t1\n"
    )
    with pytest.raises(ModelIOError, match="outside #range 2 3"):
        load_models(path)


def test_load_rejects_empty_language_field(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("#version 1\n#range 1 2\n#pm 1.0\n#log natural\n\t1\ta\t1\n")
    with pytest.raises(ModelIOError, match="empty language"):
        load_models(path)
