from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from ngramlid import (
    HeliConfig,
    ModelIOError,
    ModelSet,
    NgramModel,
    NgramRange,
    add_document,
    build_models,
    classify,
    extract_ngrams,
    heli_add_document,
    heli_build,
    heli_score_doc,
    load_heli_models,
    load_models,
    normalize,
    save_heli_models,
    save_models,
)
from ngramlid.corpus import Document, ordered_split
from ngramlid.heli import HeliModelSet
from ngramlid.ngram import GramGroups, _penalty
from ngramlid.scorers import METHODS, score_with
from ngramlid.synth import generate, spec_from_dict


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


def test_builds_reject_a_language_with_nothing_counted(tmp_path, make_corpus):
    # B has words but none long enough for a 4-gram: its empty model
    # scored penalty 0 and won every nb document, A's own text included,
    # and a model file held no row for it
    corpus = make_corpus([("abcde fghij", "A"), ("x y z", "B")])
    with pytest.raises(ValueError, match="language 'B': nothing counted"):
        build_models(corpus, NgramRange(4, 5), pm=2.0)
    grams_only = HeliConfig(
        lnr=NgramRange(4, 5), onr=NgramRange(4, 5), lw=False, ow=False, pm=2.0
    )
    with pytest.raises(ValueError, match="language 'B': nothing counted"):
        heli_build(corpus, grams_only)
    # with a word domain B's words are counted, and it survives a model file
    path = tmp_path / "heli.tsv"
    with_words = HeliConfig(lnr=NgramRange(4, 5), onr=None, lw=True, ow=False, pm=2.0)
    save_heli_models(heli_build(corpus, with_words), path)
    assert load_heli_models(path).languages == ["A", "B"]


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
    pen = _penalty(model_set.penalty_modifier, model.totals[2])
    assert pen == pytest.approx(2.15 * math.log(75), rel=1e-12)


def test_penalty_formula_round_totals():
    from ngramlid import NgramModel

    model = NgramModel(language="A")
    model.counts = {2: {"ab": 60, "cd": 40}}
    model.refresh()
    assert model.totals[2] == 100
    assert _penalty(2.15, model.totals[2]) == pytest.approx(2.15 * math.log(100), rel=1e-12)


def test_penalty_zero_for_missing_length(make_corpus):
    # one-char words produce no grams longer than 3
    corpus = make_corpus([("a b", "A")])
    model_set = build_models(corpus, NgramRange(1, 6), pm=2.0)
    model = model_set.models["A"]
    assert _penalty(model_set.penalty_modifier, model.totals.get(6, 0)) == 0.0
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
                    assert s.counts[n][gram] / s.totals[n] == b.counts[n][gram] / b.totals[n]
                assert s.totals[n] == k * b.totals[n]
                assert _penalty(2.0, s.totals[n]) == pytest.approx(
                    _penalty(2.0, b.totals[n]) + 2.0 * math.log(k), rel=1e-12
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


def test_an_integer_pm_is_saved_in_a_spelling_that_loads(tmp_path, make_corpus):
    # the reader takes only repr(float), so the writers write that
    corpus = make_corpus([("aa bb", "A"), ("cc", "B")])
    path = tmp_path / "model.tsv"
    save_models(build_models(corpus, NgramRange(2, 3), pm=2), path)
    assert "\n#pm 2.0\n" in path.read_text(encoding="utf-8")
    assert load_models(path).penalty_modifier == 2.0
    config = HeliConfig(NgramRange(1, 2), None, lw=True, ow=False, pm=2)
    save_heli_models(heli_build(corpus, config), path)
    assert "\n#pm 2.0\n" in path.read_text(encoding="utf-8")
    assert load_heli_models(path).config.pm == 2.0


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
    fresh = NgramModel(model.language, counts=model.counts)
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
    model.add_grams(_grouped({"zzzzzzzzz": 2, "zz": 1}))  # length 9: outside the range
    model.add_grams(_grouped({"ab": 3, "abcd": 1}))
    model.add_grams(GramGroups([(0, {"word": 2, "w": 1}.items())]))
    assert {4, 5, 6, 9, 0} <= set(model.counts)
    for m in model_set.models.values():
        assert m.totals == _refreshed(m).totals


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
            assert m.totals == _refreshed(m).totals


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


@pytest.mark.parametrize(
    "rows, problem",
    [
        ("A\t2\tab\t1\nA\t2\tac\n", "expected 4 fields, got 3"),
        ("A\t2\tab\t1\nA\t2\tac\t1\t1\n", "expected 4 fields, got 5"),
        ("A\t2\tab\t1\n\nA\t2\tac\t1\n", "expected 4 fields, got 1"),
        ("A\t2\tab\t1\n#B\t2\t y\t4\n", "header line after the rows"),
        ("A\t2\tab\t1\n#pad 1\n", "header line after the rows"),
    ],
    ids=["short", "long", "blank", "header-row", "header"],
)
def test_load_rejects_malformed_row_lines(tmp_path, rows, problem):
    # a # line after the rows used to be read as an unknown header, and the
    # row it held was lost
    path = tmp_path / "model.tsv"
    path.write_text("#version 1\n#range 2 2\n#pm 1.0\n#log natural\n" + rows, "utf-8")
    with pytest.raises(ModelIOError, match=problem):
        load_models(path)


@pytest.mark.parametrize("header", ["#lowercas 0", "#padd 0", "#lnr 2 3", "#ow 1"])
def test_load_rejects_unknown_header_keys(tmp_path, header):
    # a misspelt flag used to be dropped, so its setting took its default
    path = tmp_path / "model.tsv"
    path.write_text(
        f"#version 1\n#range 2 2\n#pm 1.0\n#log natural\n{header}\nA\t2\tab\t1\n", "utf-8"
    )
    with pytest.raises(ModelIOError, match=f"unknown header {header.split()[0]}"):
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


def _reference_extract(words, rng, pad=True):
    # one Counter.update per word and length, as extraction used to run
    grams = Counter()
    for w in words:
        s = f" {w} " if pad else w
        for n in range(rng.min_n, min(rng.max_n, len(s)) + 1):
            grams.update([s[i : i + n] for i in range(len(s) - n + 1)])
    return grams


def _grouped(grams) -> GramGroups:
    """A flat gram multiset grouped by gram length, ascending, each length
    keeping its grams' first-occurrence order."""
    by_len: dict[int, Counter] = {}
    for gram, c in grams.items():
        by_len.setdefault(len(gram), Counter())[gram] = c
    return GramGroups([(n, by_len[n].items()) for n in sorted(by_len)])


def _options(rng, lowercase=True, pad=True, concatenate=False) -> ModelSet:
    """A model set with no languages, for ``doc_grams`` under these options."""
    return ModelSet({}, rng, 1.0, lowercase, pad, concatenate)


def _listed(grams: GramGroups) -> list:
    return [(n, list(pairs)) for n, pairs in grams.groups]


def test_extract_keeps_gram_order():
    rnd = random.Random(23)
    for _ in range(100):
        text = " ".join(
            "".join(rnd.choice("abcAB") for _ in range(rnd.randint(1, 9)))
            for _ in range(rnd.randint(0, 6))
        )
        rng = NgramRange(rnd.randint(1, 4), rnd.randint(4, 9))
        norm = normalize(text)
        got, ref = extract_ngrams(norm, rng), _reference_extract(norm.lowercased, rng)
        # extraction runs length by length: the old order, stably grouped by
        # length, so each length's grams keep the order scoring sees
        assert list(got.items()) == sorted(ref.items(), key=lambda kv: len(kv[0]))
        assert _listed(_options(rng).doc_grams(Document(0, text))) == _listed(_grouped(ref))


@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("pad", [True, False])
@pytest.mark.parametrize("concatenate", [False, True])
def test_doc_grams_equals_reference_extraction(lowercase, pad, concatenate):
    rnd = random.Random(f"doc-grams-{lowercase}-{pad}-{concatenate}")
    for _ in range(60):
        text = rnd.choice([" ", ", ", "1"]).join(
            "".join(rnd.choice("abcAB") for _ in range(rnd.randint(1, 9)))
            for _ in range(rnd.randint(0, 6))
        )
        rng = NgramRange(rnd.randint(1, 4), rnd.randint(4, 9))
        got = _options(rng, lowercase, pad, concatenate).doc_grams(Document(0, text))
        norm = normalize(text, concatenate=concatenate)
        ref = _reference_extract(norm.lowercased if lowercase else norm.words, rng, pad)
        lengths = [n for n, _ in got.groups]
        assert lengths == sorted(set(lengths))
        assert lengths == sorted({len(gram) for gram in ref})
        for n, pairs in got.groups:
            of_length = [(gram, c) for gram, c in ref.items() if len(gram) == n]
            assert list(pairs) == of_length  # the counts, in first-occurrence order
        assert len(got) == len(ref)


def _slice_corpus():
    spec = spec_from_dict({
        "seed": 5,
        "lines_per_language": 12,
        "words_per_line": 4,
        "mixing_rate": 0.2,
        "shared": {"inventory": "etaoin", "word_lengths": [2, 4, 7, 9]},
        "languages": [
            {"code": "xa", "inventory": "abcdefgh"},
            {"code": "xb", "inventory": "defghijk"},
        ],
    })
    return ordered_split(generate(spec), 0.75)


ALL_RANGES = [NgramRange(lo, hi) for lo in range(1, 9) for hi in range(lo, 9)]


@pytest.mark.parametrize("kind", ["nb", "heli"])
def test_slice_of_union_build_equals_direct_build(tmp_path, kind):
    train, _ = _slice_corpus()
    union = NgramRange(1, 8)

    def build(rng, pm):
        if kind == "heli":
            return heli_build(train, HeliConfig(lnr=rng, onr=rng, lw=True, ow=True, pm=pm))
        return build_models(train, rng, pm)

    save = save_heli_models if kind == "heli" else save_models
    base = build(union, 1.5)
    assert max(base.submodels["gramL" if kind == "heli" else "gram"]["xa"].counts) == 8
    for rng in ALL_RANGES:
        sliced, direct = base.with_pm(2.15, rng=rng), build(rng, 2.15)
        for sub_kind, by_lang in direct.submodels.items():
            for lang, model in by_lang.items():
                got = sliced.submodels[sub_kind][lang]
                assert got == model
        save(sliced, tmp_path / "sliced.tsv")
        save(direct, tmp_path / "direct.tsv")
        assert (tmp_path / "sliced.tsv").read_bytes() == (tmp_path / "direct.tsv").read_bytes()


def test_slice_shares_counts_unless_copied(make_corpus):
    base = build_models(make_corpus([("abc abd", "A"), ("bcd", "B")]), NgramRange(1, 4), 2.0)
    rng = NgramRange(2, 3)
    shared = base.with_pm(1.5, rng=rng)
    copied = base.with_pm(1.5, copy_counts=True, rng=rng)
    for lang, model in base.models.items():
        assert set(shared.models[lang].counts) == set(copied.models[lang].counts) == {2, 3}
        for n in (2, 3):
            assert shared.models[lang].counts[n] is model.counts[n]
            assert copied.models[lang].counts[n] is not model.counts[n]
            assert copied.models[lang].counts[n] == model.counts[n]
    with pytest.raises(ValueError, match="not inside"):
        base.with_pm(1.5, rng=NgramRange(3, 5))


def test_gram_groups_slice_equals_direct_extraction():
    rnd = random.Random(24)
    for _ in range(50):
        text = " ".join(
            "".join(rnd.choice("abcde") for _ in range(rnd.randint(1, 9))) for _ in range(4)
        )
        union = _options(NgramRange(1, 8)).doc_grams(Document(0, text))
        rng = NgramRange(rnd.randint(1, 5), rnd.randint(5, 8))
        direct = _options(rng).doc_grams(Document(0, text))
        part = union.sliced(rng)
        assert len(part) == len(direct) == len(extract_ngrams(normalize(text), rng))
        assert {n: dict(pairs) for n, pairs in part.groups} == {
            n: dict(pairs) for n, pairs in direct.groups
        }


@pytest.mark.parametrize(
    "header",
    ["#range 02 3", "#range 2 +3", "#range 2  3", "#lowercase 7", "#pad 2", "#concat -0"],
)
def test_load_rejects_non_canonical_headers(tmp_path, header):
    # int() reads all of these, but the writer never writes them
    headers = {"range": "#range 2 3", "lowercase": "#lowercase 1"}
    headers[header.split(" ")[0][1:]] = header
    path = tmp_path / "model.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n" + "\n".join(headers.values()) + "\nA\t2\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="bad or missing header"):
        load_models(path)


# -- builders against per-document folds --------------------------------------

BUILD_LETTERS = "aäbcčdeéßgİıжЖωΩ"  # mixed case; "İ" lowercases to two characters


def _random_build_corpus(rnd):
    """Three non-ASCII languages of 1-5 documents, each of 0-7 words drawn
    from a small per-language vocabulary (so words repeat), with wordless
    documents mixed in."""
    docs = []
    for label in ("ab", "čd", "ñé"):
        vocab = [
            "".join(rnd.choice(BUILD_LETTERS) for _ in range(rnd.randint(1, 9)))
            for _ in range(rnd.randint(1, 5))
        ]
        for _ in range(rnd.randint(1, 5)):
            if rnd.random() < 0.2:
                text = rnd.choice(["", "123 !!", " — ", "\t"])
            else:
                text = rnd.choice([" ", ", ", "1"]).join(
                    rnd.choice(vocab) for _ in range(rnd.randint(1, 7))
                )
            docs.append((text, label))
    rnd.shuffle(docs)
    return docs


def _assert_models_equal(got, want):
    assert set(got) == set(want)
    for lang, model in want.items():
        assert got[lang].counts == model.counts
        assert got[lang].totals == model.totals


@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("pad", [True, False])
@pytest.mark.parametrize("concatenate", [False, True])
def test_build_models_equals_per_document_folds(
    tmp_path, make_corpus, lowercase, pad, concatenate
):
    rnd = random.Random(f"build-{lowercase}-{pad}-{concatenate}")
    for _ in range(12):
        corpus = make_corpus(_random_build_corpus(rnd))
        rng = NgramRange(rnd.randint(1, 4), rnd.randint(4, 8))
        pm = rnd.choice([1.0, 2.15, 3.5])
        want = {lang: NgramModel(lang) for lang in corpus.label_set}
        for doc in corpus:
            norm = normalize(doc.text, concatenate=concatenate)
            grams = _reference_extract(norm.lowercased if lowercase else norm.words, rng, pad)
            if grams:
                want[doc.label].add_grams(_grouped(grams))
        empty = sorted(lang for lang, m in want.items() if not m.counts)
        if empty:
            with pytest.raises(ValueError, match=f"language {empty[0]!r}: nothing counted"):
                build_models(corpus, rng, pm, lowercase, pad, concatenate)
            continue
        built = build_models(corpus, rng, pm, lowercase, pad, concatenate)
        _assert_models_equal(built.models, want)
        save_models(built, tmp_path / "model.tsv")
        assert load_models(tmp_path / "model.tsv") == built


HELI_DOMAINS = ("lnr", "onr", "lw", "ow")
HELI_SUBSETS = [
    tuple(d for i, d in enumerate(HELI_DOMAINS) if mask >> i & 1) for mask in range(1, 16)
]


HELI_LOWER = "aäbcčdeéßgıжωσς"  # "ß" and final "ς" are caseless lowercase letters
HELI_UPPER = "AÄČÉİЖΩΣ"  # "İ" lowercases to two characters, "Σ" to "σ" or "ς"


def _random_cased_corpus(rnd):
    """Three languages whose documents are caseless, sentence-case or cased
    at random, over one lowercase vocabulary per language, so the same
    words and grams come from documents of every kind."""
    docs = []
    for label in ("ab", "čd", "ñé"):
        vocab = [
            "".join(rnd.choice(HELI_LOWER) for _ in range(rnd.randint(1, 8)))
            for _ in range(rnd.randint(1, 5))
        ]
        for _ in range(rnd.randint(2, 6)):
            words = [rnd.choice(vocab) for _ in range(rnd.randint(1, 6))]
            style = rnd.choice(["caseless", "sentence", "cased"])
            if style == "sentence":
                words[0] = rnd.choice(HELI_UPPER) + words[0]
            elif style == "cased":
                words = [
                    "".join(rnd.choice(HELI_UPPER) if rnd.random() < 0.3 else ch for ch in w)
                    for w in words
                ]
            docs.append((rnd.choice([" ", ", ", "1"]).join(words), label))
    rnd.shuffle(docs)
    return docs


def _check_heli_build_and_folds(tmp_path, corpus, config):
    """``heli_build`` and ``heli_add_document`` into empty sub-models both
    equal per-document folds of the reference extraction, each kind
    counting its own items."""
    kinds = config.enabled_kinds()
    want = {kind: {lang: NgramModel(lang) for lang in corpus.label_set} for kind in kinds}
    for doc in corpus:
        norm = normalize(doc.text)
        for kind, rng, lower in config._domains:
            words = norm.lowercased if lower else norm.words
            if rng is None:
                items = GramGroups([(0, Counter(words).items())] if words else [])
            else:
                items = _grouped(_reference_extract(words, rng))
            if items:
                want[kind][doc.label].add_grams(items)
    # the adaptation fold: heli_add_document into empty sub-models
    folded = HeliModelSet(
        config, {kind: {lang: NgramModel(lang) for lang in corpus.label_set} for kind in kinds}
    )
    for doc in corpus:
        heli_add_document(folded, doc, doc.label)
    for kind in kinds:
        _assert_models_equal(folded.submodels[kind], want[kind])
    empty = sorted(
        lang for lang in corpus.label_set
        if not any(want[kind][lang].counts for kind in kinds)
    )
    if empty:
        with pytest.raises(ValueError, match=f"language {empty[0]!r}: nothing counted"):
            heli_build(corpus, config)
        return
    built = heli_build(corpus, config)
    assert set(built.submodels) == set(kinds)
    for kind in kinds:
        _assert_models_equal(built.submodels[kind], want[kind])
    save_heli_models(built, tmp_path / "heli.tsv")
    assert load_heli_models(tmp_path / "heli.tsv") == built


@pytest.mark.parametrize("domains", HELI_SUBSETS, ids="+".join)
def test_heli_build_equals_per_document_folds(tmp_path, make_corpus, domains):
    # Each corpus runs with independent ranges and with onr = lnr, where a
    # caseless document's gramL shares gramO's extracted lists.
    rnd = random.Random("heli-" + "+".join(domains))
    for _ in range(6):
        corpora = [_random_build_corpus(rnd), _random_cased_corpus(rnd)]
        lnr, onr = (NgramRange(rnd.randint(1, 4), rnd.randint(4, 8)) for _ in range(2))
        pm = rnd.choice([1.0, 2.15])
        for docs in corpora:
            corpus = make_corpus(docs)
            for gram_onr in (onr, lnr):
                config = HeliConfig(
                    lnr=lnr if "lnr" in domains else None,
                    onr=gram_onr if "onr" in domains else None,
                    lw="lw" in domains,
                    ow="ow" in domains,
                    pm=pm,
                )
                _check_heli_build_and_folds(tmp_path, corpus, config)


@pytest.mark.parametrize("domains", HELI_SUBSETS, ids="+".join)
def test_builders_reject_a_language_of_wordless_documents(make_corpus, domains):
    corpus = make_corpus([("ßä Жω", "ab"), ("", "čd"), ("12 — !!", "čd")])
    rng = NgramRange(1, 3)
    with pytest.raises(ValueError, match="language 'čd': nothing counted"):
        build_models(corpus, rng, 2.0)
    config = HeliConfig(
        lnr=rng if "lnr" in domains else None,
        onr=rng if "onr" in domains else None,
        lw="lw" in domains,
        ow="ow" in domains,
        pm=2.0,
    )
    with pytest.raises(ValueError, match="language 'čd': nothing counted"):
        heli_build(corpus, config)


# -- round trips and re-penalized clones ---------------------------------------


def _reloaded(models, path):
    """``models`` saved to ``path`` and read back."""
    if isinstance(models, HeliModelSet):
        save_heli_models(models, path)
        return load_heli_models(path)
    save_models(models, path)
    return load_models(path)


def _all_scores(models, probes):
    """Every method's scores of every probe document, in probe order."""
    if isinstance(models, HeliModelSet):
        return [heli_score_doc(doc, models) for doc in probes]
    return [
        score_with(method, models.doc_grams(doc), models) for method in METHODS for doc in probes
    ]


def _assert_round_trips(tmp_path, build, probes, pm, pm2):
    """A build at ``pm`` survives save -> load, and its ``with_pm(pm2)``
    clones, sharing or copying counts, equal a fresh build at ``pm2`` in
    process and after save -> load, down to every score's bits. Returns
    False when some language had nothing to count."""
    try:
        built = build(pm)
    except ValueError as exc:
        assert "nothing counted" in str(exc)
        return False
    assert _reloaded(built, tmp_path / "built.tsv") == built
    fresh = build(pm2)
    want = _all_scores(fresh, probes)
    for copy_counts in (False, True):
        clone = built.with_pm(pm2, copy_counts)
        for models in (clone, _reloaded(clone, tmp_path / "clone.tsv")):
            assert models == fresh
            assert _all_scores(models, probes) == want
    return True


def _round_trip_cases(rnd, make_corpus):
    """Random non-ASCII, mixed-case training corpora, with probe documents
    drawn the same way, and two distinct penalty modifiers."""
    for _ in range(6):
        corpus = make_corpus(_random_build_corpus(rnd))
        probes = [Document(i, text) for i, (text, _) in enumerate(_random_build_corpus(rnd))]
        yield corpus, probes, *rnd.sample([1.0, 1.5, 2.15, 3.5], 2)


@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("pad", [True, False])
@pytest.mark.parametrize("concatenate", [False, True])
def test_gram_models_round_trip_under_a_new_pm(
    tmp_path, make_corpus, lowercase, pad, concatenate
):
    rnd = random.Random(f"round-trip-{lowercase}-{pad}-{concatenate}")
    built = 0
    for corpus, probes, pm, pm2 in _round_trip_cases(rnd, make_corpus):
        rng = NgramRange(rnd.randint(1, 4), rnd.randint(4, 8))

        def build(pm):
            return build_models(corpus, rng, pm, lowercase, pad, concatenate)

        built += _assert_round_trips(tmp_path, build, probes, pm, pm2)
    assert built


@pytest.mark.parametrize("domains", HELI_SUBSETS, ids="+".join)
def test_heli_models_round_trip_under_a_new_pm(tmp_path, make_corpus, domains):
    rnd = random.Random("round-trip-" + "+".join(domains))
    built = 0
    for corpus, probes, pm, pm2 in _round_trip_cases(rnd, make_corpus):
        lnr, onr = (NgramRange(rnd.randint(1, 4), rnd.randint(4, 8)) for _ in range(2))

        def build(pm):
            return heli_build(corpus, HeliConfig(
                lnr=lnr if "lnr" in domains else None,
                onr=onr if "onr" in domains else None,
                lw="lw" in domains,
                ow="ow" in domains,
                pm=pm,
            ))

        built += _assert_round_trips(tmp_path, build, probes, pm, pm2)
    assert built
