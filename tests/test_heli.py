from __future__ import annotations

import math
import random

import pytest

from ngramlid import (
    HeliConfig,
    ModelIOError,
    NgramRange,
    build_models,
    heli_add_document,
    heli_build,
    heli_classify,
    heli_score_doc,
    heli_score_word,
    load_heli_models,
    save_heli_models,
)
from ngramlid.corpus import Document


@pytest.fixture
def toy(make_corpus):
    """Hand-countable two-language fixture.

    Lowercased word models: A {ab: 2, cd: 1} of 3; B {ef: 1, cd: 1} of 2.
    Lowercased gram models (2-3):
      A len2 {' a':2, 'ab':2, 'b ':2, ' c':1, 'cd':1, 'd ':1} of 9
        len3 {' ab':2, 'ab ':2, ' cd':1, 'cd ':1}            of 6
      B len2 {' e':1, 'ef':1, 'f ':1, ' c':1, 'cd':1, 'd ':1} of 6
        len3 {' ef':1, 'ef ':1, ' cd':1, 'cd ':1}            of 4
    """
    corpus = make_corpus([("ab ab cd", "A"), ("ef cd", "B")])
    config = HeliConfig(lnr=NgramRange(2, 3), onr=None, lw=True, ow=False, pm=2.0)
    return heli_build(corpus, config)


def test_config_needs_one_domain():
    with pytest.raises(ValueError):
        HeliConfig(lnr=None, onr=None, lw=False, ow=False, pm=1.0)
    for pm in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="penalty modifier must be positive"):
            HeliConfig(lnr=NgramRange(1, 2), onr=None, lw=False, ow=False, pm=pm)


def test_word_known_to_both_languages(toy):
    values = heli_score_word("cd", "cd", toy)
    assert values["A"] == -math.log(1 / 3)
    assert values["B"] == -math.log(1 / 2)


def test_word_known_to_one_language_other_pays_penalty(toy):
    values = heli_score_word("ab", "ab", toy)
    assert values["A"] == -math.log(2 / 3)
    assert values["B"] == 2.0 * math.log(2)  # pm * log(word total of B)


def test_unknown_word_falls_back_to_grams(toy):
    # 'xb' is no word; of its 2-grams only 'b ' is known (A, 2 of 9)
    values = heli_score_word("xb", "xb", toy)
    assert values["A"] == -math.log(2 / 9)
    assert values["B"] == 2.0 * math.log(6)


def test_gram_mean_with_per_gram_backoff(toy):
    # 'abe' scores at length 3: ' ab' known (A); 'abe' backs off to 'ab'
    # at length 2 (A); 'be ' backs all the way off and is discarded
    values = heli_score_word("abe", "abe", toy)
    assert values["A"] == (-math.log(2 / 6) + -math.log(2 / 9)) / 2
    assert values["B"] == (2.0 * math.log(4) + 2.0 * math.log(6)) / 2


def test_nothing_matches_last_domain_penalty(toy):
    values = heli_score_word("zq", "zq", toy)
    assert values["A"] == 2.0 * math.log(9)
    assert values["B"] == 2.0 * math.log(6)


def test_subdomain_reentry_at_shorter_length(make_corpus):
    # all 6-grams of the probe are unseen but one 5-gram is shared, so the
    # word is scored in the length-5 sub-domain
    corpus = make_corpus([("xbcde", "A"), ("fgfgf", "B")])
    config = HeliConfig(lnr=NgramRange(2, 6), onr=None, lw=True, ow=False, pm=2.0)
    models = heli_build(corpus, config)
    values = heli_score_word("abcde", "abcde", models)
    assert values["A"] == -math.log(1 / 3)  # 'bcde ' once among A's three 5-grams
    assert values["B"] == 2.0 * math.log(3)


def test_doc_score_is_mean_of_word_scores(toy):
    doc = Document(0, "cd ab")
    scores = heli_score_doc(doc, toy)
    assert scores["A"] == pytest.approx(
        (-math.log(1 / 3) + -math.log(2 / 3)) / 2, rel=1e-12
    )
    assert scores["B"] == pytest.approx(
        (-math.log(1 / 2) + 2.0 * math.log(2)) / 2, rel=1e-12
    )
    pred = heli_classify(doc, toy)
    assert pred.best == "A"
    assert pred.margin == abs(scores["A"] - scores["B"])


def test_single_word_doc_matches_word_ranking(toy):
    values = heli_score_word("ab", "ab", toy)
    pred = heli_classify(Document(0, "ab!"), toy)
    assert pred.best == min(values, key=lambda lang: (values[lang], lang))


def test_wordless_doc_ties_lexicographically(toy):
    pred = heli_classify(Document(0, "123 !!"), toy)
    assert pred.best == "A"
    assert pred.margin == 0.0


def test_original_casing_domain_used_when_enabled(make_corpus):
    corpus = make_corpus([("Foo bar", "A"), ("baz qux", "B")])
    config = HeliConfig(
        lnr=NgramRange(2, 4), onr=NgramRange(2, 4), lw=True, ow=True, pm=1.5
    )
    models = heli_build(corpus, config)
    # 'Foo' hits the original-cased word domain; A trained it once in 2 words
    values = heli_score_word("Foo", "foo", models)
    assert values["A"] == -math.log(1 / 2)


def test_disabling_original_words_on_lowercase_corpus_changes_nothing(make_corpus):
    rnd = random.Random(41)
    pairs = []
    for i in range(30):
        lang = "ab"[i % 2]
        alphabet = "abcd" if lang == "a" else "cdef"
        text = " ".join(
            "".join(rnd.choice(alphabet) for _ in range(rnd.randint(2, 5)))
            for _ in range(rnd.randint(1, 4))
        )
        pairs.append((text, lang))
    corpus = make_corpus(pairs)
    with_ow = heli_build(
        corpus,
        HeliConfig(lnr=NgramRange(2, 4), onr=NgramRange(2, 4), lw=True, ow=True, pm=1.2),
    )
    without_ow = heli_build(
        corpus,
        HeliConfig(lnr=NgramRange(2, 4), onr=NgramRange(2, 4), lw=True, ow=False, pm=1.2),
    )
    probes = ["Adda cfef", "DDAC", "abcd efef zz", "nothing Shared"]
    for i, text in enumerate(probes):
        assert heli_classify(Document(i, text), with_ow) == heli_classify(
            Document(i, text), without_ow
        )


def test_word_unique_to_language_never_hurts_it(make_corpus):
    corpus = make_corpus([("zzzz kanda", "A"), ("gato perro", "B"), ("mati kula", "C")])
    config = HeliConfig(lnr=NgramRange(2, 4), onr=None, lw=True, ow=False, pm=1.5)
    models = heli_build(corpus, config)

    def rank_of(lang, scores):
        ordered = sorted(scores, key=lambda l: (scores[l], l))
        return ordered.index(lang)

    for base_text in ("kanda", "gato", "mati kula", "xq"):
        base = heli_score_doc(Document(0, base_text), models)
        extended = heli_score_doc(Document(0, base_text + " zzzz"), models)
        assert rank_of("A", extended) <= rank_of("A", base)


def test_word_order_permutation_invariance(toy):
    a = heli_score_doc(Document(0, "cd ab zq ef"), toy)
    b = heli_score_doc(Document(0, "zq ef cd ab"), toy)
    assert a == b


def test_deterministic(toy):
    doc = Document(0, "ab cd xq")
    assert heli_classify(doc, toy) == heli_classify(doc, toy)


def test_build_rejects_wordless_language(make_corpus):
    corpus = make_corpus([("words here", "A"), ("!!!", "B")])
    config = HeliConfig(lnr=NgramRange(1, 2), onr=None, lw=True, ow=False, pm=1.0)
    with pytest.raises(ValueError, match="'B'"):
        heli_build(corpus, config)
    with pytest.raises(ValueError, match="'B'"):
        build_models(corpus, NgramRange(1, 2), pm=1.0)


def test_add_document_matches_rebuild(make_corpus):
    pairs = [("ab ab cd", "A"), ("ef cd", "B")]
    config = HeliConfig(
        lnr=NgramRange(2, 3), onr=NgramRange(2, 3), lw=True, ow=True, pm=2.0
    )
    incremental = heli_build(make_corpus(pairs), config)
    heli_add_document(incremental, Document(2, "new Cd words"), "B")
    rebuilt = heli_build(make_corpus(pairs + [("new Cd words", "B")]), config)
    assert incremental.submodels == rebuilt.submodels


def test_add_document_unknown_language(toy):
    with pytest.raises(ValueError, match="unknown language"):
        heli_add_document(toy, Document(5, "ab"), "Z")


def test_save_load_round_trip(tmp_path, make_corpus):
    corpus = make_corpus([("Ab ab cd", "A"), ("Ef cd", "B")])
    config = HeliConfig(
        lnr=NgramRange(2, 3), onr=NgramRange(1, 2), lw=True, ow=True, pm=1.11
    )
    models = heli_build(corpus, config)
    path = tmp_path / "heli.tsv"
    save_heli_models(models, path)
    loaded = load_heli_models(path)
    assert loaded.config == config
    assert loaded.submodels == models.submodels


def test_save_load_round_trip_partial_domains(tmp_path, make_corpus):
    corpus = make_corpus([("ab cd", "A"), ("ef", "B")])
    config = HeliConfig(lnr=NgramRange(2, 2), onr=None, lw=False, ow=False, pm=3.0)
    models = heli_build(corpus, config)
    path = tmp_path / "heli.tsv"
    save_heli_models(models, path)
    loaded = load_heli_models(path)
    assert loaded.config == config
    assert loaded.submodels == models.submodels


def test_load_rejects_disabled_kind_rows(tmp_path):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr 2 2\n#onr -\n#lw 0\n#ow 0\n"
        "A\twordL\t0\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="not enabled"):
        load_heli_models(path)


def test_load_rejects_bad_word_length(tmp_path):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr 2 2\n#onr -\n#lw 1\n#ow 0\n"
        "A\twordL\t2\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="inconsistent"):
        load_heli_models(path)


def test_with_pm_rescales_penalties(toy):
    clone = toy.with_pm(4.0)
    values = heli_score_word("ab", "ab", clone)
    assert values["B"] == 4.0 * math.log(2)
    # shared counts: adding to the clone must not corrupt the original
    deep = toy.with_pm(4.0, copy_counts=True)
    heli_add_document(deep, Document(9, "ab"), "A")
    assert heli_score_word("ab", "ab", toy)["A"] == -math.log(2 / 3)


@pytest.mark.parametrize(
    "rows, header",
    [("A\tgramL\t4\tabcd\t1\n", "lnr 2 3"), ("A\tgramO\t1\ta\t1\n", "onr 2 2")],
)
def test_load_rejects_gram_length_outside_range(tmp_path, rows, header):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr 2 3\n#onr 2 2\n#lw 0\n#ow 0\n"
        "A\tgramL\t2\tab\t1\n" + rows,
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match=f"outside #{header}"):
        load_heli_models(path)


def test_load_rejects_empty_language_field(tmp_path):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr 2 2\n#onr -\n#lw 0\n#ow 0\n"
        "\tgramL\t2\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="empty language"):
        load_heli_models(path)


def test_load_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr -\n#onr -\n#lw 1\n#ow 0\n"
        "A\twordL\t0\tab\t3\nB\twordL\t0\tab\t1\nA\twordL\t0\tab\t5\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="duplicate row"):
        load_heli_models(path)


@pytest.mark.parametrize(
    "row",
    ["A\twordL\t00\tab\t1", "A\twordL\t0\tab\t\u0663", "A\twordL\t0\tab\t1_0",
     "A\twordL\t+0\tab\t1", "A\twordL\t0\tab\t 3"],
)
def test_load_rejects_non_canonical_integers(tmp_path, row):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr -\n#onr -\n#lw 1\n#ow 0\n" + row + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="bad (length|count) in row"):
        load_heli_models(path)


def test_load_rejects_repeated_header(tmp_path):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr -\n#onr -\n#lw 1\n#lw 0\n#ow 0\n"
        "A\twordL\t0\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="repeated header #lw"):
        load_heli_models(path)


@pytest.mark.parametrize("pm", ["-1", "nan", "inf"])
def test_load_rejects_bad_pm_header(tmp_path, pm):
    path = tmp_path / "heli.tsv"
    path.write_text(
        f"#version 1\n#pm {pm}\n#log natural\n#lnr -\n#onr -\n#lw 1\n#ow 0\n"
        "A\twordL\t0\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="penalty modifier must be positive"):
        load_heli_models(path)
