from __future__ import annotations

import itertools
import math
import random

import pytest

from ngramlid import (
    AdaptConfig,
    HeliConfig,
    ModelIOError,
    NgramRange,
    adaptive_identify,
    build_models,
    heli_add_document,
    heli_build,
    heli_classify,
    heli_score_doc,
    heli_score_word,
    load_heli_models,
    save_heli_models,
)
from ngramlid.corpus import Corpus, Document, normalize
from ngramlid.heli import WORD_LENGTH_KEY, _doc_items, _last_resort_values
from ngramlid.ngram import _penalty


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


@pytest.mark.parametrize(
    "text, caseless",
    [("ab ßς cd", True), ("Ab ßς cd", False), ("ab İx", False), ("ab ΣΑΣ", False)],
)
def test_caseless_document_shares_gram_lists_between_casings(text, caseless):
    rng = NgramRange(2, 4)
    norm = normalize(text)
    assert (norm.words == norm.lowercased) is caseless
    config = HeliConfig(lnr=rng, onr=rng, lw=True, ow=True, pm=2.0)
    items = {(kind, n): grams for kind, n, grams in _doc_items(norm, config)}
    assert (items["wordL", WORD_LENGTH_KEY] is items["wordO", WORD_LENGTH_KEY]) is caseless
    for n in range(2, 5):
        assert (items["gramL", n] is items["gramO", n]) is caseless
        if caseless:
            assert items["gramL", n] == items["gramO", n]
    # Different ranges extract each casing on its own.
    config = HeliConfig(lnr=rng, onr=NgramRange(2, 5), lw=False, ow=False, pm=2.0)
    items = {(kind, n): grams for kind, n, grams in _doc_items(norm, config)}
    assert all(items["gramL", n] is not items["gramO", n] for n in range(2, 5))


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


@pytest.mark.parametrize(
    "rows, problem",
    [
        ("A\twordL\t0\tab\t1\nA\t0\tac\t1\n", "expected 5 fields, got 4"),
        ("A\twordL\t0\tab\t1\nA\twordL\t0\tac\t1\t1\n", "expected 5 fields, got 6"),
        ("A\twordL\t0\tab\t1\n\nA\twordL\t0\tac\t1\n", "expected 5 fields, got 1"),
        ("A\twordL\t0\tab\t1\n#B\twordL\t0\tac\t1\n", "header line after the rows"),
        ("A\twordL\t0\tab\t1\n#ow 0\n", "header line after the rows"),
    ],
    ids=["short", "long", "blank", "header-row", "header"],
)
def test_load_rejects_malformed_row_lines(tmp_path, rows, problem):
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n#lnr -\n#onr -\n#lw 1\n#ow 0\n" + rows, "utf-8"
    )
    with pytest.raises(ModelIOError, match=problem):
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


@pytest.mark.parametrize("header", ["#pad 1", "#range 2 3", "#lowercase 0", "#onrr 2 3"])
def test_load_rejects_unknown_header_keys(tmp_path, header):
    # gram-file keys and misspelt keys: nothing a heli file defines
    path = tmp_path / "heli.tsv"
    path.write_text(
        f"#version 1\n#pm 1.0\n#log natural\n#lnr 2 3\n#onr -\n#lw 1\n#ow 0\n{header}\n"
        "A\twordL\t0\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match=f"unknown header {header.split()[0]}"):
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


@pytest.mark.parametrize(
    "header", ["#lnr 02 3", "#lnr 2  3", "#onr 2 +3", "#lw 5", "#ow 2", "#ow -0"]
)
def test_load_rejects_non_canonical_headers(tmp_path, header):
    # int() reads all of these, but the writer never writes them
    headers = {"lnr": "#lnr 2 3", "onr": "#onr 2 3", "lw": "#lw 1", "ow": "#ow 1"}
    headers[header.split(" ")[0][1:]] = header
    path = tmp_path / "heli.tsv"
    path.write_text(
        "#version 1\n#pm 1.0\n#log natural\n" + "\n".join(headers.values())
        + "\nA\tgramL\t2\tab\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelIOError, match="bad or missing header"):
        load_heli_models(path)


# -- the known-items index ----------------------------------------------


def _union_of_counts(models):
    """The known-items index computed from scratch: per kind and length,
    the union of every language's counted items."""
    index = {}
    for kind, by_lang in models.submodels.items():
        lengths = {n for m in by_lang.values() for n in m.counts}
        index[kind] = {
            n: set().union(*(m.counts[n] for m in by_lang.values() if n in m.counts))
            for n in lengths
        }
    return index


def _snapshot(index):
    return {kind: {n: set(items) for n, items in by_len.items()} for kind, by_len in index.items()}


MIXED = HeliConfig(lnr=NgramRange(1, 4), onr=NgramRange(2, 5), lw=True, ow=True, pm=1.7)


@pytest.fixture
def mixed(make_corpus):
    """Mixed-case, non-ASCII training text whose words are at most two
    letters long, so no language has 5-grams yet."""
    return make_corpus([("Σα σα İs", "A"), ("ıI ßa Şş", "B"), ("sa Aß", "C")])


def test_known_items_built_on_first_score_only(tmp_path, mixed):
    models = heli_build(mixed, MIXED)
    assert models._known is None
    path = tmp_path / "heli.tsv"
    save_heli_models(models, path)
    loaded = load_heli_models(path)
    assert loaded._known is None
    for m in (models, loaded):
        heli_score_doc(Document(0, "Σα zz"), m)
        assert m._known == _union_of_counts(m)
    assert loaded._known == models._known


def test_known_items_stay_exact_through_folds(mixed):
    models = heli_build(mixed, MIXED)
    index = models.known_items()
    all_kinds = ["wordO", "wordL", "gramO", "gramL"]
    folds = [  # text, language, the kinds it adds an item to the union of
        ("σα", "B", []),  # known to the union already, new to B
        ("Qz", "A", all_kinds),
        ("qz", "C", ["wordO", "gramO"]),
        ("Σααα", "C", all_kinds),  # gramO's first 5-grams: a new length
        ("!!! 42", "A", []),  # wordless: folds nothing
    ]
    for text, lang, grown in folds:
        before = _snapshot(index)
        heli_add_document(models, Document(9, text), lang)
        assert models.known_items() is index
        assert index == _union_of_counts(models)
        assert [kind for kind in all_kinds if index[kind] != before[kind]] == grown
    assert 5 in index["gramO"] and 5 not in heli_build(mixed, MIXED).known_items()["gramO"]


def test_known_items_with_pm_shared_sliced_and_copied(mixed):
    models = heli_build(mixed, MIXED)
    probes = [Document(i, t) for i, t in enumerate(["Σα σς", "İı qz", "ßaß Aa"])]
    shared = models.with_pm(2.5)
    sliced = models.with_pm(2.5, rng=NgramRange(3, 4))
    copied = models.with_pm(2.5, copy_counts=True)
    assert copied._known is None
    for clone in (shared, sliced, copied):
        assert clone.known_items() == _union_of_counts(clone)
    for kind, by_len in sliced.known_items().items():
        for n, items in by_len.items():
            assert items is models.known_items()[kind][n]
            assert items is shared.known_items()[kind][n]
    assert set(sliced.known_items()["gramO"]) == {3, 4}
    assert set(sliced.known_items()["wordO"]) == {WORD_LENGTH_KEY}

    parent_index = _snapshot(models.known_items())
    parent_scores = [heli_score_doc(d, models) for d in probes]
    heli_add_document(copied, Document(9, "Qz Σααα"), "A")
    assert copied.known_items() == _union_of_counts(copied)
    assert copied.known_items() != parent_index
    assert models.known_items() == parent_index == _union_of_counts(models)
    assert [heli_score_doc(d, models) for d in probes] == parent_scores


# -- the scoring rows -----------------------------------------------------


def test_score_rows_built_on_first_score_only(tmp_path, mixed):
    models = heli_build(mixed, MIXED)
    path = tmp_path / "heli.tsv"
    save_heli_models(models, path)
    loaded = load_heli_models(path)
    assert models._rows is None and loaded._rows is None

    def clones():
        return (models.with_pm(2.5), models.with_pm(2.5, rng=NgramRange(3, 4)),
                models.with_pm(2.5, copy_counts=True))

    assert all(clone._rows is None for clone in clones())
    heli_score_doc(Document(0, "Σα zz"), models)
    assert models._rows is not None
    assert all(clone._rows is None for clone in clones())
    heli_add_document(models, Document(9, "Qz"), "A")
    assert models._rows is None


def _hex_scores(docs, models):
    return [{lang: v.hex() for lang, v in heli_score_doc(d, models).items()} for d in docs]


@pytest.mark.parametrize(
    "lw, ow, lnr, onr",
    [flags for flags in itertools.product((False, True), repeat=4) if any(flags)],
)
def test_score_rows_stay_exact_through_folds(lw, ow, lnr, onr):
    """Training words are one letter long (two once ``İ`` is lowercased)
    and folded words up to six, with gram ranges reaching 5 or 6, so folds
    give a language gram lengths it never had when the rows were first
    built."""
    rnd = random.Random(f"rows{lw}{ow}{lnr}{onr}")
    alphabets = ["aAσΣςİißŞ", "ıIiİşŞaAß", "ΣσςaAßẞİı"]

    def text(alphabet, longest):
        return " ".join("".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, longest)))
                        for _ in range(rnd.randint(1, 4)))

    train = Corpus(docs=tuple(
        Document(i, text(alphabets[i % 3], 1), "ABC"[i % 3]) for i in range(18)
    ))
    probes = [Document(i, text(rnd.choice(alphabets), 6)) for i in range(12)]
    probes.append(Document(12, "... 12 !!"))

    def gram_range():
        return NgramRange(rnd.randint(1, 3), rnd.randint(5, 6))

    config = HeliConfig(lnr=gram_range() if lnr else None, onr=gram_range() if onr else None,
                        lw=lw, ow=ow, pm=rnd.choice([1.1, 2.15, 3.0]))
    models = heli_build(train, config)
    lengths_before = {(kind, lang): set(m.counts) for kind, by_lang in models.submodels.items()
                      for lang, m in by_lang.items()}
    for fold in range(9):
        if fold:
            heli_add_document(models, Document(99, text(rnd.choice(alphabets), 6)),
                              rnd.choice("ABC"))
        # a copy of the counts with its own index and rows, built here
        fresh = models.with_pm(config.pm, copy_counts=True)
        assert _hex_scores(probes, models) == _hex_scores(probes, fresh)
    grown = [key for key, lengths in lengths_before.items()
             if set(models.submodels[key[0]][key[1]].counts) - lengths]
    assert bool(grown) == (lnr or onr)


def _reference_word_values(word, by_lang, pm):
    if not any(word in m.counts.get(WORD_LENGTH_KEY, {}) for m in by_lang.values()):
        return None
    return {
        lang: -math.log(m.counts[WORD_LENGTH_KEY][word] / m.totals[WORD_LENGTH_KEY])
        if word in m.counts.get(WORD_LENGTH_KEY, {})
        else _penalty(pm, m.totals.get(WORD_LENGTH_KEY, 0))
        for lang, m in by_lang.items()
    }


def _reference_gram_values(word, rng, by_lang, pm):
    padded = f" {word} "

    def known(gram, length):
        return any(gram in m.counts.get(length, {}) for m in by_lang.values())

    for n in range(min(rng.max_n, len(padded)), rng.min_n - 1, -1):
        grams = [padded[i : i + n] for i in range(len(padded) - n + 1)]
        if not any(known(g, n) for g in grams):
            continue
        sums = {lang: 0.0 for lang in by_lang}
        used = 0
        for gram in grams:
            length = n
            while not known(gram, length):
                length -= 1
                if length < rng.min_n:
                    break
                gram = gram[:length]
            else:
                used += 1
                for lang, m in by_lang.items():
                    c = m.counts.get(length, {}).get(gram)
                    sums[lang] += (
                        _penalty(pm, m.totals.get(length, 0))
                        if c is None
                        else -math.log(c / m.totals[length])
                    )
        return {lang: v / used for lang, v in sums.items()}
    return None


def _reference_score_doc(doc, models):
    """``heli_score_doc`` without the known-items index: every domain
    choice and backoff probe asks each language's counts in turn."""
    norm = normalize(doc.text)
    languages = models.languages
    if not norm.words:
        return {lang: 0.0 for lang in languages}
    per_lang = {lang: [] for lang in languages}
    for orig, lower in zip(norm.words, norm.lowercased):
        for kind, rng, is_lower in models.config._domains:
            word = lower if is_lower else orig
            by_lang = models.submodels[kind]
            if rng is None:
                values = _reference_word_values(word, by_lang, models.config.pm)
            else:
                values = _reference_gram_values(word, rng, by_lang, models.config.pm)
            if values is not None:
                break
        else:
            values = _last_resort_values(models)
        for lang in languages:
            per_lang[lang].append(values[lang])
    return {lang: math.fsum(v) / len(norm.words) for lang, v in per_lang.items()}


def _random_mixed_corpora(rnd):
    """Three languages over overlapping mixed-case, non-ASCII alphabets,
    and unlabeled test text with punctuation, digits and a wordless line."""
    alphabets = ["aAσΣςİißŞ", "ıIiİşŞaAß", "ΣσςaAßẞİı"]

    def text(alphabet):
        words = ["".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, 6)))
                 for _ in range(rnd.randint(1, 5))]
        return rnd.choice([" ", ", ", "-7 "]).join(words)

    train = Corpus(docs=tuple(
        Document(i, text(alphabets[i % 3]), "ABC"[i % 3]) for i in range(24)
    ))
    test = [text(rnd.choice(alphabets)) for _ in range(14)] + ["... 12 !!"]
    return train, Corpus(docs=tuple(Document(i, t) for i, t in enumerate(test)))


def _random_range(rnd):
    lo = rnd.randint(1, 3)
    return NgramRange(lo, rnd.randint(lo, 5))


@pytest.mark.parametrize(
    "lw, ow, lnr, onr",
    [flags for flags in itertools.product((False, True), repeat=4) if any(flags)],
)
def test_known_items_change_no_score(lw, ow, lnr, onr):
    rnd = random.Random(f"{lw}{ow}{lnr}{onr}")
    train, test = _random_mixed_corpora(rnd)
    config = HeliConfig(
        lnr=_random_range(rnd) if lnr else None,
        onr=_random_range(rnd) if onr else None,
        lw=lw, ow=ow, pm=rnd.choice([1.1, 2.15, 3.0]),
    )
    models = heli_build(train, config)
    for doc in test:
        assert heli_score_doc(doc, models) == _reference_score_doc(doc, models)
    adapted = models.with_pm(config.pm, copy_counts=True)
    adaptive_identify(test, adapted, "heli", AdaptConfig(k=4))
    assert adapted.known_items() == _union_of_counts(adapted)
    assert adapted.submodels != models.submodels
    for doc in test:
        assert heli_score_doc(doc, adapted) == _reference_score_doc(doc, adapted)
