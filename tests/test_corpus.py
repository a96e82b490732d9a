from __future__ import annotations

import math
import random

import pytest

from ngramlid import CorpusError, load_tsv, normalize, ordered_split, save_tsv
from ngramlid import corpus as corpus_module
from ngramlid.corpus import Document, NormalizedText, _is_word_char


def test_load_tsv_parses_labeled_lines(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text("vanakkam nanba\ttam\nadipoli padam\tmal\n", encoding="utf-8")
    corpus = load_tsv(path)
    assert len(corpus) == 2
    assert corpus.docs[0].text == "vanakkam nanba"
    assert corpus.docs[0].label == "tam"
    assert corpus.docs[1].id == 1
    assert corpus.label_set == {"tam", "mal"}


def test_load_tsv_unlabeled(tmp_path):
    path = tmp_path / "test.txt"
    path.write_text("one line\nanother\tline with tab\n", encoding="utf-8")
    corpus = load_tsv(path, labeled=False)
    assert len(corpus) == 2
    assert corpus.docs[1].text == "another\tline with tab"
    assert all(d.label is None for d in corpus)
    assert not corpus.labeled


def test_document_fields_defaults_and_construction():
    assert Document._fields == ("id", "text", "label")
    assert Document(3, "ab") == Document(id=3, text="ab", label=None)
    doc = Document(4, "cd", "tam")
    assert (doc.id, doc.text, doc.label) == (4, "cd", "tam")
    assert doc == Document(text="cd", label="tam", id=4)
    assert hash(doc) == hash(Document(4, "cd", "tam"))
    with pytest.raises(AttributeError):
        doc.label = "mal"


def test_normalized_text_is_a_named_tuple():
    norm = normalize("Ab cD")
    assert NormalizedText._fields == ("words", "lowercased")
    assert norm == NormalizedText(("Ab", "cD"), ("ab", "cd")) == (("Ab", "cD"), ("ab", "cd"))
    assert norm == NormalizedText(lowercased=("ab", "cd"), words=("Ab", "cD"))
    with pytest.raises(AttributeError):
        norm.words = ()


def test_load_tsv_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("good\ttam\nno label here\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_tsv(path)


def test_load_tsv_empty_file_errors(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty"):
        load_tsv(path)


def test_load_tsv_accepts_crlf(tmp_path):
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"hello\ttam\r\nworld\tmal\r\n")
    corpus = load_tsv(path)
    assert [d.text for d in corpus] == ["hello", "world"]
    assert [d.label for d in corpus] == ["tam", "mal"]


def test_load_tsv_lone_carriage_return_does_not_split_a_line(tmp_path):
    # 2 lines as wc -l counts them; universal newlines made 3 documents of it
    path = tmp_path / "test.txt"
    path.write_bytes(b"ab\rcd\nef\n")
    corpus = load_tsv(path, labeled=False)
    assert [(d.id, d.text) for d in corpus] == [(0, "ab\rcd"), (1, "ef")]
    assert normalize(corpus.docs[0].text).words == ("ab", "cd")
    path.write_bytes(b"ab\rcd\r\nef\r\ngh")
    assert [d.text for d in load_tsv(path, labeled=False)] == ["ab\rcd", "ef", "gh"]


def test_load_tsv_lone_carriage_return_keeps_line_numbers(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_bytes(b"ab\rcd\ttam\nno label here\n")
    with pytest.raises(CorpusError, match="line 2: expected 2"):
        load_tsv(path)
    path.write_bytes(b"ab\rcd\ttam\r\nef\tmal\n")
    corpus = load_tsv(path)
    assert [(d.id, d.text, d.label) for d in corpus] == [(0, "ab\rcd", "tam"), (1, "ef", "mal")]


def test_save_tsv_round_trips(tmp_path, make_corpus):
    corpus = make_corpus([("padam super", "mal"), ("semma movie", "tam")])
    path = tmp_path / "out.tsv"
    save_tsv(corpus, path)
    assert load_tsv(path) == corpus


def test_normalize_strips_separators():
    norm = normalize("Padam super!! 100%")
    assert norm.words == ("Padam", "super")
    assert norm.lowercased == ("padam", "super")


def test_normalize_empty_input():
    assert normalize("").words == ()
    assert normalize("123 !!").words == ()


def test_normalize_punctuation_splits_words():
    assert normalize("a,b..c").words == ("a", "b", "c")


def test_normalize_concatenate_flag():
    norm = normalize("a,b..c", concatenate=True)
    assert norm.words == ("abc",)
    assert normalize("", concatenate=True).words == ()


def test_normalize_handles_non_latin():
    norm = normalize("naan வீடு po")
    assert "po" in norm.words and "naan" in norm.words
    assert "வீடு" in norm.words


def test_normalize_idempotent_property():
    rnd = random.Random(11)
    charset = "abcXYZ அக é .,!?19 \t"
    for _ in range(200):
        text = "".join(rnd.choice(charset) for _ in range(rnd.randint(0, 30)))
        norm = normalize(text)
        again = normalize(" ".join(norm.words))
        assert again == norm


def test_normalize_words_are_alphabetic_runs():
    rnd = random.Random(12)
    charset = "ab9.é!ĕ அ"
    for _ in range(200):
        text = "".join(rnd.choice(charset) for _ in range(rnd.randint(0, 20)))
        for word in normalize(text).words:
            assert word
            assert all(ch.isalpha() for ch in word)


def _reference_normalize(text: str, concatenate: bool = False) -> NormalizedText:
    """``normalize`` one character at a time: maximal runs of word
    characters are the words."""
    words: list[str] = []
    run: list[str] = []
    for ch in text:
        if _is_word_char(ch):
            run.append(ch)
        elif run:
            words.append("".join(run))
            run.clear()
    if run:
        words.append("".join(run))
    if concatenate and words:
        words = ["".join(words)]
    return NormalizedText(tuple(words), tuple(w.lower() for w in words))


def test_normalize_matches_per_character_reference_on_every_code_point(monkeypatch):
    # A fresh table, so the module's own is not left holding every code point.
    monkeypatch.setattr(corpus_module, "_WORD_TABLE", corpus_module._WordTable())
    for block in range(0, 0x110000, 256):
        # each code point alone between ASCII letters, then doubled
        text = "".join(f"a{c}b{c}{c}" for c in map(chr, range(block, block + 256))) + "a"
        want = _reference_normalize(text)
        assert normalize(text) == want, hex(block)
        glued = ("".join(want.words),) if want.words else ()
        assert normalize(text, concatenate=True) == NormalizedText(
            glued, tuple(w.lower() for w in glued)
        ), hex(block)
    assert len(corpus_module._WORD_TABLE) == 0x110000


def test_word_table_stays_bounded_on_every_code_point():
    # the module's own table, restored afterwards: one text holding every
    # code point must not leave an entry per code point behind
    table = corpus_module._WORD_TABLE
    saved = dict(table)
    try:
        normalize("".join(map(chr, range(0x110000))))
        assert len(table) <= 2**16
        # code points it no longer stores still split and join as before
        text = "x\u4e00y\u3000z\U0001f600\u0bcd"
        assert normalize(text) == _reference_normalize(text)
    finally:
        table.clear()
        table.update(saved)


def test_normalize_matches_per_character_reference_on_random_texts():
    rnd = random.Random(13)
    pool = "aZé ĕİıßΣς\u0301\u0bcd\u16ee\u2160 \t\n\x1c\x85\xa0\u2028\u3000.,!?19\U0001f600"
    for _ in range(500):
        text = "".join(rnd.choice(pool) for _ in range(rnd.randint(0, 24)))
        for concatenate in (False, True):
            assert normalize(text, concatenate) == _reference_normalize(text, concatenate), text


def test_ordered_split_last_doc_goes_to_dev(make_corpus):
    corpus = make_corpus([(f"word{i}", "tam") for i in range(10)])
    train, dev = ordered_split(corpus, 0.9)
    assert len(train) == 9 and len(dev) == 1
    assert dev.docs[0].id == 9


def test_ordered_split_floor_division(make_corpus):
    corpus = make_corpus([("a", "x"), ("b", "x"), ("c", "x")])
    train, dev = ordered_split(corpus, 0.5)
    assert len(train) == 1 and len(dev) == 2


def test_ordered_split_is_per_label(make_corpus):
    # interleave two labels so a plain head/tail split would starve one
    pairs = []
    for i in range(10):
        pairs.append((f"a{i}", "mal"))
    for i in range(10):
        pairs.append((f"b{i}", "tam"))
    corpus = make_corpus(pairs)
    train, dev = ordered_split(corpus, 0.9)
    assert dev.label_counts() == {"mal": 1, "tam": 1}
    assert train.label_counts() == {"mal": 9, "tam": 9}


def test_ordered_split_partition_property(make_corpus):
    import warnings

    rnd = random.Random(13)
    for _ in range(50):
        labels = [f"l{i}" for i in range(rnd.randint(1, 4))]
        pairs = [(f"w{i}", rnd.choice(labels)) for i in range(rnd.randint(2, 40))]
        corpus = make_corpus(pairs)
        fraction = rnd.choice([0.3, 0.5, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train, dev = ordered_split(corpus, fraction)
        train_ids = [d.id for d in train]
        dev_ids = [d.id for d in dev]
        assert set(train_ids).isdisjoint(dev_ids)
        assert sorted(train_ids + dev_ids) == [d.id for d in corpus]
        assert train_ids == sorted(train_ids)
        assert dev_ids == sorted(dev_ids)
        for label, n in corpus.label_counts().items():
            expected = math.floor(fraction * n)
            assert train.label_counts().get(label, 0) == expected


def test_ordered_split_warns_when_label_side_empty(make_corpus):
    corpus = make_corpus([("solo", "kan"), ("one", "tam"), ("two", "tam")])
    with pytest.warns(UserWarning, match="kan"):
        ordered_split(corpus, 0.9)


def test_ordered_split_rejects_unlabeled(make_unlabeled):
    corpus = make_unlabeled(["a", "b"])
    with pytest.raises(CorpusError):
        ordered_split(corpus, 0.9)


def test_ordered_split_rejects_bad_fraction(make_corpus):
    corpus = make_corpus([("a", "x"), ("b", "x")])
    for fraction in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ordered_split(corpus, fraction)


def test_load_tsv_rejects_empty_label(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("good\ttam\ntext\t\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2: empty label"):
        load_tsv(path)
