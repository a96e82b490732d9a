"""Seeded mutation fuzz of the files the command line reads.

Saved nb and heli model files, a training TSV and a prediction file
written by ``identify`` are spoiled by one to three mutations: a
flipped bit; an inserted tab, CR, ``#``, NUL, U+2028, ``\\x0b`` or run
of 30 digits; a deleted, duplicated or swapped line; a truncation; or
CRLF line ends throughout. For a model file, half the positions fall in
the header block, which is a small part of the file. ``identify`` on
every model mutant, ``train`` on every training mutant and ``evaluate``
on every prediction mutant must exit 0 or 2, never raise. A model
mutant that loads must save back as the same model, and a prediction
mutant that reads must write back as the same bytes: the only
differences allowed are the ones listed in ``_assert_saves_back`` and
``_as_written``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from ngramlid import HeliConfig, NgramRange, build_models, heli_build
from ngramlid.cli import _load_any_models, main, read_predictions, write_predictions
from ngramlid.corpus import Corpus, CorpusError, Document, save_tsv
from ngramlid.heli import save_heli_models
from ngramlid.ngram import save_models

CASES = 200  # per model kind
INSERTS = (b"\t", b"\r", b"#", b"\x00", "\u2028".encode(), b"\x0b")
# header lines a reader fills in when they are missing, per model kind
DEFAULT_HEADERS = {
    "nb": {"#log natural", "#lowercase 1", "#pad 1", "#concat 0"},
    "heli": {"#log natural"},
}


def _corpus() -> Corpus:
    rnd = random.Random(3)
    letters = {"en": "etaoinsAB", "fi": "aeiklnstÄä", "tr": "aeıinrİş"}
    docs = []
    for lang in sorted(letters) * 5:
        words = ("".join(rnd.choice(letters[lang]) for _ in range(rnd.randint(1, 5)))
                 for _ in range(rnd.randint(2, 5)))
        docs.append(Document(len(docs), " ".join(words), lang))
    return Corpus(docs=tuple(docs))


def _save(kind: str, path) -> None:
    corpus = _corpus()
    if kind == "nb":
        save_models(build_models(corpus, NgramRange(1, 3), 2.15, lowercase=False), path)
    else:
        config = HeliConfig(NgramRange(1, 3), NgramRange(2, 3), lw=True, ow=True, pm=2.15)
        save_heli_models(heli_build(corpus, config), path)


def _spot(rnd: random.Random, size: int, head: int) -> int:
    """An index below ``size``, below ``head`` (the header's share) half the
    time; any index below ``size`` when ``head`` is 0."""
    return rnd.randrange(min(head, size) if rnd.random() < 0.5 and head else size)


def _mutate(rnd: random.Random, data: bytes) -> bytes:
    op = rnd.choice(("flip", "insert", "digits", "delete", "duplicate", "swap",
                     "truncate", "crlf"))
    if op == "crlf":
        return data.replace(b"\n", b"\r\n")
    header_end = data.find(b"\n", data.rfind(b"\n#")) + 1
    if op in ("delete", "duplicate", "swap"):
        lines = data.split(b"\n")
        head = data[:header_end].count(b"\n")
        i, j = _spot(rnd, len(lines), head), _spot(rnd, len(lines), head)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    pos = _spot(rnd, len(data) + 1, header_end + 1)
    if op == "flip" and pos < len(data):
        return data[:pos] + bytes([data[pos] ^ 1 << rnd.randrange(8)]) + data[pos + 1:]
    if op == "truncate":
        return data[:pos]
    if op == "digits":
        insert = "".join(rnd.choice("0123456789") for _ in range(30)).encode()
    else:
        insert = rnd.choice(INSERTS)
    return data[:pos] + insert + data[pos:]


def _assert_saves_back(kind: str, mutant: bytes, saved: bytes) -> None:
    """The save-back holds the mutant's lines, but for three allowed
    differences: rows or header lines in another order (the writer sorts
    rows and fixes the header order), default header lines the mutant
    omits, and CRLF line ends (the reader's ``read_text`` translates
    them)."""
    mutant_lines = Counter(mutant.decode("utf-8").replace("\r\n", "\n").split("\n"))
    saved_lines = Counter(saved.decode("utf-8").split("\n"))
    assert not mutant_lines - saved_lines, mutant
    assert set(saved_lines - mutant_lines) <= DEFAULT_HEADERS[kind], mutant


def _mutants(rnd: random.Random, data: bytes):
    """``CASES`` mutants of ``data``, each by one to three mutations."""
    for _ in range(CASES):
        mutant = data
        for _ in range(rnd.randint(1, 3)):
            mutant = _mutate(rnd, mutant)
        yield mutant


@pytest.mark.parametrize("kind", ["nb", "heli"])
def test_mutated_model_files_exit_0_or_2_and_save_back_the_same(tmp_path, capsys, kind):
    original = tmp_path / "original.tsv"
    _save(kind, original)
    data = original.read_bytes()
    test_file = tmp_path / "test.txt"
    test_file.write_text("etao sina\nÄäkl İşın\n\nAB ae\n", encoding="utf-8")
    model, again = tmp_path / "model.tsv", tmp_path / "again.tsv"
    identify = ["identify", "--model", str(model), "--in", str(test_file),
                "--out", str(tmp_path / "pred.tsv")]
    rnd = random.Random(7)
    outcomes = Counter()
    for mutant in _mutants(rnd, data):
        model.write_bytes(mutant)
        code = main(identify)
        assert code in (0, 2), mutant
        assert "Traceback" not in capsys.readouterr().err
        try:
            models, method = _load_any_models(str(model), None)
        except ValueError:  # ModelIOError and UnicodeDecodeError among them
            outcomes["rejected"] += 1
            continue
        (save_heli_models if method == "heli" else save_models)(models, again)
        _assert_saves_back(method, mutant, again.read_bytes())
        outcomes["loaded"] += 1
    assert outcomes["loaded"] >= CASES // 10 and outcomes["rejected"] >= CASES // 10, outcomes


def test_mutated_training_files_exit_0_or_2(tmp_path, capsys):
    original = tmp_path / "train.tsv"
    save_tsv(_corpus(), original)
    data = original.read_bytes()
    train = tmp_path / "mutant.tsv"
    rnd = random.Random(11)
    codes = Counter()
    for i, mutant in enumerate(_mutants(rnd, data)):
        train.write_bytes(mutant)
        method = ["--method", "heli", "--lnr", "1-3"] if i % 2 else ["--min-n", "1", "--max-n", "3"]
        code = main(["train", "--in", str(train), "--model", str(tmp_path / "m.tsv"), *method])
        assert code in (0, 2), mutant
        assert "Traceback" not in capsys.readouterr().err
        codes[code] += 1
    assert codes[0] >= CASES // 10 and codes[2] >= CASES // 10, codes


def _as_written(mutant: bytes) -> bytes:
    """The bytes a prediction file reads back as, with the two allowed
    differences: a CR that ends a line is dropped (CRLF line ends), and
    a missing final line feed is added."""
    lines = mutant.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return b"".join((line[:-1] if line.endswith(b"\r") else line) + b"\n" for line in lines)


def test_mutated_prediction_files_exit_0_or_2_and_write_back_the_same(tmp_path, capsys):
    corpus = _corpus()
    gold, text = tmp_path / "gold.tsv", tmp_path / "test.txt"
    save_tsv(corpus, gold)
    save_tsv(corpus, text, labeled=False)
    model, pred = tmp_path / "model.tsv", tmp_path / "pred.tsv"
    _save("nb", model)
    assert main(["identify", "--model", str(model), "--in", str(text), "--out", str(pred)]) == 0
    data = pred.read_bytes()
    again = tmp_path / "again.tsv"
    evaluate = ["evaluate", "--pred", str(pred), "--gold", str(gold)]
    rnd = random.Random(13)
    outcomes = Counter()
    for mutant in _mutants(rnd, data):
        pred.write_bytes(mutant)
        code = main(evaluate)
        assert code in (0, 2), mutant
        assert "Traceback" not in capsys.readouterr().err
        try:
            preds = read_predictions(pred)
        except (CorpusError, UnicodeDecodeError):
            assert code == 2, mutant
            outcomes["rejected"] += 1
            continue
        write_predictions(preds, again)
        assert again.read_bytes() == _as_written(mutant), mutant
        outcomes["read"] += 1
        outcomes[f"evaluate exit {code}"] += 1
    assert outcomes["read"] >= CASES // 10 and outcomes["rejected"] >= CASES // 10, outcomes
    assert outcomes["evaluate exit 0"] >= CASES // 20, outcomes
