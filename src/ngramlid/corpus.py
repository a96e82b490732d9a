"""Corpus loading, text normalization, and ordered train/dev splitting.

A corpus is an ordered sequence of single-line documents, optionally
labeled with a language code. Ordering matters: the split procedure
assigns the first fraction of each label's documents (in file order) to
the training side, so no shuffling ever happens here.
"""

from __future__ import annotations

import math
import unicodedata
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple


class CorpusError(ValueError):
    """Raised for malformed or empty corpus files."""


class Document(NamedTuple):
    """One text line; ``id`` is the 0-based position in the input file.

    A named tuple, since one is built per line read: it builds about
    three times faster than a frozen dataclass.
    """

    id: int
    text: str
    label: str | None = None


@dataclass(frozen=True)
class Corpus:
    docs: tuple[Document, ...]

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    @property
    def label_set(self) -> set[str]:
        return {d.label for d in self.docs if d.label is not None}

    @property
    def labeled(self) -> bool:
        return all(d.label is not None for d in self.docs)

    def label_counts(self) -> dict[str, int]:
        return dict(Counter(d.label for d in self.docs if d.label is not None))


class NormalizedText(NamedTuple):
    """Word sequences extracted from a raw line, in both casings.

    A named tuple, like ``Document``: every document read is normalized
    once, and a named tuple builds faster than a frozen dataclass.
    """

    words: tuple[str, ...]
    lowercased: tuple[str, ...]


def _is_word_char(ch: str) -> bool:
    # Unicode alphabetic: letters and letter numbers. Combining marks are
    # kept too so native-script words survive with their vowel signs
    # attached instead of being split apart.
    if ch.isalpha():
        return True
    return unicodedata.category(ch) in ("Nl", "Mn", "Mc")


class _WordTable(dict):
    """A ``str.translate`` table, filled on first sight of each code point:
    the code point itself for a word character, a space for any other.

    It stores at most ``limit`` code points (no limit when None); past
    that, a code point it does not hold is looked up afresh each time.
    """

    def __init__(self, limit: int | None = None) -> None:
        super().__init__()
        self.limit = limit

    def __missing__(self, code: int) -> int | str:
        value = code if _is_word_char(chr(code)) else " "
        if self.limit is None or len(self) < self.limit:
            self[code] = value
        return value


# Bounded, so that text holding many distinct code points cannot grow it
# without end: every code point would take 1,114,112 entries (74 MB).
_WORD_TABLE = _WordTable(limit=2**16)


def normalize(text: str, concatenate: bool = False) -> NormalizedText:
    """Split ``text`` into words, treating non-alphabetic characters as separators.

    Maximal runs of alphabetic characters become words; everything else
    (digits, punctuation, emoji, whitespace) is dropped. With
    ``concatenate=True`` all runs are glued into a single word, for the
    stricter reading where separators vanish entirely instead of acting
    as word boundaries.

    Every separator becomes a space (``_WORD_TABLE``) and the text is split
    on whitespace; no word character is whitespace, so the words are the
    same runs.
    """
    words = text.translate(_WORD_TABLE).split()
    if concatenate and words:
        words = ["".join(words)]
    wt = tuple(words)
    return NormalizedText(wt, tuple(map(str.lower, wt)))


def _read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file. Lines end at LF only, and a carriage
    return right at the end of a line (a CRLF ending) is dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()  # the empty text after the final line feed
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def load_tsv(path: str | Path, labeled: bool = True) -> Corpus:
    """Load a corpus from a UTF-8 TSV file.

    In labeled mode each line must be ``text<TAB>label``; in unlabeled
    mode the whole line is the text. Lines end at LF only, and a carriage
    return right at the end of a line (a CRLF ending) is dropped; a
    carriage return anywhere else is part of the line (a non-word
    character of its text), so it never splits a document or shifts the
    ids and line numbers after it. Raises :class:`CorpusError` on an
    empty file or, in labeled mode, on a line with the wrong number of
    fields or an empty label.
    """
    path = Path(path)
    docs: list[Document] = []
    for lineno, line in enumerate(_read_lines(path)):
        if labeled:
            fields = line.split("\t")
            if len(fields) != 2:
                raise CorpusError(
                    f"{path}: line {lineno + 1}: expected 2 tab-separated "
                    f"fields, got {len(fields)}"
                )
            text, label = fields
            if not label:
                raise CorpusError(f"{path}: line {lineno + 1}: empty label")
            docs.append(Document(lineno, text, label))
        else:
            docs.append(Document(lineno, line))
    if not docs:
        raise CorpusError(f"{path}: empty corpus file")
    return Corpus(docs=tuple(docs))


def save_tsv(corpus: Corpus, path: str | Path, labeled: bool = True) -> None:
    """Write a corpus in the same TSV format ``load_tsv`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            if labeled:
                if doc.label is None:
                    raise CorpusError(f"document {doc.id} has no label")
                fh.write(f"{doc.text}\t{doc.label}\n")
            else:
                fh.write(f"{doc.text}\n")


def ordered_split(corpus: Corpus, train_fraction: float) -> tuple[Corpus, Corpus]:
    """Split per label: the first ``floor(fraction * n)`` documents of each
    label (in corpus order) go to train, the rest to dev.

    Relative order is preserved on both sides and document ids are kept,
    so the two outputs partition the input exactly. Labels that end up
    empty on either side trigger a warning, not an error.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if not corpus.labeled:
        raise CorpusError("ordered_split requires a fully labeled corpus")

    totals = Counter(d.label for d in corpus)
    quota = {lab: math.floor(train_fraction * n) for lab, n in totals.items()}
    taken: dict[str, int] = defaultdict(int)
    train: list[Document] = []
    dev: list[Document] = []
    for doc in corpus:
        if taken[doc.label] < quota[doc.label]:
            taken[doc.label] += 1
            train.append(doc)
        else:
            dev.append(doc)

    for lab, n in sorted(totals.items()):
        if quota[lab] == 0:
            warnings.warn(f"label {lab!r} has no training documents after split")
        if quota[lab] == n:
            warnings.warn(f"label {lab!r} has no dev documents after split")
    return Corpus(docs=tuple(train)), Corpus(docs=tuple(dev))
