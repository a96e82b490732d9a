"""Character n-gram frequency models.

Each word is padded with one leading and one trailing space before
extraction, so word-initial and word-final grams are distinct from
word-internal ones. Models keep raw counts and totals per gram length;
the relative frequency of a gram of length L is count / totals[L].

The smoothing value for a gram absent from a model ("penalty") is the
negative natural log of a gram that would appear exactly once,
multiplied by a penalty modifier:

    penalty[L] = pm * log(totals[L])

A length with no mass at all gets penalty 0, the continuous extension
of the same formula (totals of 1 also yields 0).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .corpus import Corpus, Document, NormalizedText, normalize

MAX_NGRAM_LENGTH = 12

GRAMS = "gram"  # the one sub-model kind of a ModelSet; its file rows carry no kind column


class ModelIOError(ValueError):
    """Raised for unreadable or malformed model files."""


def _check_pm(pm: float) -> None:
    if not 0 < pm < math.inf:
        raise ValueError(f"penalty modifier must be positive and finite, got {pm}")


def _check_labels(labels: Iterable[str]) -> None:
    """Reject language labels that a model file cannot store.

    Model rows start with the label and are tab-separated, one per line,
    and a line starting with ``#`` is a header; so a label must be
    non-empty, must not start with ``#`` and must not contain a tab, CR
    or LF.
    """
    for label in sorted(labels):
        if not label or label.startswith("#") or any(c in label for c in "\t\r\n"):
            raise ValueError(
                f"language label {label!r} cannot be stored in a model file: "
                "labels must be non-empty, must not start with '#' and must "
                "not contain a tab or line break"
            )


def _penalty(pm: float, total: int) -> float:
    return pm * math.log(total) if total > 0 else 0.0


def _fold(by_len: dict[str, int], pairs: Iterable[tuple[str, int]]) -> int:
    """Add ``(item, count)`` pairs to one length's counts; returns the mass added."""
    added = 0
    for item, c in pairs:
        by_len[item] = by_len.get(item, 0) + c
        added += c
    return added


@dataclass(frozen=True)
class NgramRange:
    min_n: int
    max_n: int

    def __post_init__(self) -> None:
        if not (1 <= self.min_n <= self.max_n <= MAX_NGRAM_LENGTH):
            raise ValueError(
                f"need 1 <= min_n <= max_n <= {MAX_NGRAM_LENGTH}, "
                f"got {self.min_n}-{self.max_n}"
            )

    def __str__(self) -> str:
        return f"{self.min_n}-{self.max_n}"

    @classmethod
    def parse(cls, spec: str) -> "NgramRange":
        """Parse ``"2-6"`` (or a bare ``"3"`` meaning 3-3)."""
        parts = spec.split("-")
        if len(parts) == 1:
            return cls(int(parts[0]), int(parts[0]))
        if len(parts) == 2:
            return cls(int(parts[0]), int(parts[1]))
        raise ValueError(f"bad n-gram range spec {spec!r}")


def extract_ngrams(
    norm: NormalizedText,
    rng: NgramRange,
    lowercase: bool = True,
    pad: bool = True,
) -> Counter:
    """Extract the multiset of character n-grams of a normalized text.

    Every word ``w`` becomes ``" w "`` (unless ``pad`` is off) and all
    contiguous substrings with lengths in ``rng`` are emitted with
    multiplicity; a single word of length L yields max(0, L+3-n) grams
    of length n.
    """
    words = norm.lowercased if lowercase else norm.words
    grams: Counter = Counter()
    for w in words:
        s = f" {w} " if pad else w
        ls = len(s)
        for n in range(rng.min_n, min(rng.max_n, ls) + 1):
            grams.update([s[i : i + n] for i in range(ls - n + 1)])
    return grams


class GramGroups:
    """A gram multiset grouped by gram length, as ``(length, pairs)`` in
    ``groups``, where ``pairs`` iterates ``(gram, count)``.

    ``len()`` is the number of distinct grams, as for the Counter it was
    made from. Scoring and folding walk the groups directly, so a document
    that is scored many times (adaptation) is grouped only once. Each
    length keeps a plain dict, not a list of tuples: a cache of per-gram
    tuples is one garbage-collected object per gram, which made an nb
    sweep run eight times as many full collections.
    """

    __slots__ = ("groups", "size")

    def __init__(self, grams: Counter) -> None:
        by_len: dict[int, dict[str, int]] = {}
        for gram, c in grams.items():
            n = len(gram)
            group = by_len.get(n)
            if group is None:
                group = by_len[n] = {}
            group[gram] = c
        self.groups = [(n, group.items()) for n, group in by_len.items()]
        self.size = len(grams)

    def __len__(self) -> int:
        return self.size


def group_by_length(grams: "Counter | GramGroups") -> list:
    """The ``(length, pairs)`` groups of a gram multiset: a GramGroups'
    own, or those of a Counter grouped on the spot."""
    return grams.groups if isinstance(grams, GramGroups) else GramGroups(grams).groups


@dataclass
class NgramModel:
    """Per-language gram counts, totals, and penalties, keyed by length.

    ``totals`` and ``penalties`` must agree with ``counts``: code that
    edits ``counts`` directly calls ``refresh`` before the model is used.
    """

    language: str
    penalty_modifier: float
    counts: dict[int, dict[str, int]] = field(default_factory=dict)
    totals: dict[int, int] = field(default_factory=dict)
    penalties: dict[int, float] = field(default_factory=dict)

    def add_grams(
        self, grams: "Counter | GramGroups", length: int | None = None
    ) -> None:
        """Fold a gram multiset into the model, one document at a time.

        Items are keyed by their own length, or all by ``length`` when it
        is given (word sub-models use pseudo-length 0). Only the totals
        and penalties of the lengths the items touch are recomputed, with
        the expression ``refresh`` uses, so a fold costs the size of
        ``grams`` rather than the size of the model.
        """
        groups = [(length, grams.items())] if length is not None else group_by_length(grams)
        pm = self.penalty_modifier
        for n, pairs in groups:
            total = self.totals.get(n, 0) + _fold(self.counts.setdefault(n, {}), pairs)
            self.totals[n] = total
            self.penalties[n] = _penalty(pm, total)

    def count_grams(self, grams: Counter, length: int | None = None) -> None:
        """Fold raw counts only, as ``add_grams`` does but leaving totals
        and penalties stale.

        Bulk builds fold every training document this way and call
        ``refresh`` once per model at the end.
        """
        if length is not None:
            _fold(self.counts.setdefault(length, {}), grams.items())
            return
        for gram, c in grams.items():
            by_len = self.counts.setdefault(len(gram), {})
            by_len[gram] = by_len.get(gram, 0) + c

    def refresh(self) -> None:
        """Recompute totals and penalties from the raw counts."""
        self.totals = {n: sum(d.values()) for n, d in self.counts.items()}
        pm = self.penalty_modifier
        self.penalties = {n: _penalty(pm, t) for n, t in self.totals.items()}

    def clone(self, pm: float, copy_counts: bool = False) -> "NgramModel":
        """The same counts under penalty modifier ``pm``; the counts are
        shared unless ``copy_counts`` is set."""
        counts = {n: dict(d) for n, d in self.counts.items()} if copy_counts else self.counts
        clone = NgramModel(language=self.language, penalty_modifier=pm, counts=counts)
        clone.refresh()
        return clone

    def penalty(self, length: int) -> float:
        return self.penalties.get(length, 0.0)

    def rel_freq(self, gram: str) -> float:
        by_len = self.counts.get(len(gram))
        if not by_len or gram not in by_len:
            return 0.0
        return by_len[gram] / self.totals[len(gram)]


@dataclass
class ModelSet:
    """Language models sharing one gram range and preprocessing options."""

    models: dict[str, NgramModel]
    range: NgramRange
    penalty_modifier: float
    lowercase: bool = True
    pad: bool = True
    concatenate: bool = False

    def __post_init__(self) -> None:
        for lang, model in self.models.items():
            if model.penalty_modifier != self.penalty_modifier:
                raise ValueError(
                    f"model {lang!r} disagrees on the penalty modifier"
                )

    @property
    def languages(self) -> list[str]:
        return sorted(self.models)

    @property
    def submodels(self) -> dict[str, dict[str, NgramModel]]:
        """The models as a one-kind map, the shape ``HeliModelSet`` has."""
        return {GRAMS: self.models}

    def doc_grams(self, doc: Document) -> Counter:
        """Gram multiset of a document under this model set's options."""
        norm = normalize(doc.text, concatenate=self.concatenate)
        return extract_ngrams(norm, self.range, self.lowercase, self.pad)

    def with_pm(self, pm: float, copy_counts: bool = False) -> "ModelSet":
        """Clone with a different penalty modifier.

        Counts are shared unless ``copy_counts`` is set; callers that go
        on to mutate the clone (adaptation) must request copies.
        """
        _check_pm(pm)
        models = {lang: m.clone(pm, copy_counts) for lang, m in self.models.items()}
        return replace(self, models=models, penalty_modifier=pm)


def _build(
    train: Corpus, name: str, kinds: Iterable[str], pm: float, doc_items, concatenate: bool = False
) -> dict[str, dict[str, NgramModel]]:
    """Count items per (kind, language) over a labeled training corpus.

    ``doc_items`` maps a normalized document to ``(kind, items, length)``
    triples, folded as ``NgramModel.count_grams`` folds them; every model
    is refreshed once at the end. Raises if the corpus is unlabeled, if a
    label cannot be stored in a model file, or if a label's documents
    normalize to zero words, since its models would be empty.
    """
    if not train.labeled:
        raise ValueError(f"{name} requires a labeled corpus")
    languages = sorted(train.label_set)
    _check_labels(languages)
    subs = {kind: {lang: NgramModel(lang, pm) for lang in languages} for kind in kinds}
    words_seen: Counter = Counter()
    for doc in train:
        norm = normalize(doc.text, concatenate=concatenate)
        words_seen[doc.label] += len(norm.words)
        for kind, items, length in doc_items(norm):
            subs[kind][doc.label].count_grams(items, length)
    for lang in languages:
        if not words_seen[lang]:
            raise ValueError(f"language {lang!r}: no words after normalization")
    for by_lang in subs.values():
        for model in by_lang.values():
            model.refresh()
    return subs


def build_models(
    train: Corpus,
    rng: NgramRange,
    pm: float,
    lowercase: bool = True,
    pad: bool = True,
    concatenate: bool = False,
) -> ModelSet:
    """Accumulate per-language gram counts over a labeled training corpus.

    Raises for an unlabeled corpus, a label a model file cannot store, a
    language with no words, or a penalty modifier that is not positive
    and finite.
    """
    _check_pm(pm)

    def doc_items(norm: NormalizedText) -> list:
        return [(GRAMS, extract_ngrams(norm, rng, lowercase, pad), None)]

    models = _build(train, "build_models", [GRAMS], pm, doc_items, concatenate)[GRAMS]
    return ModelSet(models, rng, pm, lowercase, pad, concatenate)


def add_document(model_set: ModelSet, doc: Document, language: str) -> ModelSet:
    """Fold one document's grams into a language's model, in place.

    Totals and penalties of that language are updated for the gram
    lengths the document touches; other languages are untouched. Returns
    the same model set for convenience. Callers must serialize concurrent
    updates.
    """
    if language not in model_set.models:
        raise ValueError(f"unknown language {language!r}")
    grams = model_set.doc_grams(doc)
    if grams:
        model_set.models[language].add_grams(grams)
    return model_set


def _write_model_file(path: str | Path, header: list[str], submodels: dict) -> None:
    """Write header lines, then one row per counted item.

    Rows are ``language<TAB>kind<TAB>length<TAB>item<TAB>count`` sorted by
    (language, kind, length, item codepoint order); rows of kind ``GRAMS``
    carry no kind column.
    """
    lines = list(header)
    models = {(lang, kind): m for kind, by_lang in submodels.items() for lang, m in by_lang.items()}
    for lang, kind in sorted(models):
        prefix = f"{lang}\t" if kind == GRAMS else f"{lang}\t{kind}\t"
        counts = models[lang, kind].counts
        for n in sorted(counts):
            head = f"{prefix}{n}\t"
            lines.extend([f"{head}{item}\t{counts[n][item]}" for item in sorted(counts[n])])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_models(model_set: ModelSet, path: str | Path) -> None:
    """Write a model set as diffable UTF-8 text.

    Header lines pin version, range, penalty modifier, and log base;
    rows are ``language<TAB>length<TAB>gram<TAB>count`` sorted by
    (language, length, gram codepoint order).
    """
    header = [
        "#version 1",
        f"#range {model_set.range.min_n} {model_set.range.max_n}",
        f"#pm {model_set.penalty_modifier!r}",
        "#log natural",
        f"#lowercase {int(model_set.lowercase)}",
        f"#pad {int(model_set.pad)}",
        f"#concat {int(model_set.concatenate)}",
    ]
    _write_model_file(path, header, model_set.submodels)


def _read_model_lines(path: Path) -> tuple[dict[str, str], list[list[str]], int]:
    """Split a model file into header key/values, data rows and the row width.

    A well-formed file ends with a newline; a missing one means the file
    was truncated mid-write.
    """
    raw = path.read_text(encoding="utf-8")
    if not raw:
        raise ModelIOError(f"{path}: empty model file")
    if not raw.endswith("\n"):
        raise ModelIOError(f"{path}: truncated model file (no trailing newline)")
    header: dict[str, str] = {}
    rows: list[list[str]] = []
    n_fields = 0
    for lineno, line in enumerate(raw.split("\n")[:-1], start=1):
        if line.startswith("#"):
            key, _, value = line[1:].partition(" ")
            if key in header:
                raise ModelIOError(f"{path}: line {lineno}: repeated header #{key}")
            header[key] = value
        else:
            fields = line.split("\t")
            if not rows:
                n_fields = len(fields)
            elif len(fields) != n_fields:
                raise ModelIOError(f"{path}: line {lineno}: ragged row")
            rows.append(fields)
    if header.get("version") != "1":
        raise ModelIOError(
            f"{path}: unsupported model file version {header.get('version')!r}"
        )
    if header.get("log", "natural") != "natural":
        raise ModelIOError(f"{path}: unsupported log base {header['log']!r}")
    return header, rows, n_fields


def _parse_pm(path: Path, header: dict[str, str]) -> float:
    try:
        pm = float(header["pm"])
        _check_pm(pm)
    except (KeyError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad or missing header: {exc}") from exc
    return pm


def _is_canonical_int(s: str) -> bool:
    """Whether ``s`` is an integer as the writer writes it: ASCII digits
    with no sign, underscore, whitespace or leading zero."""
    return s.isdigit() and s.isascii() and (s[0] != "0" or s == "0")


def _parse_rows(path: Path, rows: list, n_fields: int, pm: float, kinds: dict) -> dict:
    """Count rows into one refreshed model per (kind, language).

    ``kinds`` maps each kind the header enables to ``(header name, gram
    range)``, or to None for a word kind, whose rows use length 0. Rows
    of kind ``GRAMS`` carry no kind column. Rows must be well formed,
    with canonical integers, unique and inside their kind's range; the
    length and range are checked once per (language, kind, length) run.
    Every language gets a model of every kind.
    """
    width = 4 if GRAMS in kinds else 5
    if rows and n_fields != width:
        raise ModelIOError(f"{path}: expected {width} fields per row, got {n_fields}")
    subs: dict[str, dict[str, NgramModel]] = {kind: {} for kind in kinds}
    kind, key = GRAMS, None
    for fields in rows:
        if width == 4:
            lang, length_s, item, count_s = fields
        else:
            lang, kind, length_s, item, count_s = fields
        if (lang, kind, length_s) != key:
            key = (lang, kind, length_s)
            if not _is_canonical_int(length_s):
                raise ModelIOError(f"{path}: bad length in row {fields!r}")
            length = int(length_s)
            if kind not in kinds:
                raise ModelIOError(f"{path}: row kind {kind!r} not enabled in header")
            if not lang:
                raise ModelIOError(f"{path}: row with an empty language field")
            spec = kinds[kind]
            if spec and not spec[1].min_n <= length <= spec[1].max_n:
                name, rng = spec
                raise ModelIOError(
                    f"{path}: language {lang!r} has {length}-gram rows outside "
                    f"#{name} {rng.min_n} {rng.max_n}"
                )
            model = subs[kind].get(lang)
            if model is None:
                model = subs[kind][lang] = NgramModel(language=lang, penalty_modifier=pm)
            by_item = model.counts.setdefault(length, {})
        # _is_canonical_int and at least 1, inlined since it runs on every row
        if not (count_s.isdigit() and count_s.isascii()) or count_s[0] == "0":
            raise ModelIOError(f"{path}: bad count in row {fields!r}")
        if length != (len(item) if spec else 0):
            raise ModelIOError(f"{path}: inconsistent row {fields!r}")
        if item in by_item:
            raise ModelIOError(f"{path}: duplicate row {fields!r}")
        by_item[item] = int(count_s)
    languages = sorted({lang for by_lang in subs.values() for lang in by_lang})
    if not languages:
        raise ModelIOError(f"{path}: model file holds no gram rows")
    for by_lang in subs.values():
        for lang in languages:
            if lang not in by_lang:
                by_lang[lang] = NgramModel(language=lang, penalty_modifier=pm)
            by_lang[lang].refresh()
    return subs


def is_heli_model_file(header: dict[str, str], n_fields: int) -> bool:
    """Whether a file split by ``_read_model_lines`` holds word+gram
    sub-models: it has a ``#lw`` header or 5-column rows."""
    return "lw" in header or n_fields == 5


def parse_models(path: Path, header: dict, rows: list, n_fields: int) -> ModelSet:
    """Build a model set from a file split by ``_read_model_lines``."""
    pm = _parse_pm(path, header)
    try:
        lo, hi = header["range"].split()
        rng = NgramRange(int(lo), int(hi))
        lowercase, pad, concat = (
            bool(int(header.get(key, default)))
            for key, default in (("lowercase", "1"), ("pad", "1"), ("concat", "0"))
        )
    except (KeyError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad or missing header: {exc}") from exc
    models = _parse_rows(path, rows, n_fields, pm, {GRAMS: ("range", rng)})[GRAMS]
    return ModelSet(models, rng, pm, lowercase, pad, concat)


def load_models(path: str | Path) -> ModelSet:
    """Load a model set written by ``save_models``. Round-trip identity holds."""
    path = Path(path)
    return parse_models(path, *_read_model_lines(path))
