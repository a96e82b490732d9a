"""Character n-gram frequency models.

Each word is padded with one leading and one trailing space before
extraction, so word-initial and word-final grams are distinct from
word-internal ones. Models keep raw counts and totals per gram length;
the relative frequency of a gram of length L is count / totals[L].

Extraction runs one gram length at a time over all of a text's padded
words (``_grams_by_length``). A training build feeds each document's
per-length gram lists straight into one ``Counter`` per language and
length, and turns each into the model's dict once at the end;
adaptation folds a document at a time with ``NgramModel.add_grams``.

The smoothing value for a gram absent from a model ("penalty") is the
negative natural log of a gram that would appear exactly once,
multiplied by the model set's penalty modifier (``_penalty``):

    penalty[L] = pm * log(totals[L])

A length with no mass at all gets penalty 0, the continuous extension
of the same formula (totals of 1 also yields 0). Models store no pm and
no penalty: the scorers charge this rule with the pm of the model set
they score, so a set is re-penalized by changing its pm alone.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def _check_within(rng: NgramRange, outer: NgramRange) -> None:
    if not (outer.holds(rng.min_n) and outer.holds(rng.max_n)):
        raise ValueError(f"range {rng} is not inside the models' range {outer}")


def _penalty(pm: float, total: int) -> float:
    """The one smoothing rule: an absent item's cost at a length whose
    counts sum to ``total``."""
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

    def holds(self, length: int) -> bool:
        return self.min_n <= length <= self.max_n

    @staticmethod
    def parse_bounds(spec: str) -> tuple[int, int]:
        """The bounds of ``"2-6"`` (or of a bare ``"3"``, meaning 3-3),
        not yet checked against each other or ``MAX_NGRAM_LENGTH``."""
        parts = spec.split("-")
        if len(parts) > 2:
            raise ValueError(f"bad n-gram range spec {spec!r}")
        return int(parts[0]), int(parts[-1])

    @classmethod
    def parse(cls, spec: str) -> "NgramRange":
        """Parse ``"2-6"`` (or a bare ``"3"`` meaning 3-3)."""
        return cls(*cls.parse_bounds(spec))


def _grams_by_length(
    words: Sequence[str], rng: NgramRange, pad: bool = True
) -> Iterator[tuple[int, list[str]]]:
    """``(length, grams)`` for each gram length in ``rng``, ascending: every
    contiguous substring of that length of every (padded) word, with
    multiplicity, in word order.

    A word ``w`` becomes ``" w "`` unless ``pad`` is off. Lengths that no
    word reaches are not yielded: the stream stops at the first empty one.
    """
    padded = [f" {w} " for w in words] if pad else words
    for n in range(rng.min_n, rng.max_n + 1):
        grams = [s[i : i + n] for s in padded for i in range(len(s) - n + 1)]
        if not grams:
            return
        yield n, grams


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
    of length n. Grams come in ascending length order, and in word order
    within a length.
    """
    words = norm.lowercased if lowercase else norm.words
    grams: list[str] = []
    for _, items in _grams_by_length(words, rng, pad):
        grams += items
    return Counter(grams)


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

    def sliced(self, rng: NgramRange) -> "GramGroups":
        """The groups of the lengths in ``rng``, sharing this one's pairs.

        Every length is extracted on its own, so the slice equals the
        grouped grams of an extraction over ``rng`` alone; its ``len()``
        is its own number of distinct grams.
        """
        part = object.__new__(GramGroups)
        part.groups = [(n, pairs) for n, pairs in self.groups if rng.holds(n)]
        part.size = sum(len(pairs) for _, pairs in part.groups)
        return part


def group_by_length(grams: "Counter | GramGroups") -> list:
    """The ``(length, pairs)`` groups of a gram multiset: a GramGroups'
    own, or those of a Counter grouped on the spot."""
    return grams.groups if isinstance(grams, GramGroups) else GramGroups(grams).groups


@dataclass
class NgramModel:
    """Per-language gram counts and totals, keyed by length.

    ``totals`` must agree with ``counts``: code that edits ``counts``
    directly calls ``refresh`` before the model is used.
    """

    language: str
    counts: dict[int, dict[str, int]] = field(default_factory=dict)
    totals: dict[int, int] = field(default_factory=dict)

    def add_grams(
        self, grams: "Counter | GramGroups", length: int | None = None
    ) -> None:
        """Fold a gram multiset into the model, one document at a time.

        Items are keyed by their own length, or all by ``length`` when it
        is given (word sub-models use pseudo-length 0). Only the totals
        of the lengths the items touch change, so a fold costs the size of
        ``grams`` rather than the size of the model.
        """
        groups = [(length, grams.items())] if length is not None else group_by_length(grams)
        for n, pairs in groups:
            self.totals[n] = self.totals.get(n, 0) + _fold(self.counts.setdefault(n, {}), pairs)

    def refresh(self) -> None:
        """Recompute the totals from the raw counts."""
        self.totals = {n: sum(d.values()) for n, d in self.counts.items()}

    def clone(self, copy_counts: bool = False, rng: NgramRange | None = None) -> "NgramModel":
        """The counts and totals of the lengths in ``rng`` (of every length
        when it is None).

        Each length's counts are shared unless ``copy_counts`` is set, and
        then only the kept lengths are copied. Totals carry over, as they
        agree with the counts.
        """
        kept = [n for n in self.counts if rng is None or rng.holds(n)]
        counts = {n: dict(self.counts[n]) if copy_counts else self.counts[n] for n in kept}
        return NgramModel(self.language, counts, {n: self.totals[n] for n in kept})

    def rel_freq(self, gram: str) -> float:
        by_len = self.counts.get(len(gram))
        if not by_len or gram not in by_len:
            return 0.0
        return by_len[gram] / self.totals[len(gram)]


@dataclass
class ModelSet:
    """Language models sharing one gram range, preprocessing options and
    penalty modifier, which nb scoring charges to every model."""

    models: dict[str, NgramModel]
    range: NgramRange
    penalty_modifier: float
    lowercase: bool = True
    pad: bool = True
    concatenate: bool = False

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

    def with_pm(
        self, pm: float, copy_counts: bool = False, rng: NgramRange | None = None
    ) -> "ModelSet":
        """Clone with a different penalty modifier, narrowed to the gram
        lengths of ``rng`` when it is given.

        Counts and totals are both per length, so the slice of a model set
        over ``rng`` equals a build over ``rng`` alone. Counts are shared
        unless ``copy_counts`` is set; callers that go on to mutate the
        clone (adaptation) must request copies.
        """
        _check_pm(pm)
        if rng is not None:
            _check_within(rng, self.range)
        models = {lang: m.clone(copy_counts, rng) for lang, m in self.models.items()}
        return replace(self, models=models, range=rng or self.range, penalty_modifier=pm)


def _build(
    train: Corpus, name: str, kinds: Iterable[str], doc_items, concatenate: bool = False
) -> dict[str, dict[str, NgramModel]]:
    """Count items per (kind, language, length) over a labeled training corpus.

    ``doc_items`` maps a normalized document to ``(kind, length, items)``
    triples, one per kind and length, where ``items`` is a non-empty raw
    list (or tuple) of items with multiplicity. Each is folded into one
    ``Counter`` per (kind, language, length) with ``Counter.update``, which
    counts in C; at the end each length's counter becomes the model's
    plain dict, one length at a time, and every model is refreshed once.
    Raises if the corpus is unlabeled, if a label cannot be stored in a
    model file, or if nothing at all was counted for a label (no words,
    or no item of any enabled kind): an empty model would win every
    document on penalty 0, and a model file would hold no row for it.
    """
    if not train.labeled:
        raise ValueError(f"{name} requires a labeled corpus")
    languages = sorted(train.label_set)
    _check_labels(languages)
    tallies: dict[str, dict[str, defaultdict[int, Counter]]] = {
        kind: {lang: defaultdict(Counter) for lang in languages} for kind in kinds
    }
    for doc in train:
        norm = normalize(doc.text, concatenate=concatenate)
        for kind, n, items in doc_items(norm):
            tallies[kind][doc.label][n].update(items)
    subs: dict[str, dict[str, NgramModel]] = {}
    for kind, by_lang in tallies.items():
        subs[kind] = {}
        for lang, by_len in by_lang.items():
            model = subs[kind][lang] = NgramModel(lang)
            for n in list(by_len):  # pop as we go: one length's counter and dict at a time
                model.counts[n] = dict(by_len.pop(n))
            model.refresh()
    for lang in languages:
        if not any(any(by_lang[lang].totals.values()) for by_lang in subs.values()):
            raise ValueError(f"language {lang!r}: nothing counted in its training documents")
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
    language with no gram in ``rng``, or a penalty modifier that is not
    positive and finite.
    """
    _check_pm(pm)

    def doc_items(norm: NormalizedText) -> Iterator[tuple[str, int, list[str]]]:
        words = norm.lowercased if lowercase else norm.words
        for n, grams in _grams_by_length(words, rng, pad):
            yield GRAMS, n, grams

    models = _build(train, "build_models", [GRAMS], doc_items, concatenate)[GRAMS]
    return ModelSet(models, rng, pm, lowercase, pad, concatenate)


def add_document(model_set: ModelSet, doc: Document, language: str) -> ModelSet:
    """Fold one document's grams into a language's model, in place.

    Totals of that language are updated for the gram lengths the
    document touches; other languages are untouched. Returns the same
    model set for convenience. Callers must serialize concurrent updates.
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
            run = counts[n]
            lines.extend([f"{head}{item}\t{run[item]}" for item in sorted(run)])
    lines.append("")  # the final newline
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def save_models(model_set: ModelSet, path: str | Path) -> None:
    """Write a model set as diffable UTF-8 text.

    Header lines pin version, range, penalty modifier, and log base;
    rows are ``language<TAB>length<TAB>gram<TAB>count`` sorted by
    (language, length, gram codepoint order).
    """
    header = [
        "#version 1",
        f"#range {model_set.range.min_n} {model_set.range.max_n}",
        f"#pm {float(model_set.penalty_modifier)!r}",
        "#log natural",
        f"#lowercase {int(model_set.lowercase)}",
        f"#pad {int(model_set.pad)}",
        f"#concat {int(model_set.concatenate)}",
    ]
    _write_model_file(path, header, model_set.submodels)


def _read_model_lines(path: Path) -> tuple[dict[str, str], list[str]]:
    """Split a model file into its header key/values and its row lines.

    The header lines (``#key value``) come first, as the writer writes
    them; every line from the first row on is a row line, left for
    ``_parse_rows`` to split and check. A well-formed file ends with a
    newline; a missing one means the file was truncated mid-write.
    """
    raw = path.read_text(encoding="utf-8")
    if not raw:
        raise ModelIOError(f"{path}: empty model file")
    if not raw.endswith("\n"):
        raise ModelIOError(f"{path}: truncated model file (no trailing newline)")
    lines = raw.split("\n")
    lines.pop()  # the empty string after the final newline
    header: dict[str, str] = {}
    for line in lines:
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition(" ")
        if key in header:
            raise ModelIOError(f"{path}: line {len(header) + 1}: repeated header #{key}")
        header[key] = value
    del lines[: len(header)]
    if header.get("version") != "1":
        raise ModelIOError(
            f"{path}: unsupported model file version {header.get('version')!r}"
        )
    if header.get("log", "natural") != "natural":
        raise ModelIOError(f"{path}: unsupported log base {header['log']!r}")
    return header, lines


def _check_header_keys(path: Path, header: dict[str, str], *kind_keys: str) -> None:
    """Reject a header key that neither every model file (version, pm,
    log) nor the file's kind defines: the reader would drop it, and the
    setting it meant to state would silently take its default."""
    for key in header:
        if key not in ("version", "pm", "log") + kind_keys:
            raise ModelIOError(f"{path}: unknown header #{key}")


def _parse_pm(path: Path, header: dict[str, str]) -> float:
    """The ``#pm`` header, spelled as the writer spells it: ``repr`` of
    the float (``2.15``, ``2.0``, ``1e-05``). ``float()`` also takes
    other spellings (``2_15`` is 215.0; ``+2.15``, ``2.150``), which would
    load and save back differently, so they are refused."""
    try:
        value = header["pm"]
        pm = float(value)
        _check_pm(pm)
        if repr(pm) != value:
            raise ValueError(f"pm {value!r} is not spelled as the writer spells it ({pm!r})")
    except (KeyError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad or missing header: {exc}") from exc
    return pm


def _is_canonical_int(s: str) -> bool:
    """Whether ``s`` is an integer as the writer writes it: ASCII digits
    with no sign, underscore, whitespace or leading zero."""
    return s.isdigit() and s.isascii() and (s[0] != "0" or s == "0")


def _parse_range_header(value: str) -> NgramRange:
    """A range header's ``min max``, as the writer writes it."""
    bounds = value.split(" ")
    if len(bounds) != 2 or not all(_is_canonical_int(b) for b in bounds):
        raise ValueError(f"bad range {value!r}")
    return NgramRange(int(bounds[0]), int(bounds[1]))


def _parse_flag(value: str) -> bool:
    if value not in ("0", "1"):
        raise ValueError(f"bad flag {value!r}: expected 0 or 1")
    return value == "1"


def _row_error(path: Path, line: str, problem: str) -> ModelIOError:
    """The error for a malformed row line. A ``#`` line among the rows is
    a header line placed after them, which the reader never skips."""
    if line.startswith("#"):
        problem = "header line after the rows"
    return ModelIOError(f"{path}: {problem}: {line!r}")


def _parse_rows(path: Path, rows: list[str], kinds: dict) -> dict:
    """Split and count row lines into one refreshed model per (kind, language).

    ``kinds`` maps each kind the header enables to ``(header name, gram
    range)``, or to None for a word kind, whose rows use length 0. Rows
    of kind ``GRAMS`` have 4 fields and no kind column, others 5. Each
    line is split as it is counted and must have its kind's width, with
    canonical integers, unique and inside its kind's range; the language,
    length and range are checked once per (language, kind, length) run.
    Every language gets a model of every kind.
    """
    width = 4 if GRAMS in kinds else 5
    subs: dict[str, dict[str, NgramModel]] = {kind: {} for kind in kinds}
    kind, key = GRAMS, None
    for line in rows:
        fields = line.split("\t")
        if len(fields) != width:
            raise _row_error(path, line, f"expected {width} fields, got {len(fields)}")
        if width == 4:
            lang, length_s, item, count_s = fields
        else:
            lang, kind, length_s, item, count_s = fields
        if (lang, kind, length_s) != key:
            key = (lang, kind, length_s)
            if not lang or lang[0] == "#":  # a # line is a header line out of place
                raise _row_error(path, line, "empty language field in row")
            if not _is_canonical_int(length_s):
                raise _row_error(path, line, "bad length in row")
            length = int(length_s)
            if kind not in kinds:
                raise ModelIOError(f"{path}: row kind {kind!r} not enabled in header")
            spec = kinds[kind]
            if spec and not spec[1].min_n <= length <= spec[1].max_n:
                name, rng = spec
                raise ModelIOError(
                    f"{path}: language {lang!r} has {length}-gram rows outside "
                    f"#{name} {rng.min_n} {rng.max_n}"
                )
            model = subs[kind].get(lang)
            if model is None:
                model = subs[kind][lang] = NgramModel(lang)
            by_item = model.counts.setdefault(length, {})
        # _is_canonical_int and at least 1, inlined since it runs on every row
        if not (count_s.isdigit() and count_s.isascii()) or count_s[0] == "0":
            raise _row_error(path, line, "bad count in row")
        if length != (len(item) if spec else 0):
            raise _row_error(path, line, "inconsistent row")
        if item in by_item:
            raise _row_error(path, line, "duplicate row")
        by_item[item] = int(count_s)
    languages = sorted({lang for by_lang in subs.values() for lang in by_lang})
    if not languages:
        raise ModelIOError(f"{path}: model file holds no gram rows")
    for by_lang in subs.values():
        for lang in languages:
            if lang not in by_lang:
                by_lang[lang] = NgramModel(lang)
            by_lang[lang].refresh()
    return subs


def is_heli_model_file(header: dict[str, str], rows: list[str]) -> bool:
    """Whether a file split by ``_read_model_lines`` holds word+gram
    sub-models: it has a ``#lw`` header or its first row has 5 fields."""
    return "lw" in header or bool(rows) and rows[0].count("\t") == 4


def parse_models(path: Path, header: dict, rows: list) -> ModelSet:
    """Build a model set from a file split by ``_read_model_lines``."""
    _check_header_keys(path, header, "range", "lowercase", "pad", "concat")
    pm = _parse_pm(path, header)
    try:
        rng = _parse_range_header(header["range"])
        lowercase, pad, concat = (
            _parse_flag(header.get(key, default))
            for key, default in (("lowercase", "1"), ("pad", "1"), ("concat", "0"))
        )
    except (KeyError, ValueError) as exc:
        raise ModelIOError(f"{path}: bad or missing header: {exc}") from exc
    models = _parse_rows(path, rows, {GRAMS: ("range", rng)})[GRAMS]
    return ModelSet(models, rng, pm, lowercase, pad, concat)


def load_models(path: str | Path) -> ModelSet:
    """Load a model set written by ``save_models``. Round-trip identity holds."""
    path = Path(path)
    return parse_models(path, *_read_model_lines(path))
