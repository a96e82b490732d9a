"""Confusion-matrix metrics and the parameter-sweep harness.

Per-class precision, recall, and F1 use the zero convention: any value
whose denominator is zero is 0. The macro F1 averages over the classes
present in the gold labels only; the micro F1 of a single-label
multi-class task equals plain accuracy and is computed as such.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .adaptation import ADAPT_METHODS, AdaptConfig, adaptive_identify
from .corpus import Corpus
from .heli import HeliConfig, heli_build
from .ngram import NgramRange, _check_pm, _penalty, build_models
from .scorers import Prediction, _nb_length_terms, to_prediction


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    confusion: dict[tuple[str, str], int]
    per_class: dict[str, ClassMetrics]
    macro_f1: float
    micro_f1: float
    n: int

    def to_tsv(self) -> str:
        lines = ["label\tprecision\trecall\tf1\tsupport"]
        for label in sorted(self.per_class):
            m = self.per_class[label]
            lines.append(f"{label}\t{m.precision!r}\t{m.recall!r}\t{m.f1!r}\t{m.support}")
        lines.append(f"macro_f1\t{self.macro_f1!r}")
        lines.append(f"micro_f1\t{self.micro_f1!r}")
        lines.append(f"n\t{self.n}")
        return "\n".join(lines) + "\n"

    def pretty(self) -> str:
        labels = sorted(self.per_class)
        width = max([5] + [len(l) for l in labels])
        lines = [f"{'label':<{width}}  {'prec':>6}  {'rec':>6}  {'f1':>6}  {'support':>7}"]
        for label in labels:
            m = self.per_class[label]
            lines.append(
                f"{label:<{width}}  {m.precision:>6.4f}  {m.recall:>6.4f}  "
                f"{m.f1:>6.4f}  {m.support:>7}"
            )
        lines.append("")
        preds = sorted({p for _, p in self.confusion})
        head = "  ".join(f"{p:>{width}}" for p in preds)
        corner = "gold\\pred"
        lines.append(f"{corner:<{width}}  {head}")
        for gold in labels:
            row = "  ".join(
                f"{self.confusion.get((gold, p), 0):>{width}}" for p in preds
            )
            lines.append(f"{gold:<{width}}  {row}")
        lines.append("")
        lines.append(f"macro F1: {self.macro_f1:.4f}")
        lines.append(f"micro F1: {self.micro_f1:.4f}")
        lines.append(f"documents: {self.n}")
        return "\n".join(lines) + "\n"


def evaluate(preds: list[Prediction], gold: Corpus) -> EvalReport:
    """Compare predictions against a labeled corpus, matching by doc id."""
    if not gold.labeled:
        raise ValueError("evaluate requires a labeled gold corpus")
    by_id = {p.doc_id: p for p in preds}
    if len(by_id) != len(preds):
        raise ValueError("duplicate doc ids in predictions")
    gold_ids = {d.id for d in gold}
    if set(by_id) != gold_ids or len(gold) != len(preds):
        raise ValueError("predictions and gold corpus do not align by doc id")

    confusion: Counter = Counter()
    for doc in gold:
        confusion[(doc.label, by_id[doc.id].best)] += 1

    classes = sorted(gold.label_set)
    per_class: dict[str, ClassMetrics] = {}
    correct = 0
    for cls in classes:
        tp = confusion.get((cls, cls), 0)
        fp = sum(c for (g, p), c in confusion.items() if p == cls and g != cls)
        fn = sum(c for (g, p), c in confusion.items() if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls] = ClassMetrics(precision, recall, f1, support=tp + fn)
        correct += tp

    macro = sum(m.f1 for m in per_class.values()) / len(classes)
    micro = correct / len(gold)
    return EvalReport(
        confusion=dict(confusion),
        per_class=per_class,
        macro_f1=macro,
        micro_f1=micro,
        n=len(gold),
    )


@dataclass(frozen=True)
class SweepRow:
    method: str
    range: NgramRange
    pm: float
    macro_f1: float
    micro_f1: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def to_tsv(self) -> str:
        lines = ["method\trange_min\trange_max\tpm\tmacro_f1\tmicro_f1"]
        for r in self.rows:
            lines.append(
                f"{r.method}\t{r.range.min_n}\t{r.range.max_n}\t{r.pm!r}\t"
                f"{r.macro_f1!r}\t{r.micro_f1!r}"
            )
        return "\n".join(lines) + "\n"


def _exact_parts(terms: list[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of ``terms``.

    The first part is ``fsum(terms)``, each next one the ``fsum`` of what
    the parts so far leave, until nothing is left: usually 1-3 floats.
    ``fsum`` rounds the exact sum of its inputs correctly, so for any
    ``extra``, ``fsum(parts + extra)`` and ``fsum(terms + extra)`` are the
    same float (short of overflow). The first part is kept even when it is zero, so the sign
    of an all-zero sum follows ``fsum`` over the terms.
    """
    if not terms:
        return []
    parts = [math.fsum(terms)]
    while rest := math.fsum(terms + [-p for p in parts]):
        parts.append(rest)
    return parts


def _compact_terms(split: list[tuple[int, list[float], list[int]]]) -> list[tuple]:
    """``_nb_length_terms`` in compact form, ``(length, parts, groups)``
    per length: the present terms as ``_exact_parts``, and the absent
    multiplicities as ``(mult, copies)`` pairs."""
    return [(n, _exact_parts(present), Counter(absent).items()) for n, present, absent in split]


def _range_terms(compact: list[tuple], rng: NgramRange) -> tuple[list[float], list[tuple]]:
    """The parts of ``rng``'s lengths in one list, and their absent
    groups as ``(length, mult, copies)``; every pm of the range shares them."""
    parts: list[float] = []
    absent = []
    for n, length_parts, groups in compact:
        if rng.holds(n):
            parts += length_parts
            absent += [(n, mult, copies) for mult, copies in groups]
    return parts, absent


def _nb_cell_scores(
    terms: dict[str, tuple[list[float], list[tuple]]], pens: dict[str, dict[int, float]]
) -> dict[str, float]:
    """One document's nb scores in one cell.

    ``terms`` maps a language to the ``_range_terms`` of the document on
    the union build, and ``pens`` to the cell's ``_penalty`` per gram
    length of that build's totals; a length a language has no total for
    costs 0, as ``_penalty`` gives. Each absent gram gets its own
    ``mult * pen`` term, as in ``_score_nb``, and the parts carry the
    exact sum of the present terms, so ``fsum`` gives ``_score_nb``'s bits.
    """
    scores = {}
    for lang, (parts, absent) in terms.items():
        pen_of = pens[lang]
        cell = parts.copy()
        for n, mult, copies in absent:
            cell += [mult * pen_of.get(n, 0.0)] * copies
        scores[lang] = math.fsum(cell)
    return scores


def _sweep_ranges(args) -> list[SweepRow]:
    """Every (range, pm) cell of a group of ranges, in one pass.

    The models are built once over the group's union range, and each dev
    document's grams are extracted once over it. Counts and totals are
    both per gram length, so each cell scores the length slices of both,
    which equal a build and an extraction over the cell's range alone.
    An nb sweep without adaptation goes further: it splits each dev
    document's terms once per language on the union build and compacts
    each length's once (``_compact_terms``): present terms into
    ``_exact_parts``, absent multiplicities into ``(mult, copies)``
    groups. Each range gathers its lengths' parts and groups once per
    document and language (``_range_terms``), shared by all its pms, and
    each cell adds one ``mult * pen`` term per absent gram under its own
    penalties and sums with ``fsum`` (``_nb_cell_scores``), with no model
    clone. ``fsum`` depends only on the exact sum of its inputs, and the
    parts keep the present terms' exact sum, so scores, and so the rows,
    equal ``adaptive_identify`` with ``epochs=0`` on the cell's slices,
    bit for bit.
    """
    train, dev, method, ranges, pms, adapt = args
    union = NgramRange(min(r.min_n for r in ranges), max(r.max_n for r in ranges))
    terms = None
    if method == "heli":
        base = heli_build(train, HeliConfig(lnr=union, onr=union, lw=True, ow=True, pm=pms[0]))
        dev_grams = None
    else:
        base = build_models(train, union, pms[0])
        dev_grams = {doc.id: base.doc_grams(doc) for doc in dev}
        if method == "nb" and adapt.epochs == 0:
            terms = {
                i: {
                    lang: _compact_terms(_nb_length_terms(g.groups, m))
                    for lang, m in base.models.items()
                }
                for i, g in dev_grams.items()
            }
            dev_grams = None  # its cells read the terms, so no grams are sliced
    rows = []
    for rng in ranges:
        grams = None if dev_grams is None else {i: g.sliced(rng) for i, g in dev_grams.items()}
        cells = None if terms is None else {
            i: {lang: _range_terms(compact, rng) for lang, compact in by_lang.items()}
            for i, by_lang in terms.items()
        }
        for pm in pms:
            if cells is None:
                models = base.with_pm(pm, copy_counts=adapt.epochs > 0, rng=rng)
                preds = adaptive_identify(dev, models, method, adapt, grams=grams)
            else:
                pens = {
                    lang: {n: _penalty(pm, total) for n, total in m.totals.items()}
                    for lang, m in base.models.items()
                }
                preds = [
                    to_prediction(doc.id, _nb_cell_scores(cells[doc.id], pens), lower=True)
                    for doc in dev
                ]
            report = evaluate(preds, dev)
            rows.append(SweepRow(method, rng, pm, report.macro_f1, report.micro_f1))
    return rows


def sweep(
    train: Corpus,
    dev: Corpus,
    method: str,
    ranges: list[NgramRange],
    pms: list[float],
    adapt: AdaptConfig | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate every (range, pm) grid cell on the dev split.

    Models are built once, over the union of the grid's ranges, and
    sliced per cell; each dev document is extracted once. Without
    adaptation, an nb sweep also computes each dev document's per-length
    terms once per language: present grams' ``-log`` frequencies and
    absent grams' multiplicities. The present terms of a length are kept
    as a few floats with the same exact sum (usually 1-3), and each
    range joins its lengths' floats once for all its pms. Each cell then
    only charges its penalties, from the union build's totals, and sums
    with ``math.fsum``; being correctly rounded, ``fsum`` gives the bits
    of a direct score from any inputs with the same exact sum.
    The grid must hold a pm, and every pm is checked, before anything is
    built, for every method. The two methods that never smooth (simple,
    sum_rf) then sweep one cell per range, reported with pm 1.0, whatever
    the grid holds. Rows come back sorted by macro F1 descending, ties by
    (range.min_n, range.max_n, pm) ascending; repeated runs produce
    identical output. With ``jobs`` (at least 1)
    above 1, the sorted ranges are split into ``min(jobs, ranges)``
    contiguous groups, each swept the same way in its own worker process;
    the output does not depend on ``jobs``.
    """
    if method not in ADAPT_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {ADAPT_METHODS}")
    adapt = adapt or AdaptConfig(epochs=0)  # None: no adaptation
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    range_list = sorted(set(ranges), key=lambda r: (r.min_n, r.max_n))
    if not range_list:
        raise ValueError("sweep grid has no n-gram ranges")
    if not pms:
        raise ValueError("sweep grid has no penalty modifiers")
    for pm in pms:  # every method, before any build, not when the pm's cell is reached
        _check_pm(pm)
    pm_list = sorted(set(pms)) if method in ("nb", "heli") else [1.0]

    n, n_groups = len(range_list), min(jobs, len(range_list))
    groups = [range_list[i * n // n_groups : (i + 1) * n // n_groups] for i in range(n_groups)]
    tasks = [(train, dev, method, group, pm_list, adapt) for group in groups]
    if len(tasks) > 1:
        # a fork-started pool starts all its workers at once; one per group
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            chunks = list(pool.map(_sweep_ranges, tasks))
    else:
        chunks = [_sweep_ranges(tasks[0])]

    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (-r.macro_f1, r.range.min_n, r.range.max_n, r.pm))
    return SweepResult(rows=tuple(rows))
