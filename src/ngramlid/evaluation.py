"""Confusion-matrix metrics and the parameter-sweep harness.

Per-class precision, recall, and F1 use the zero convention: any value
whose denominator is zero is 0. The macro F1 averages over the classes
present in the gold labels only; the micro F1 of a single-label
multi-class task equals plain accuracy and is computed as such.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .adaptation import AdaptConfig, adaptive_identify
from .corpus import Corpus
from .heli import HeliConfig, heli_build
from .ngram import NgramRange, build_models
from .scorers import Prediction

SWEEP_METHODS = ("simple", "sum_rf", "nb", "heli")


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


def _run_range(args) -> list[SweepRow]:
    train, dev, method, rng, pms, adapt = args
    rows = []
    if method == "heli":
        base = heli_build(
            train, HeliConfig(lnr=rng, onr=rng, lw=True, ow=True, pm=pms[0])
        )
    else:
        base = build_models(train, rng, pms[0])
    for pm in pms:
        models = base.with_pm(pm, copy_counts=adapt is not None)
        preds = adaptive_identify(dev, models, method, adapt or AdaptConfig(epochs=0))
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

    Models are rebuilt once per range and re-penalized per pm. The
    penalty grid is ignored for the two methods that never smooth.
    Rows come back sorted by macro F1 descending, ties by
    (range.min_n, range.max_n, pm) ascending; repeated runs produce
    identical output. ``jobs`` worker processes (at least 1) build the
    ranges.
    """
    if method not in SWEEP_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {SWEEP_METHODS}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    range_list = sorted(set(ranges), key=lambda r: (r.min_n, r.max_n))
    if not range_list:
        raise ValueError("sweep grid has no n-gram ranges")
    if method in ("nb", "heli"):
        pm_list = sorted(set(pms))
        if not pm_list:
            raise ValueError("sweep grid has no penalty modifiers")
    else:
        pm_list = [1.0]

    tasks = [(train, dev, method, rng, pm_list, adapt) for rng in range_list]
    rows: list[SweepRow] = []
    if jobs > 1:
        # a fork-started pool starts all its workers at once; one per range suffices
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            for chunk in pool.map(_run_range, tasks):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(_run_range(task))

    rows.sort(key=lambda r: (-r.macro_f1, r.range.min_n, r.range.max_n, r.pm))
    return SweepResult(rows=tuple(rows))
