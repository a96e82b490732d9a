"""Workload inputs and pipelines.

Every corpus comes from ``ngramlid.synth`` with seeds derived from the
benchmark's ``--seed``; the program itself only ever sees the TSV files
written here. Sizes are scaled down from the paper-scale corpora so that
several repetitions of each pipeline fit into one run.

``system1-16lang`` and ``sweep-4lang`` mix documents of 2, 6 and 16
words, so that single-document latency has a spread of its own and its
p99 is set by long documents rather than by host scheduling hiccups.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from ngramlid.corpus import Corpus, Document, ordered_split, save_tsv
from ngramlid.synth import LanguageSpec, SynthSpec, generate

SHARED = LanguageSpec(code="en", inventory="etaoins", word_lengths=(2, 3, 4))

# The acceptance suite's PERF_SPEC languages (tests/test_acceptance.py).
PERF_LANGUAGES = (
    LanguageSpec(code="kan", inventory="abcdefghij"),
    LanguageSpec(code="mal", inventory="cdefghijkl"),
    LanguageSpec(code="tam", inventory="efghijklmn"),
    LanguageSpec(code="other", inventory="ghijklmnop"),
)

# 16 languages whose 10-letter inventories shift by one letter, so
# neighbours share 9 of 10 letters.
SIXTEEN_LANGUAGES = tuple(
    LanguageSpec(code=f"l{i:02d}", inventory=string.ascii_lowercase[i : i + 10])
    for i in range(16)
)

MIXED_DOC_WORDS = (2, 6, 16)
SYSTEM1_DOCS_PER_LENGTH = 60  # per language: 180 documents, 162 train / 18 test
HELI_LINES = 1000  # per language: 900 train / 100 test
SWEEP_DOCS_PER_LENGTH = 160  # per language: 480 documents, 432 train / 48 dev

SWEEP_RANGES = "1-2,1-3,2-3,2-4,2-5,2-6,3-5,3-6,4-6,5-6"
SWEEP_PMS = "1.5,1.8,2.0,2.15,2.5"

NB_TRAIN = ["--min-n", "2", "--max-n", "6", "--pm", "2.15"]
HELI_TRAIN = ["--method", "heli", "--lnr", "2-6", "--onr", "2-6", "--lw", "y", "--ow", "y",
              "--pm", "2.15"]
ADAPT = ["--adapt-k", "20", "--epochs", "1"]


@dataclass(frozen=True)
class Step:
    """One CLI command of a pipeline and the output files it must reproduce."""

    name: str
    argv: list[str]
    in_job: bool
    outputs: dict[str, Path]


@dataclass(frozen=True)
class Workload:
    name: str
    languages: tuple[LanguageSpec, ...]
    doc_words: tuple[int, ...]  # document lengths, interleaved within each language
    docs_per_length: int  # per language and document length
    pipeline: Callable[["Files"], list[Step]]
    latency_method: str  # method used by the single-document latency pass
    setup_reads_model: bool  # setup = model + test load (else train + dev load)
    setup_reps: int  # set-up repetitions per measurement cycle
    oracle: bool  # corpus is lowercase ASCII and checked against the brute-force oracle

    def corpora(self, seed: int) -> tuple[Corpus, Corpus]:
        return ordered_split(_interleaved(self, seed), 0.9)


def _train(f: "Files", train_args: list[str], in_job: bool) -> Step:
    return Step("train", ["train", "--in", str(f.train), "--model", str(f.model)] + train_args,
                in_job, {"model": f.model})


def _identify_argv(f: "Files") -> list[str]:
    return ["identify", "--model", str(f.model), "--in", str(f.test), "--out", str(f.pred)]


def _adaptive_pipeline(train_args: list[str], f: "Files") -> list[Step]:
    """train, identify with adaptation k=20, evaluate."""
    identify = Step("identify", _identify_argv(f) + ADAPT + ["--trace", str(f.adopt)], True,
                    {"predictions": f.pred, "adoption_trace": f.adopt})
    evaluate = Step("evaluate", ["evaluate", "--pred", str(f.pred), "--gold", str(f.dev),
                                 "--report", str(f.report)], True, {"report": f.report})
    return [_train(f, train_args, True), identify, evaluate]


def _sweep_pipeline(f: "Files") -> list[Step]:
    """The grid sweep; job_s is the sweep alone. train and identify (no
    adaptation) are the commands a user runs next with the chosen profile,
    timed on their own."""
    sweep = Step("sweep", ["sweep", "--train", str(f.train), "--dev", str(f.dev),
                           "--method", "nb", "--ranges", SWEEP_RANGES, "--pms", SWEEP_PMS,
                           "--jobs", "1", "--out", str(f.sweep)], True, {"sweep": f.sweep})
    return [sweep, _train(f, NB_TRAIN, False),
            Step("identify", _identify_argv(f), False, {"predictions": f.pred})]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("system1-16lang", SIXTEEN_LANGUAGES, MIXED_DOC_WORDS, SYSTEM1_DOCS_PER_LENGTH,
                 partial(_adaptive_pipeline, NB_TRAIN), "nb", True, 2, True),
        Workload("heli-4lang", PERF_LANGUAGES, (6,), HELI_LINES,
                 partial(_adaptive_pipeline, HELI_TRAIN), "heli", True, 1, False),
        Workload("sweep-4lang", PERF_LANGUAGES, MIXED_DOC_WORDS, SWEEP_DOCS_PER_LENGTH,
                 _sweep_pipeline, "nb", False, 6, True),
    )
}


@dataclass(frozen=True)
class Files:
    train: Path
    dev: Path
    test: Path
    model: Path
    pred: Path
    adopt: Path
    report: Path
    sweep: Path

    @classmethod
    def under(cls, work: Path) -> "Files":
        names = ("train.tsv", "dev.tsv", "test.txt", "model.tsv", "pred.tsv",
                 "adopt.tsv", "report.tsv", "sweep.tsv")
        return cls(*(work / n for n in names))

    def write_inputs(self, train: Corpus, dev: Corpus) -> None:
        save_tsv(train, self.train)
        save_tsv(dev, self.dev)
        save_tsv(dev, self.test, labeled=False)


def _interleaved(w: Workload, seed: int) -> Corpus:
    """Documents of each of the workload's lengths, interleaved within each
    language so that every length lands on both sides of the ordered
    90/10 split."""
    parts = [
        generate(
            SynthSpec(
                languages=w.languages,
                lines_per_language=w.docs_per_length,
                words_per_line=words,
                mixing_rate=0.3,
                shared=SHARED,
                seed=seed * len(w.doc_words) + k,
            )
        )
        for k, words in enumerate(w.doc_words)
    ]
    docs: list[Document] = []
    for lang in w.languages:
        columns = [[d.text for d in part if d.label == lang.code] for part in parts]
        for row in zip(*columns):
            for text in row:
                docs.append(Document(id=len(docs), text=text, label=lang.code))
    return Corpus(docs=tuple(docs))
