"""The library functions the benchmark calls and traces by name, and one
traced benchmark run.

``perfbench/run.py`` loads models through ``cli._load_any_models``, and
``perfbench/tracing.py`` wraps library functions by name; a per-layer
metric whose function is gone counts as a failed benchmark operation.
The first checks catch a refactor that drops such a name without a
benchmark run. The traced-build check runs both builders and
``extract_ngrams`` under the tracer and reads its memory replay and
summary, whose hooks read the functions' results (``extract_ngrams``
must return a Counter). The traced-adaptation check runs both adaptation
backends and reads the re-scoring and fold counters, whose hooks read
the scorers' arguments by position. The smoke run checks the pinned seed-1 output digests
and the oracle sample of one workload end to end. It gates no time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ngramlid import adaptation, cli, heli, ngram
from ngramlid.adaptation import AdaptConfig
from ngramlid.corpus import normalize
from ngramlid.heli import HeliConfig, HeliModelSet, heli_build, save_heli_models
from ngramlid.ngram import ModelSet, NgramRange, build_models, save_models

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    with Tracer() as tracer:
        yield tracer


def test_every_per_layer_metric_has_its_functions(tracer):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in benchmark["per_layer"]]
    assert names
    assert {name: tracer.unmeasured(name) for name in names} == dict.fromkeys(names, [])


def test_model_dispatcher_returns_each_kind(tracer, tmp_path, make_corpus):
    corpus = make_corpus([("ab cd", "A"), ("ef gh", "B")])
    nb_path, heli_path = tmp_path / "nb.tsv", tmp_path / "heli.tsv"
    save_models(build_models(corpus, NgramRange(1, 3), 2.0), nb_path)
    config = HeliConfig(lnr=NgramRange(1, 3), onr=None, lw=True, ow=False, pm=2.0)
    save_heli_models(heli_build(corpus, config), heli_path)
    models, method = cli._load_any_models(str(nb_path), None)
    assert isinstance(models, ModelSet) and method == "nb"
    models, method = cli._load_any_models(str(heli_path), None)
    assert isinstance(models, HeliModelSet) and method == "heli"
    traced = {span[0] for span in tracer.spans}
    assert {"ngram.is_heli_model_file", "ngram.parse_models", "heli.parse_heli_models"} <= traced


def test_traced_builds_and_extraction_keep_the_hooks_working(tracer, make_corpus):
    # the tracer patched the module attributes, so call through them
    corpus = make_corpus([("ab cdé", "A"), ("Ef gh ef", "B"), ("", "B")])
    ngram.build_models(corpus, NgramRange(1, 3), 2.0)
    config = HeliConfig(lnr=NgramRange(1, 3), onr=NgramRange(2, 3), lw=True, ow=True, pm=2.0)
    heli.heli_build(corpus, config)
    grams = ngram.extract_ngrams(normalize("ab cdé ab"), NgramRange(1, 3))
    assert isinstance(grams, Counter)
    assert sum(grams.values()) == 9 + 12 + 9  # " ab ", " cdé ", " ab " at lengths 1-3
    peaks = tracer.replay_peaks()
    assert peaks["ngram.build_models.peak_mb"] > 0
    assert peaks["heli.heli_build.peak_mb"] > 0
    summary = tracer.summary()
    # builds count their grams without the public extraction function
    assert summary["ngram.extract_ngrams.grams"] == 30
    assert summary["ngram.refresh.counts_summed"] > 0
    assert summary["ngram.build_models.s"] > 0 and summary["heli.heli_build.s"] > 0


ADAPT_COUNTERS = (
    "adaptation.rescore_all.calls",
    "adaptation.rescore_one.calls",
    "adaptation.absorb.calls",
    "scorers.gram_lookups",
)


def test_traced_adaptation_keeps_the_counters_working(tracer, make_corpus, make_unlabeled):
    # the tracer patched the module attributes, so call through them
    train = make_corpus([("ab abc ba", "A"), ("cd cde dc", "B"), ("ef efg fe", "C")] * 2)
    test = make_unlabeled(["ab ba", "cd dc", "ef fe", "abc cd", "efg ab", "dc ef"])
    # k=3 folds two documents a round, so some languages stay unchanged and
    # their scores are redone one language at a time
    adaptation.adaptive_identify(
        test, ngram.build_models(train, NgramRange(1, 3), 2.0), "nb", AdaptConfig(k=3)
    )
    nb = tracer.summary()
    assert {name: nb.get(name, 0) > 0 for name in ADAPT_COUNTERS} == dict.fromkeys(
        ADAPT_COUNTERS, True
    )
    config = HeliConfig(lnr=NgramRange(1, 3), onr=None, lw=True, ow=True, pm=2.0)
    adaptation.adaptive_identify(test, heli.heli_build(train, config), "heli", AdaptConfig(k=2))
    both = tracer.summary()
    for name in ("adaptation.rescore_all.calls", "adaptation.absorb.calls"):
        assert both[name] > nb[name]


def test_traced_sweep_workload_run_is_correct():
    # the smallest workload; the seed-1 digests in perfbench/expected.json
    # pin its sweep TSV, model file and predictions
    run = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", "sweep-4lang",
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stdout
