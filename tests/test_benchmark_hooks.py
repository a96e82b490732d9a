"""The library functions the benchmark calls and traces by name.

``perfbench/run.py`` loads models through ``cli._load_any_models``, and
``perfbench/tracing.py`` wraps library functions by name; a per-layer
metric whose function is gone counts as a failed benchmark operation.
These checks catch a refactor that drops such a name, without a
benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from ngramlid import cli
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
