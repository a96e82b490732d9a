from __future__ import annotations

import math
import random
import string
from collections import Counter

import pytest
from oracle_utils import random_tiny_corpus

from ngramlid import (
    AdaptConfig,
    FULL,
    HeliConfig,
    NgramRange,
    adaptation,
    adaptive_identify,
    add_document,
    build_models,
    classify,
    evaluation,
    heli_build,
)
from ngramlid.corpus import Corpus, Document, ordered_split
from ngramlid.synth import LanguageSpec, SynthSpec, generate


@pytest.fixture
def setup(make_corpus, make_unlabeled):
    train = make_corpus(
        [
            ("kanda villa kanda", "aa"),
            ("villa kollu", "aa"),
            ("perro gato", "bb"),
            ("gato zorro gato", "bb"),
        ]
    )
    test = make_unlabeled(
        ["kanda kollu", "gato perro", "villa", "zorro zorro", "kanda gato", "xq"]
    )
    return train, test


def _models(train, pm=2.0, rng=NgramRange(2, 3)):
    return build_models(train, rng, pm)


def _batch(test, models, method="nb"):
    return [classify(doc, models, method) for doc in test]


def test_epochs_zero_is_plain_batch(setup):
    train, test = setup
    models = _models(train)
    preds = adaptive_identify(test, models, "nb", AdaptConfig(k=5, epochs=0))
    assert preds == _batch(test, models)


def test_huge_ct_blocks_all_updates(setup):
    train, test = setup
    base = _models(train)
    snapshot = {lang: dict(m.counts[2]) for lang, m in base.models.items()}
    preds = adaptive_identify(
        test, base, "nb", AdaptConfig(k=3, ct=1e18, epochs=1)
    )
    assert preds == _batch(test, _models(train))
    assert {lang: m.counts[2] for lang, m in base.models.items()} == snapshot


def test_k_above_test_size_degenerates_to_batch(setup):
    train, test = setup
    expected = _batch(test, _models(train))
    preds = adaptive_identify(test, _models(train), "nb", AdaptConfig(k=100, epochs=1))
    assert preds == expected


def test_k1_first_round_equals_batch_but_adopts(setup, tmp_path):
    train, test = setup
    expected = _batch(test, _models(train))
    models = _models(train)
    trace = tmp_path / "trace.tsv"
    preds = adaptive_identify(
        test, models, "nb", AdaptConfig(k=1, epochs=1), trace_path=trace
    )
    assert preds == expected
    rows = [line.split("\t") for line in trace.read_text().splitlines()]
    assert {row[0] for row in rows} == {"1"}  # exactly one bulk iteration
    assert all(row[4] == "1" for row in rows)  # everything adopted
    # the adopted counts really landed in the models
    assert models != _models(train)


def test_full_split_resolves_one_doc_per_iteration(setup, tmp_path):
    train, test = setup
    trace = tmp_path / "trace.tsv"
    preds = adaptive_identify(
        test, _models(train), "nb", AdaptConfig(k=FULL, epochs=1), trace_path=trace
    )
    rows = [line.split("\t") for line in trace.read_text().splitlines()]
    assert len(rows) == len(test)
    assert [row[0] for row in rows] == [str(i) for i in range(1, len(test) + 1)]


def test_output_cardinality_and_order(setup):
    train, test = setup
    for config in (
        AdaptConfig(epochs=0),
        AdaptConfig(k=2, epochs=1),
        AdaptConfig(k=FULL, epochs=1),
        AdaptConfig(k=2, ct=0.5, epochs=2),
    ):
        preds = adaptive_identify(test, _models(train), "nb", config)
        assert [p.doc_id for p in preds] == [d.id for d in test]


def test_termination_iteration_bound(setup, tmp_path):
    train, test = setup
    for k, epochs in ((2, 1), (3, 2), (1, 3)):
        trace = tmp_path / f"trace_{k}_{epochs}.tsv"
        adaptive_identify(
            test, _models(train), "nb", AdaptConfig(k=k, epochs=epochs), trace_path=trace
        )
        iterations = {
            int(line.split("\t")[0]) for line in trace.read_text().splitlines()
        }
        assert max(iterations) <= k * epochs + k


def test_split_sizes_recomputed(setup, tmp_path):
    # 6 docs over k=4: ceil(6/4)=2, ceil(4/3)=2, ceil(2/2)=1, 1
    train, test = setup
    trace = tmp_path / "trace.tsv"
    adaptive_identify(
        test, _models(train), "nb", AdaptConfig(k=4, epochs=1), trace_path=trace
    )
    sizes = Counter(line.split("\t")[0] for line in trace.read_text().splitlines())
    assert [sizes[str(i)] for i in (1, 2, 3, 4)] == [2, 2, 1, 1]


def test_margin_ties_resolve_by_ascending_doc_id(make_corpus, make_unlabeled, tmp_path):
    train = make_corpus([("aa aa", "A"), ("bb bb", "B")])
    test = make_unlabeled(["aa", "aa", "aa"])  # identical docs, identical margins
    trace = tmp_path / "trace.tsv"
    adaptive_identify(
        test, _models(train, rng=NgramRange(1, 2)), "nb",
        AdaptConfig(k=FULL, epochs=1), trace_path=trace,
    )
    rows = [line.split("\t") for line in trace.read_text().splitlines()]
    assert [int(r[1]) for r in rows] == [0, 1, 2]


def test_trace_conservation_of_adopted_counts(setup, tmp_path):
    train, test = setup
    models = _models(train)
    before = {
        lang: {n: dict(d) for n, d in m.counts.items()}
        for lang, m in models.models.items()
    }
    trace = tmp_path / "trace.tsv"
    adaptive_identify(
        test, models, "nb", AdaptConfig(k=3, ct=0.2, epochs=1), trace_path=trace
    )
    adopted: dict[str, Counter] = {lang: Counter() for lang in models.models}
    by_id = {d.id: d for d in test}
    for line in trace.read_text().splitlines():
        _, doc_id, predicted, _, flag = line.split("\t")
        if flag == "1":
            adopted[predicted].update(models.doc_grams(by_id[int(doc_id)]))
    for lang, model in models.models.items():
        grown: Counter = Counter()
        for n, table in model.counts.items():
            for gram, count in table.items():
                delta = count - before[lang].get(n, {}).get(gram, 0)
                if delta:
                    grown[gram] = delta
        assert grown == adopted[lang]


def test_adaptation_changes_models_and_can_change_predictions(setup):
    train, test = setup
    base_models = _models(train)
    adapted = _models(train)
    adaptive_identify(test, adapted, "nb", AdaptConfig(k=2, epochs=1))
    assert adapted.models != base_models.models


def test_incremental_equals_full_rescoring(monkeypatch):
    # the reference reports every language changed after each fold, so
    # each of its re-scorings is one score_all call
    real_absorb = adaptation._ScorerBackend.absorb

    def absorb_all(self, doc, lang):
        return self.languages if real_absorb(self, doc, lang) else []

    rnd = random.Random(42)
    for _ in range(15):
        pairs, probes, lo, hi, pm = random_tiny_corpus(rnd)
        train = Corpus(
            docs=tuple(
                Document(i, text, label) for i, (text, label) in enumerate(pairs)
            )
        )
        test = Corpus(docs=tuple(Document(i, t) for i, t in enumerate(probes)))
        config = AdaptConfig(
            k=rnd.choice([1, 2, 3, FULL]),
            ct=rnd.choice([None, 0.5]),
            epochs=rnd.choice([1, 2]),
        )
        for method in ("simple", "sum_rf", "nb"):
            base = build_models(train, NgramRange(lo, hi), pm)
            fast = adaptive_identify(
                test, base.with_pm(pm, copy_counts=True), method, config
            )
            with monkeypatch.context() as patch:
                patch.setattr(adaptation._ScorerBackend, "absorb", absorb_all)
                full = adaptive_identify(
                    test, base.with_pm(pm, copy_counts=True), method, config
                )
            assert fast == full


def test_heli_adaptation_runs_and_matches_full_rescoring(make_corpus, make_unlabeled):
    # heli's absorb reports every language, so it always re-scores in full
    train = make_corpus(
        [("kanda villa", "aa"), ("kollu kanda", "aa"), ("gato perro", "bb")]
    )
    test = make_unlabeled(["kanda", "gato gato", "villa kollu", "zzz"])
    config = HeliConfig(
        lnr=NgramRange(2, 4), onr=NgramRange(2, 4), lw=True, ow=True, pm=1.2
    )
    preds = adaptive_identify(test, heli_build(train, config), "heli", AdaptConfig(k=2, epochs=1))
    assert [p.doc_id for p in preds] == [0, 1, 2, 3]


def test_heli_wordless_document_forces_no_rescoring(make_corpus, make_unlabeled, monkeypatch):
    # both languages are trained on the same text, so every margin is 0 and
    # ties rank by ascending id: the wordless document 0 leads round one
    train = make_corpus([("ab cd", "aa"), ("ab cd", "bb")])
    test = make_unlabeled(["!!! 42", "ab", "cd ab"])
    config = HeliConfig(lnr=NgramRange(1, 3), onr=None, lw=True, ow=False, pm=1.5)
    calls = Counter()
    real_score = adaptation.heli_score_doc

    def counting_score(doc, models, **kwargs):
        calls[doc.id] += 1
        return real_score(doc, models, **kwargs)

    monkeypatch.setattr(adaptation, "heli_score_doc", counting_score)
    preds = adaptive_identify(test, heli_build(train, config), "heli", AdaptConfig(k=FULL))
    # round 1 scores all three; absorbing the wordless document folds
    # nothing, so round 2 reuses both scores; absorbing document 1 then
    # changes "aa", so round 3 re-scores document 2 once
    assert calls == {0: 1, 1: 1, 2: 2}
    assert [(p.doc_id, p.margin) for p in preds] == [(0, 0.0), (1, 0.0), (2, preds[2].margin)]
    assert preds[2].margin > 0


def test_repeated_runs_identical(setup, tmp_path):
    train, test = setup
    traces = []
    runs = []
    for i in range(2):
        trace = tmp_path / f"trace{i}.tsv"
        runs.append(
            adaptive_identify(
                test, _models(train), "nb", AdaptConfig(k=3, epochs=1),
                trace_path=trace,
            )
        )
        traces.append(trace.read_bytes())
    assert runs[0] == runs[1]
    assert traces[0] == traces[1]


def test_empty_test_returns_empty(setup):
    train, _ = setup
    empty = Corpus(docs=())
    assert adaptive_identify(empty, _models(train), "nb", AdaptConfig(k=2)) == []


def test_ct_boundary_is_strict(make_corpus, make_unlabeled, tmp_path):
    # adoption requires margin strictly above ct
    train = make_corpus([("aa aa", "A"), ("bb bb", "B")])
    models = _models(train, rng=NgramRange(1, 2))
    test = make_unlabeled(["aa"])
    margin = classify(test.docs[0], models, "nb").margin
    trace = tmp_path / "trace.tsv"
    adaptive_identify(
        test, models, "nb", AdaptConfig(k=1, ct=margin, epochs=1), trace_path=trace
    )
    assert trace.read_text().splitlines()[0].split("\t")[4] == "0"


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(k=0)
    with pytest.raises(ValueError):
        AdaptConfig(k="half")
    with pytest.raises(ValueError):
        AdaptConfig(ct=-1.0)
    with pytest.raises(ValueError):
        AdaptConfig(ct=math.nan)
    with pytest.raises(ValueError):
        AdaptConfig(epochs=-1)
    assert AdaptConfig(k=FULL).k == FULL


def test_method_model_mismatch_rejected(setup):
    train, test = setup
    models = _models(train)
    with pytest.raises(ValueError):
        adaptive_identify(test, models, "heli", AdaptConfig())
    heli_models = heli_build(
        train, HeliConfig(lnr=NgramRange(2, 3), onr=None, lw=True, ow=False, pm=1.0)
    )
    with pytest.raises(ValueError):
        adaptive_identify(test, heli_models, "nb", AdaptConfig())
    with pytest.raises(ValueError, match="unknown method"):
        adaptive_identify(test, models, "svm", AdaptConfig())


# -- bound-guided selection ----------------------------------------------------


def _unbounded(monkeypatch):
    """Make every stale document's margin bound infinite, so that every
    round re-scores every stale unresolved document (the partial rule
    alone, with no bound)."""
    monkeypatch.setattr(adaptation._ScorerBackend, "margin_bound", lambda *args: math.inf)


def _fingerprint(preds, trace) -> list:
    """Labels, margins and every score by ``float.hex``, and the trace bytes."""
    rows = [
        (p.doc_id, p.best, p.margin.hex(), sorted((lang, s.hex()) for lang, s in p.scores.items()))
        for p in preds
    ]
    return rows + [trace.read_bytes()]


def _random_adaptation_task(rnd):
    """A random nb task over overlapping alphabets. Sometimes one language
    is trained on one-letter words only, so it has no mass at the longer
    lengths of the range until adaptation folds some in."""
    n_langs = rnd.randint(2, 5)
    langs = [f"l{i}" for i in range(n_langs)]
    alphabets = {lang: rnd.sample("abcdefghij", rnd.randint(4, 7)) for lang in langs}
    short = rnd.choice(langs) if rnd.random() < 0.5 else None

    def line(lang, longest=5):
        return " ".join(
            "".join(rnd.choice(alphabets[lang]) for _ in range(rnd.randint(1, longest)))
            for _ in range(rnd.randint(1, 5))
        )

    pairs = [
        (line(lang, 1 if lang == short else 5), lang)
        for lang in langs
        for _ in range(rnd.randint(1, 4))
    ]
    train = Corpus(docs=tuple(Document(i, t, lab) for i, (t, lab) in enumerate(pairs)))
    texts = [line(rnd.choice(langs)) for _ in range(rnd.randint(8, 30))]
    test = Corpus(docs=tuple(Document(i, t) for i, t in enumerate(texts)))
    lo = rnd.randint(1, 3)
    return train, test, NgramRange(lo, rnd.randint(max(lo, 3), 5))


def test_bounded_selection_equals_unbounded_rescoring(monkeypatch, tmp_path):
    rnd = random.Random(2021)
    trace = tmp_path / "trace.tsv"
    for k in (1, 3, 20, FULL):
        for ct in (None, 0.0, 0.4):
            for epochs in (0, 1, 2):
                for pm in (1.0, 2.15, 0.6):
                    train, test, rng = _random_adaptation_task(rnd)
                    base = build_models(train, rng, pm)
                    config = AdaptConfig(k=k, ct=ct, epochs=epochs)
                    runs = []
                    for bounded in (True, False):
                        with monkeypatch.context() as patch:
                            if not bounded:
                                _unbounded(patch)
                            preds = adaptive_identify(
                                test, base.with_pm(pm, copy_counts=True), "nb", config,
                                trace_path=trace,
                            )
                        runs.append(_fingerprint(preds, trace))
                    assert runs[0] == runs[1], (k, ct, epochs, pm)


def test_bounded_selection_equals_unbounded_rescoring_in_a_sweep(monkeypatch):
    # the sweep hands adaptive_identify each dev document's grams, sliced
    # per range from one extraction
    rnd = random.Random(7)
    train, dev, _ = _random_adaptation_task(rnd)
    dev = Corpus(docs=tuple(Document(d.id, d.text, "l0") for d in dev))
    real = evaluation.adaptive_identify
    for config in (AdaptConfig(k=3), AdaptConfig(k=FULL, ct=0.2, epochs=2)):
        runs = []
        for bounded in (True, False):
            seen = []

            def recording(test, models, method, adapt, **kwargs):
                preds = real(test, models, method, adapt, **kwargs)
                seen.append([(p.best, p.margin.hex(), sorted(p.scores.items())) for p in preds])
                return preds

            with monkeypatch.context() as patch:
                patch.setattr(evaluation, "adaptive_identify", recording)
                if not bounded:
                    _unbounded(patch)
                evaluation.sweep(
                    train, dev, "nb", [NgramRange(1, 3), NgramRange(2, 4)], [0.7, 2.15], config
                )
            runs.append(seen)
        assert len(runs[0]) == 4 and runs[0] == runs[1]


def _sixteen_language_task():
    languages = tuple(
        LanguageSpec(code=f"l{i:02d}", inventory=string.ascii_lowercase[i : i + 10])
        for i in range(16)
    )
    spec = SynthSpec(
        languages=languages, lines_per_language=20, words_per_line=6, mixing_rate=0.3,
        shared=LanguageSpec(code="en", inventory="etaoins", word_lengths=(2, 3, 4)), seed=5,
    )
    train, dev = ordered_split(generate(spec), 0.9)
    return build_models(train, NgramRange(2, 6), 2.15), Corpus(
        docs=tuple(Document(d.id, d.text) for d in dev)
    )


def test_bounds_skip_rescoring_on_sixteen_languages(monkeypatch):
    # A bound that silently became infinite would keep every output and
    # lose the gain; count (document, language) scorings to catch that.
    base, test = _sixteen_language_task()
    config = AdaptConfig(k=20)
    results = []
    for bounded in (True, False):
        calls = Counter()
        real_all, real_one = adaptation.score_with, adaptation.score_language

        def counting_all(*args, **kwargs):
            calls["pairs"] += len(base.models)
            return real_all(*args, **kwargs)

        def counting_one(*args, **kwargs):
            calls["pairs"] += 1
            return real_one(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(adaptation, "score_with", counting_all)
            patch.setattr(adaptation, "score_language", counting_one)
            if not bounded:
                _unbounded(patch)
            preds = adaptive_identify(test, base.with_pm(2.15, copy_counts=True), "nb", config)
        results.append((preds, calls["pairs"]))
    (lazy, lazy_pairs), (full, full_pairs) = results
    assert lazy == full
    assert len(test) * 16 <= lazy_pairs < full_pairs


def test_equal_margins_at_the_split_boundary_rank_by_id(monkeypatch, tmp_path):
    # A and B mirror each other under a <-> b, and C is symmetric under it,
    # so documents 1 and 2 (mirror images) have equal margins once
    # document 0 is folded into C; one split of one document separates them.
    train = Corpus(docs=tuple(Document(i, t, lab) for i, (t, lab) in enumerate(
        [("ab abb aab", "A"), ("ba baa bba", "B"), ("ab ba cc ccc ab ba", "C")]
    )))
    test = Corpus(docs=tuple(Document(i, t) for i, t in enumerate(
        ["ccc cc", "ba bba", "ab aab", "cab"]
    )))
    folded = add_document(_models(train, rng=NgramRange(1, 3)), test.docs[0], "C")
    tied = [classify(doc, folded, "nb").margin.hex() for doc in test.docs[1:3]]
    assert tied[0] == tied[1]
    traces = []
    for bounded in (True, False):
        trace = tmp_path / f"trace{bounded}.tsv"
        with monkeypatch.context() as patch:
            if not bounded:
                _unbounded(patch)
            adaptive_identify(
                test, _models(train, rng=NgramRange(1, 3)), "nb", AdaptConfig(k=FULL),
                trace_path=trace,
            )
        traces.append(trace.read_text())
    assert traces[0] == traces[1]
    rows = [line.split("\t") for line in traces[0].splitlines()]
    assert [(r[0], r[1]) for r in rows[:3]] == [("1", "0"), ("2", "1"), ("3", "2")]
    assert float(rows[1][3]).hex() == tied[0]
