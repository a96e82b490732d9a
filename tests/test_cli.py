from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ngramlid import cli
from ngramlid.cli import _load_any_models, main, parse_pms_spec, parse_ranges_spec
from ngramlid.heli import save_heli_models
from ngramlid.ngram import NgramRange, save_models

SYNTH_SPEC = {
    "seed": 5,
    "lines_per_language": 30,
    "words_per_line": 6,
    "mixing_rate": 0.2,
    "shared": {"inventory": "etaoins", "word_lengths": [2, 3, 4]},
    "languages": [
        {"code": "kan", "inventory": "abcdefgh"},
        {"code": "mal", "inventory": "ijklmnop"},
        {"code": "tam", "inventory": "qrstuvwx"},
        {"code": "other", "inventory": "yzabmnop"},
    ],
}


@pytest.fixture
def corpus_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC), encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def _split(tmp_path, corpus_file):
    train = tmp_path / "train.tsv"
    dev = tmp_path / "dev.tsv"
    code = main(
        ["split", "--in", str(corpus_file), "--fraction", "0.9",
         "--train", str(train), "--dev", str(dev)]
    )
    assert code == 0
    return train, dev


def _strip_labels(tmp_path, labeled_path, name="unlabeled.txt"):
    out = tmp_path / name
    lines = labeled_path.read_text(encoding="utf-8").splitlines()
    out.write_text("".join(line.split("\t")[0] + "\n" for line in lines), "utf-8")
    return out


def test_parse_ranges_spec():
    assert parse_ranges_spec("2-6,7-10") == [NgramRange(2, 6), NgramRange(7, 10)]
    assert parse_ranges_spec("all:1-3") == [
        NgramRange(1, 1), NgramRange(1, 2), NgramRange(1, 3),
        NgramRange(2, 2), NgramRange(2, 3), NgramRange(3, 3),
    ]


def test_parse_pms_spec():
    assert parse_pms_spec("2.15,2.2") == [2.15, 2.2]
    assert parse_pms_spec("2.10:2.20:0.05") == [2.10, 2.15, 2.20]
    assert len(parse_pms_spec("2.14:2.16:0.01")) == 3


def test_full_pipeline(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    assert len(train.read_text().splitlines()) == 108  # floor(0.9*30)=27 per label
    assert len(dev.read_text().splitlines()) == 12

    model = tmp_path / "model.tsv"
    assert main(
        ["train", "--in", str(train), "--method", "nb",
         "--min-n", "2", "--max-n", "4", "--pm", "2.0", "--model", str(model)]
    ) == 0

    test_file = _strip_labels(tmp_path, dev)
    pred = tmp_path / "pred.tsv"
    assert main(
        ["identify", "--model", str(model), "--in", str(test_file),
         "--out", str(pred)]
    ) == 0
    lines = pred.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12
    for i, line in enumerate(lines):
        doc_id, label, margin = line.split("\t")
        assert int(doc_id) == i
        assert label in {"kan", "mal", "tam", "other"}
        float(margin)

    report = tmp_path / "report.tsv"
    assert main(
        ["evaluate", "--pred", str(pred), "--gold", str(dev),
         "--report", str(report)]
    ) == 0
    assert report.read_text().startswith("label\t")


def test_identify_adaptation_disabled_two_ways_is_identical(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    main(["train", "--in", str(train), "--model", str(model)])
    test_file = _strip_labels(tmp_path, dev)

    out_epochs0 = tmp_path / "pred_epochs0.tsv"
    out_ct = tmp_path / "pred_ct.tsv"
    assert main(
        ["identify", "--model", str(model), "--in", str(test_file),
         "--out", str(out_epochs0), "--adapt-k", "3", "--epochs", "0"]
    ) == 0
    assert main(
        ["identify", "--model", str(model), "--in", str(test_file),
         "--out", str(out_ct), "--adapt-k", "3", "--ct", "1e18"]
    ) == 0
    assert out_epochs0.read_bytes() == out_ct.read_bytes()


def test_identify_trace_output(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    main(["train", "--in", str(train), "--model", str(model)])
    test_file = _strip_labels(tmp_path, dev)
    pred = tmp_path / "pred.tsv"
    trace = tmp_path / "trace.tsv"
    assert main(
        ["identify", "--model", str(model), "--in", str(test_file),
         "--out", str(pred), "--adapt-k", "4", "--trace", str(trace)]
    ) == 0
    rows = [line.split("\t") for line in trace.read_text().splitlines()]
    assert len(rows) == 12
    assert all(len(r) == 5 and r[4] in {"0", "1"} for r in rows)


def test_heli_train_and_identify(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "heli_model.tsv"
    assert main(
        ["train", "--in", str(train), "--method", "heli",
         "--lnr", "2-4", "--onr", "-", "--lw", "y", "--ow", "n",
         "--pm", "1.1", "--model", str(model)]
    ) == 0
    test_file = _strip_labels(tmp_path, dev)
    pred = tmp_path / "pred.tsv"
    assert main(
        ["identify", "--model", str(model), "--in", str(test_file),
         "--out", str(pred)]
    ) == 0
    assert len(pred.read_text().splitlines()) == 12


def test_sumrf_and_simple_methods(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    main(["train", "--in", str(train), "--model", str(model)])
    test_file = _strip_labels(tmp_path, dev)
    for method in ("simple", "sumrf"):
        pred = tmp_path / f"pred_{method}.tsv"
        assert main(
            ["identify", "--model", str(model), "--in", str(test_file),
             "--out", str(pred), "--method", method]
        ) == 0
        assert len(pred.read_text().splitlines()) == 12


def test_sweep_command(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    out = tmp_path / "sweep.tsv"
    assert main(
        ["sweep", "--train", str(train), "--dev", str(dev), "--method", "nb",
         "--ranges", "1-2,2-3", "--pms", "1.5,2.0", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method\trange_min\trange_max\tpm\tmacro_f1\tmicro_f1"
    assert len(lines) == 5


def test_system1_smoke(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    test_file = _strip_labels(tmp_path, dev)
    out = tmp_path / "submission.tsv"
    assert main(
        ["system1", "--train", str(train), "--test", str(test_file),
         "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    # output feeds straight back into evaluate
    assert main(["evaluate", "--pred", str(out), "--gold", str(dev)]) == 0


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["identify", "--model"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-command"])
    assert excinfo.value.code == 1
    for jobs in ("0", "-3"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--train", "t.tsv", "--dev", "d.tsv", "--method", "nb",
                  "--jobs", jobs, "--out", "s.tsv"])
        assert excinfo.value.code == 1
        assert "argument --jobs" in capsys.readouterr().err


def test_data_error_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.tsv"
    assert main(
        ["train", "--in", str(missing), "--model", str(tmp_path / "m.tsv")]
    ) == 2
    err = capsys.readouterr().err
    assert "error" in err

    bad = tmp_path / "bad.tsv"
    bad.write_text("no label line\n", encoding="utf-8")
    assert main(["train", "--in", str(bad), "--model", str(tmp_path / "m.tsv")]) == 2


def test_model_method_mismatch_exits_2(tmp_path, corpus_file):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    main(["train", "--in", str(train), "--model", str(model)])
    test_file = _strip_labels(tmp_path, dev)
    assert main(
        ["identify", "--model", str(model), "--in", str(test_file),
         "--out", str(tmp_path / "p.tsv"), "--method", "heli"]
    ) == 2
    heli_model = tmp_path / "heli.tsv"
    main(["train", "--in", str(train), "--method", "heli", "--model", str(heli_model)])
    for method in ("nb", "simple", "sumrf"):
        assert main(
            ["identify", "--model", str(heli_model), "--in", str(test_file),
             "--out", str(tmp_path / "p.tsv"), "--method", method]
        ) == 2


def test_console_entry_point(tmp_path):
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ngramlid.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "split" in result.stdout and "system1" in result.stdout


def test_diagnostics_go_to_stderr_not_stdout(tmp_path, corpus_file, capsys):
    train, dev = _split(tmp_path, corpus_file)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "train" in captured.err


@pytest.mark.parametrize("method", ["nb", "heli"])
@pytest.mark.parametrize("lines", ["ab cd\t#x\nef gh\ten\n", "ab cd\t\nef gh\ten\n"])
def test_label_a_model_file_cannot_store_exits_2(tmp_path, capsys, method, lines):
    corpus = tmp_path / "train.tsv"
    corpus.write_text(lines, encoding="utf-8")
    model = tmp_path / "m.tsv"
    assert main(["train", "--in", str(corpus), "--method", method, "--model", str(model)]) == 2
    assert "label" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("method", ["nb", "heli"])
def test_non_canonical_model_integers_or_repeated_header_exit_2(
    tmp_path, corpus_file, capsys, method
):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    assert main(["train", "--in", str(train), "--method", method, "--model", str(model)]) == 0
    test_file = _strip_labels(tmp_path, dev)
    identify = ["identify", "--model", str(model), "--in", str(test_file),
                "--out", str(tmp_path / "p.tsv")]
    lines = model.read_text(encoding="utf-8").split("\n")
    last_row = lines[-2].split("\t")
    spoiled = {
        "count": last_row[:-1] + ["0" + last_row[-1]],
        "length": last_row[:-3] + ["\u0660" if method == "heli" else "+" + last_row[-3]]
        + last_row[-2:],
    }
    for what, row in spoiled.items():
        model.write_text("\n".join(lines[:-2] + ["\t".join(row), ""]), encoding="utf-8")
        capsys.readouterr()
        assert main(identify) == 2
        assert f"bad {what} in row" in capsys.readouterr().err
    model.write_text("\n".join(["#pm 2.15"] + lines), encoding="utf-8")
    assert main(identify) == 2
    assert "repeated header #pm" in capsys.readouterr().err


def test_non_finite_penalty_modifier_or_threshold_exits_2(tmp_path, corpus_file, capsys):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    assert main(["train", "--in", str(train), "--pm", "inf", "--model", str(model)]) == 2
    assert main(["train", "--in", str(train), "--method", "heli", "--pm", "nan",
                 "--model", str(model)]) == 2
    assert not model.exists()
    assert main(["train", "--in", str(train), "--model", str(model)]) == 0
    test_file = _strip_labels(tmp_path, dev)
    identify = ["identify", "--model", str(model), "--in", str(test_file),
                "--out", str(tmp_path / "p.tsv")]
    assert main(identify + ["--ct", "nan"]) == 2
    text = model.read_text(encoding="utf-8")
    for pm in ("-1", "nan", "inf"):
        model.write_text(text.replace("#pm 2.15\n", f"#pm {pm}\n"), encoding="utf-8")
        capsys.readouterr()
        assert main(identify) == 2
        assert "penalty modifier must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["nb", "heli", "heli-partial"])
def test_dispatcher_round_trip_is_byte_identical(tmp_path, corpus_file, method):
    train, _ = _split(tmp_path, corpus_file)
    model, again = tmp_path / "model.tsv", tmp_path / "again.tsv"
    args = {
        "nb": ["--min-n", "1", "--max-n", "3", "--keep-case"],
        "heli": ["--method", "heli"],
        "heli-partial": ["--method", "heli", "--onr", "-", "--lnr", "3-4", "--ow", "n"],
    }[method]
    assert main(["train", "--in", str(train), "--model", str(model)] + args) == 0
    models, kind = _load_any_models(str(model), None)
    assert kind == ("nb" if method == "nb" else "heli")
    (save_models if kind == "nb" else save_heli_models)(models, again)
    assert again.read_bytes() == model.read_bytes()


@pytest.mark.parametrize("method", ["nb", "heli"])
def test_dispatcher_reads_the_model_file_once(tmp_path, corpus_file, monkeypatch, method):
    train, _ = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    assert main(["train", "--in", str(train), "--method", method, "--model", str(model)]) == 0
    reads = []
    read_text = cli.Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(cli.Path, "read_text", counting_read_text)
    _load_any_models(str(model), None)
    assert reads == [model]
