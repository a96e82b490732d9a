from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ngramlid import cli
from ngramlid.adaptation import AdaptConfig
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
    assert parse_pms_spec("2.10:2.20:0.01") == [
        2.10, 2.11, 2.12, 2.13, 2.14, 2.15, 2.16, 2.17, 2.18, 2.19, 2.20
    ]


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


NON_FINITE_PM_GRIDS = ("1:2:nan", "1:inf:0.5", "nan:2:0.1", "-inf:2:0.5", "1:2:inf")


@pytest.mark.parametrize("spec", NON_FINITE_PM_GRIDS)
def test_non_finite_pm_grid_is_rejected(spec):
    # a non-finite bound or step never passes the stop test: reject it
    # rather than grow the grid forever
    with pytest.raises(ValueError, match="finite"):
        parse_pms_spec(spec)


def test_sweep_non_finite_pm_grid_or_pm_exits_2(tmp_path, corpus_file, capsys):
    train, dev = _split(tmp_path, corpus_file)
    out = tmp_path / "sweep.tsv"
    base = ["sweep", "--train", str(train), "--dev", str(dev), "--method", "nb",
            "--ranges", "1-2", "--out", str(out)]
    for spec in NON_FINITE_PM_GRIDS + ("2.0,inf", "nan", "0,2"):
        capsys.readouterr()
        assert main(base + [f"--pms={spec}"]) == 2
        assert "ngramlid: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["1:2:1e-300", "0:1e12:1"])
def test_sweep_oversized_pm_grid_exits_2_at_once(tmp_path, corpus_file, capsys, spec):
    # the grid's size is known before any value is made: 10^300 and 10^12
    # values are refused, not generated
    with pytest.raises(ValueError, match=f"more than {cli.MAX_PM_GRID} values"):
        parse_pms_spec(spec)
    train, dev = _split(tmp_path, corpus_file)
    out = tmp_path / "sweep.tsv"
    started = time.monotonic()
    assert main(["sweep", "--train", str(train), "--dev", str(dev), "--method", "nb",
                 "--ranges", "1-2", "--pms", spec, "--out", str(out)]) == 2
    assert time.monotonic() - started < 1.0
    assert "pm grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["1:1.000000000001:1e-13", "2.15:2.15000000000001:1e-15"])
def test_sweep_pm_grid_with_repeated_values_exits_2(tmp_path, corpus_file, capsys, spec):
    # values are rounded to 12 decimals, so a finer step repeats them and
    # the grid would silently shrink
    with pytest.raises(ValueError, match="repeats values"):
        parse_pms_spec(spec)
    train, dev = _split(tmp_path, corpus_file)
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--train", str(train), "--dev", str(dev), "--method", "nb",
                 "--ranges", "1-2", "--pms", spec, "--out", str(out)]) == 2
    assert "repeats values" in capsys.readouterr().err
    assert not out.exists()


def test_adaptation_defaults_per_command():
    # each subcommand declares its own flags: system1's defaults must not
    # become identify's or sweep's, whatever order they are parsed in
    parser = cli.build_parser()
    argv = {
        "system1": ["system1", "--train", "t", "--test", "x", "--out", "o"],
        "identify": ["identify", "--model", "m", "--in", "x", "--out", "o"],
        "sweep": ["sweep", "--train", "t", "--dev", "d", "--ranges", "1-2", "--out", "o"],
    }
    configs = {name: cli._adapt_config(parser.parse_args(args)) for name, args in argv.items()}
    assert configs == {
        "system1": AdaptConfig(k=20, epochs=1),
        "identify": AdaptConfig(k=1, epochs=0),
        "sweep": AdaptConfig(k=1, epochs=0),
    }


def test_sweep_epochs_alone_adapts_as_identify_does(tmp_path, corpus_file, monkeypatch):
    # --epochs without --adapt-k means k=1, as for identify; it used to be
    # dropped, and the sweep ran without adaptation
    train, dev = _split(tmp_path, corpus_file)
    seen, real_sweep = [], cli.sweep

    def spy(*args):
        seen.append(args[5])  # the adaptation setting
        return real_sweep(*args)

    monkeypatch.setattr(cli, "sweep", spy)
    base = ["sweep", "--train", str(train), "--dev", str(dev), "--method", "nb",
            "--ranges", "1-2,2-3", "--pms", "1.5,2.0"]
    out_epochs, out_k = tmp_path / "epochs.tsv", tmp_path / "k.tsv"
    assert main(base + ["--epochs", "2", "--out", str(out_epochs)]) == 0
    assert main(base + ["--adapt-k", "1", "--epochs", "2", "--out", str(out_k)]) == 0
    assert seen == [AdaptConfig(k=1, epochs=2)] * 2
    assert out_epochs.read_bytes() == out_k.read_bytes()


@pytest.mark.parametrize("command", ["identify", "sweep", "system1"])
def test_negative_epochs_exit_2(tmp_path, corpus_file, capsys, command):
    train, dev = _split(tmp_path, corpus_file)
    test_file = _strip_labels(tmp_path, dev)
    model, out = tmp_path / "model.tsv", tmp_path / "out.tsv"
    assert main(["train", "--in", str(train), "--model", str(model)]) == 0
    argv = {
        "identify": ["identify", "--model", str(model), "--in", str(test_file)],
        "sweep": ["sweep", "--train", str(train), "--dev", str(dev), "--ranges", "1-2"],
        "system1": ["system1", "--train", str(train), "--test", str(test_file)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(out), "--epochs", "-1"]) == 2
    assert "epochs must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["identify", "sweep", "system1"])
def test_adapt_k_out_of_range_exits_2(tmp_path, corpus_file, capsys, command):
    # --adapt-k parses any integer; AdaptConfig rejects the range, as it
    # does for --epochs and --ct (argparse used to refuse these with exit 1)
    train, dev = _split(tmp_path, corpus_file)
    test_file = _strip_labels(tmp_path, dev)
    model, out = tmp_path / "model.tsv", tmp_path / "out.tsv"
    assert main(["train", "--in", str(train), "--model", str(model)]) == 0
    argv = {
        "identify": ["identify", "--model", str(model), "--in", str(test_file)],
        "sweep": ["sweep", "--train", str(train), "--dev", str(dev), "--ranges", "1-2"],
        "system1": ["system1", "--train", str(train), "--test", str(test_file)],
    }[command]
    for k in ("0", "-3"):
        capsys.readouterr()
        assert main(argv + ["--out", str(out), "--adapt-k", k]) == 2
        assert "k must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("k", ["abc", "2.5", ""])
def test_adapt_k_that_does_not_parse_exits_1(capsys, k):
    with pytest.raises(SystemExit) as excinfo:
        main(["identify", "--model", "m.tsv", "--in", "x.txt", "--out", "o.tsv",
              "--adapt-k", k])
    assert excinfo.value.code == 1
    assert "argument --adapt-k" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["simple", "sumrf"])
def test_sweep_unsmoothed_method_checks_the_pm_grid(tmp_path, corpus_file, capsys, method):
    # simple and sum_rf never smooth, but a malformed grid is still an error
    train, dev = _split(tmp_path, corpus_file)
    out = tmp_path / "sweep.tsv"
    base = ["sweep", "--train", str(train), "--dev", str(dev), "--method", method,
            "--ranges", "1-2,2-3", "--out", str(out)]
    for pms in ("nan,-3", "2.0,0", "inf"):
        capsys.readouterr()
        assert main(base + ["--pms", pms]) == 2
        assert "penalty modifier must be positive and finite" in capsys.readouterr().err
        assert not out.exists()
    assert main(base + ["--pms", "1.5,2.0,2.5"]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split("\t")[3] for row in rows] == ["1.0", "1.0"]  # one row per range


@pytest.mark.parametrize("method", ["nb", "simple", "sumrf", "heli"])
def test_sweep_empty_pm_grid_exits_2(tmp_path, corpus_file, capsys, method):
    # every method, though simple and sumrf report one pm 1.0 cell per range
    train, dev = _split(tmp_path, corpus_file)
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--train", str(train), "--dev", str(dev), "--method", method,
                 "--ranges", "1-2", "--pms", ",", "--out", str(out)]) == 2
    assert "sweep grid has no penalty modifiers" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--lnr", "--onr"])
def test_heli_range_out_of_bounds_exits_2_and_bad_syntax_exits_1(
    tmp_path, corpus_file, capsys, flag
):
    # an out-of-range gram range is a data error, as --min-n 0 is
    model = tmp_path / "heli.tsv"
    base = ["train", "--in", str(corpus_file), "--method", "heli", "--model", str(model)]
    for bad in ("2-99", "0-3", "4-2"):
        capsys.readouterr()
        assert main(base + [flag, bad]) == 2
        assert "need 1 <= min_n <= max_n" in capsys.readouterr().err
        assert not model.exists()
    assert main(["train", "--in", str(corpus_file), "--min-n", "0", "--model", str(model)]) == 2
    for bad in ("abc", "2-3-4", ""):
        with pytest.raises(SystemExit) as excinfo:
            main(base + [flag, bad])
        assert excinfo.value.code == 1
    assert main(base + [flag, "3"]) == 0


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
def test_train_language_with_nothing_counted_exits_2(tmp_path, capsys, method):
    # B's words are shorter than any 4-gram: its empty model would win
    # every document, and the model file would have no row for it
    corpus = tmp_path / "train.tsv"
    corpus.write_text("abcde fghij\tA\nx y z\tB\n", encoding="utf-8")
    model = tmp_path / "m.tsv"
    grams = (["--min-n", "4", "--max-n", "5"] if method == "nb"
             else ["--method", "heli", "--lnr", "4-5", "--onr", "4-5", "--lw", "n", "--ow", "n"])
    assert main(["train", "--in", str(corpus), "--model", str(model)] + grams) == 2
    assert "language 'B': nothing counted" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("method", ["nb", "heli"])
def test_unknown_model_header_exits_2(tmp_path, corpus_file, capsys, method):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    assert main(["train", "--in", str(train), "--method", method, "--model", str(model)]) == 0
    test_file = _strip_labels(tmp_path, dev)
    identify = ["identify", "--model", str(model), "--in", str(test_file),
                "--out", str(tmp_path / "p.tsv")]
    text = model.read_text(encoding="utf-8")
    # a misspelt flag of the file's own kind, or the other kind's flag
    for header in ("#lowercas 0", "#pad 1") if method == "heli" else ("#lowercas 0", "#padd 0"):
        model.write_text(text.replace("#version 1\n", f"#version 1\n{header}\n"), "utf-8")
        capsys.readouterr()
        assert main(identify) == 2
        assert f"unknown header {header.split()[0]}" in capsys.readouterr().err


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
    # headers the writer never writes: a zero-padded range bound, a flag of 7
    keys = ("#range ", "#lowercase ") if method == "nb" else ("#lnr ", "#lw ")
    for key, value in zip(keys, ("0{}", "7")):
        spoiled_lines = [
            key + value.format(line[len(key):]) if line.startswith(key) else line
            for line in lines
        ]
        model.write_text("\n".join(spoiled_lines), encoding="utf-8")
        assert main(identify) == 2
        assert "bad or missing header" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["nb", "heli"])
def test_malformed_model_row_lines_exit_2(tmp_path, corpus_file, capsys, method):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    assert main(["train", "--in", str(train), "--method", method, "--model", str(model)]) == 0
    test_file = _strip_labels(tmp_path, dev)
    identify = ["identify", "--model", str(model), "--in", str(test_file),
                "--out", str(tmp_path / "p.tsv")]
    head, _, last = model.read_text(encoding="utf-8")[:-1].rpartition("\n")
    spoiled = {
        "ragged": (head + "\n" + last.rpartition("\t")[0], "fields, got"),
        "blank": (head + "\n\n" + last, "fields, got 1"),
        # at a row's head, # makes the row a header line out of place
        "header-row": (head + "\n#" + last, "header line after the rows"),
        "header": (head + "\n" + last + "\n#pm 2.15", "header line after the rows"),
    }
    for what, (text, problem) in spoiled.items():
        model.write_text(text + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(identify) == 2, what
        assert problem in capsys.readouterr().err, what


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


@pytest.mark.parametrize("method", ["nb", "heli"])
def test_pm_header_in_any_other_spelling_exits_2(tmp_path, corpus_file, capsys, method):
    # float() reads all of these; only the writer's spelling may load, so
    # no file loads and saves back differently
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    assert main(["train", "--in", str(train), "--method", method, "--model", str(model)]) == 0
    test_file = _strip_labels(tmp_path, dev)
    identify = ["identify", "--model", str(model), "--in", str(test_file),
                "--out", str(tmp_path / "p.tsv")]
    text = model.read_text(encoding="utf-8")
    assert "\n#pm 2.15\n" in text
    for pm in ("2_15", "+2.15", "2.150", "2.15e0", " 2.15", "2.15 ", "0002.15", "215e-2"):
        model.write_text(text.replace("#pm 2.15\n", f"#pm {pm}\n"), encoding="utf-8")
        capsys.readouterr()
        assert main(identify) == 2, pm
        assert f"pm {pm!r} is not spelled as the writer spells it" in capsys.readouterr().err
    model.write_text(text, encoding="utf-8")
    assert main(identify) == 0


def test_number_flags_refuse_digit_separators(tmp_path, corpus_file, capsys):
    train, dev = _split(tmp_path, corpus_file)
    model = tmp_path / "model.tsv"
    test_file = _strip_labels(tmp_path, dev)
    identify = ["identify", "--model", str(model), "--in", str(test_file),
                "--out", str(tmp_path / "p.tsv")]
    usage = {
        "--pm": ["train", "--in", str(train), "--model", str(model), "--pm", "2_15"],
        "--ct": identify + ["--ct", "1_0"],
        "--fraction": ["split", "--in", str(corpus_file), "--fraction", "0_9",
                       "--train", str(tmp_path / "t.tsv"), "--dev", str(tmp_path / "d.tsv")],
        "system1 --pm": ["system1", "--train", str(train), "--test", str(test_file),
                         "--out", str(tmp_path / "s.tsv"), "--pm", "2_15"],
    }
    for what, argv in usage.items():
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, what
        assert f"argument {what.split()[-1]}: expected a number" in capsys.readouterr().err
    assert not model.exists()
    for spec in ("2_15,1.5", "1.5,abc", "1_0:2:0.5", "1:2:0_5"):
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--train", str(train), "--dev", str(dev),
                     "--ranges", "1-2", "--pms", spec, "--out", str(out)]) == 2, spec
        assert not out.exists()
    # the plain spellings float() takes still work
    assert parse_pms_spec("1e0,+2.5") == [1.0, 2.5]
    assert main(["train", "--in", str(train), "--model", str(model), "--pm", "2.150"]) == 0
    assert main(identify + ["--ct", "1e0"]) == 0
    assert "\n#pm 2.15\n" in model.read_text(encoding="utf-8")


@pytest.mark.parametrize("line, problem", [
    pytest.param("0_0\tmal\t0.25", "bad doc id '0_0'", id="id-underscore"),
    pytest.param("+1\tmal\t0.25", "bad doc id '+1'", id="id-sign"),
    pytest.param("01\tmal\t0.25", "bad doc id '01'", id="id-leading-zero"),
    pytest.param("1\t\t0.25", "empty label", id="empty-label"),
    pytest.param("1\tmal\t1_0", "bad margin '1_0'", id="margin-underscore"),
    pytest.param("1\tmal\tnan", "bad margin 'nan'", id="margin-nan"),
    pytest.param("1\tmal\t-0.25", "bad margin '-0.25'", id="margin-negative"),
    pytest.param("1\tmal\t-0.0", "bad margin '-0.0'", id="margin-negative-zero"),
    pytest.param("1\tmal\t0.250", "bad margin '0.250'", id="margin-trailing-zero"),
    pytest.param("1\tmal\t 0.25", "bad margin ' 0.25'", id="margin-space"),
])
def test_evaluate_reads_only_what_identify_writes(tmp_path, capsys, line, problem):
    gold = tmp_path / "gold.tsv"
    gold.write_text("ab cd\tkan\nef gh\tmal\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    evaluate = ["evaluate", "--pred", str(pred), "--gold", str(gold)]
    pred.write_text(f"0\tkan\t0.5\n{line}\n", encoding="utf-8")
    assert main(evaluate) == 2
    assert f"pred.tsv: line 2: {problem}" in capsys.readouterr().err
    # as written, and with CRLF line ends or no final line feed, it reads
    for text in ("0\tkan\t0.5\n1\tmal\t0.25\n", "0\tkan\t0.5\r\n1\tmal\t0.25\r\n",
                 "0\tkan\t0.5\n1\tmal\t0.25"):
        pred.write_bytes(text.encode("utf-8"))
        assert main(evaluate) == 0
        assert [(p.doc_id, p.best, p.margin) for p in cli.read_predictions(pred)] == [
            (0, "kan", 0.5), (1, "mal", 0.25)]
