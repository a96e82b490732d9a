"""Golden outputs: sha256 digests of every data file the CLI writes.

A small synthetic corpus goes through the whole pipeline (model files of
both kinds, ``identify`` for every method with and without adaptation,
``system1`` and small sweeps: nb, nb with adaptation, heli, and sum_rf
over overlapping ranges). A second, mixed-case non-ASCII corpus goes
through heli, where the original-cased domains (wordO, gramO) differ
from the lowercased ones; every other corpus is lowercase ASCII, on
which they coincide. Each output's digest is pinned, so a
refactor or optimisation that claims bit-identical behaviour proves it
here. A change that alters outputs on purpose must re-pin the digests and
say why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ngramlid.cli import main

SPEC = {
    "seed": 11,
    "lines_per_language": 40,
    "words_per_line": 5,
    "mixing_rate": 0.25,
    "shared": {"inventory": "etaoins", "word_lengths": [2, 3, 4]},
    "languages": [
        {"code": "kan", "inventory": "abcdefgh"},
        {"code": "mal", "inventory": "cdefghij"},
        {"code": "tam", "inventory": "efghijkl"},
    ],
}

# Greek final sigma, Turkish dotted/dotless I ("İ" lowercases to two
# characters) and German sharp s, with both casings in every inventory.
CASING_SPEC = {
    "seed": 5,
    "lines_per_language": 40,
    "words_per_line": 6,
    "mixing_rate": 0.3,
    "shared": {"inventory": "EtaOinSé", "word_lengths": [2, 3, 4]},
    "languages": [
        {"code": "deu", "inventory": "aÄäbBßüÜn"},
        {"code": "tur", "inventory": "ıIİiğĞşŞn"},
        {"code": "ell", "inventory": "ΣσΩωαΑΟοn"},
    ],
}

ADAPT = ["--adapt-k", "5", "--epochs", "1"]

GOLDEN = {
    "model-nb": "0d45ee1d352e297aafd72eab2a4094d0b3569418f9f6a50b23412f27181c99c8",
    "model-heli": "894890d4b7f86d19a89308907808f08c9c3407b36ae473bbcf10eff38cae8235",
    "identify-nb": "c126b903ace863917e433a5be9569298d5b127c64a58ff063d5603e8fa1b701b",
    "identify-nb-trace": "cab1b57b9b4366b9782d00dc2b650586470408bc8dae6c1d86eed7fc31d581d0",
    "identify-nb-adapt": "5df2898fe6d34e021fa84d8130fd59ef8684ffe5b920e375ea56eb3ad02ca720",
    "identify-nb-adapt-trace": "4296ce638962903566b9b9665e3e0d3d8f01e2d55a6aa9f202c1da0bb8bbfacc",
    "identify-simple": "a0c10e5d71fccb6d3fc523c99af62576adbb5dad8f7796f27732a19727b8e3eb",
    "identify-simple-trace": "ba8f06052c1ab21d81be01369d944c6629ced28b0851d4da9eb26eb7eb2428b5",
    "identify-simple-adapt": "fb4d65ac132ecc8a1361b38e56979e66427796169dd65ecf1ce8994721d6e19d",
    "identify-simple-adapt-trace": "73864e1181cb15eaf11a2e3d45c4986c37bc0ee73e92066f5fa2fcabdb9dde87",
    "identify-sumrf": "6c01fc2ef06b2cc6399ecbc386df5be0a74a5fa2b001dda899ee146030bc293f",
    "identify-sumrf-trace": "599f8f286948b2132c080f224119ada90ccbc917065dca6c0aa72ab90b635f75",
    "identify-sumrf-adapt": "5b761ad36d697ba25aec09573771a4e5de762982606eb75ae513a2eab1768429",
    "identify-sumrf-adapt-trace": "74db180a9ce2d67fd7b08ca18075594ca3934ee971d1c2d1a4aa01c5ba39356c",
    "identify-heli": "3901c3d6fd19bec1c4807525367d150ec33ba62004c6b7292091e9963f1ed33e",
    "identify-heli-trace": "5e16a1902ee4b45a6ce0b0916aae1e4e9d2c1c9492fddab442a61eac6b7fabf7",
    "identify-heli-adapt": "85ca060c938e6f45af1ec4ae37aef916d8bfb4d56df38e7504415d3d4bee0c77",
    "identify-heli-adapt-trace": "25455ad39af94a7f94979d7d80c8f8ae29c3d70558eb8627775d5d24551a7131",
    "system1": "c993d4e111d33999f12d44ade1a847eac65744d32922e4c26f134cc50beeeb04",
    "system1-trace": "7fc5a346a2bb3cfdc0dfddd8cb6928e655e3ab6d47ebfa6d965b4ee0c41a67cb",
    "sweep": "81a067ca4ee0bdb293d89b674d266223c024325c368defd1c6511f466cd8eb2d",
    "sweep-nb-adapt": "104bb7b9beb24a04ebdb661f12c2958502720d3b19960baf178176ce3b83c1c0",
    "sweep-heli": "b3d2600727e986667c03797f4f8f77cd776a4685f25a6296296f4dde067f0961",
    "sweep-sumrf": "fbb0f141e6b96ce3c17d4bde6654e6714f33266e1fe800c475eacd77929e9f4a",
}

CASING_GOLDEN = {
    "model-heli": "9316411521f1522e694a888796fa23ef8b195ec0123da638ac18dc4ac1c5bd78",
    "identify-heli": "236cf1dbf59de88b1a5e17cd4cd245851b92ab4ac77cc18e30bc7a1986c64f97",
    "identify-heli-trace": "5c343866ed6abaa89cd2d6a7901fec0521ee94a9b434cabd87a7696283e08d66",
    "identify-heli-adapt": "2dcff442d8abe2a500c26f5d873cb1fa31e9a6b8662297029d77b4c8ccfb53e9",
    "identify-heli-adapt-trace": "f48227c77a1f9da3543d39b8616244ef5b17c16d16cd8bf99541c10f0bfc37e4",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _corpus(d, spec):
    """Synthesize ``spec`` and split it; returns train, dev and the dev
    texts as an unlabeled test file."""
    spec_path = d / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    corpus, train, dev, test = (d / n for n in ("corpus.tsv", "train.tsv", "dev.tsv", "test.txt"))
    _run("synth", "--spec", spec_path, "--out", corpus)
    _run("split", "--in", corpus, "--fraction", "0.8", "--train", train, "--dev", dev)
    test.write_text(
        "".join(line.split("\t")[0] + "\n" for line in dev.read_text("utf-8").splitlines()),
        encoding="utf-8",
    )
    return train, dev, test


def _digests(files):
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    train, dev, test = _corpus(d, SPEC)
    files = {}
    files["model-nb"] = d / "nb.tsv"
    _run("train", "--in", train, "--min-n", "1", "--max-n", "4", "--pm", "2.0",
        "--model", files["model-nb"])
    files["model-heli"] = d / "heli.tsv"
    _run("train", "--in", train, "--method", "heli", "--lnr", "2-5", "--onr", "1-3",
        "--pm", "2.15", "--model", files["model-heli"])
    for method in ("nb", "simple", "sumrf", "heli"):
        model = files["model-heli" if method == "heli" else "model-nb"]
        for adapt in (False, True):
            name = f"identify-{method}{'-adapt' if adapt else ''}"
            files[name] = d / f"{name}.tsv"
            files[f"{name}-trace"] = d / f"{name}-trace.tsv"
            _run("identify", "--model", model, "--in", test, "--method", method,
                "--out", files[name], "--trace", files[f"{name}-trace"],
                *(ADAPT if adapt else []))
    files["system1"] = d / "system1.tsv"
    files["system1-trace"] = d / "system1-trace.tsv"
    _run("system1", "--train", train, "--test", test, "--out", files["system1"],
        "--trace", files["system1-trace"])
    sweeps = {
        "sweep": ("--method", "nb", "--ranges", "1-2,2-4", "--pms", "1.5,2.15"),
        "sweep-nb-adapt": ("--method", "nb", "--ranges", "1-3,2-4", "--pms", "1.5,2.15",
                           "--adapt-k", "2"),
        "sweep-heli": ("--method", "heli", "--ranges", "1-2,2-4", "--pms", "1.5,2.15"),
        "sweep-sumrf": ("--method", "sumrf", "--ranges", "1-3,2-4,3-5"),
    }
    for name, grid in sweeps.items():
        files[name] = d / f"{name}.tsv"
        _run("sweep", "--train", train, "--dev", dev, *grid, "--out", files[name])
    return _digests(files)


def test_golden_digests(outputs):
    assert outputs == GOLDEN


def test_casing_golden_digests(tmp_path):
    train, _, test = _corpus(tmp_path, CASING_SPEC)
    files = {"model-heli": tmp_path / "heli.tsv"}
    _run("train", "--in", train, "--method", "heli", "--lnr", "1-4", "--onr", "4-5",
         "--pm", "1.9", "--model", files["model-heli"])
    for adapt in (False, True):
        name = f"identify-heli{'-adapt' if adapt else ''}"
        files[name] = tmp_path / f"{name}.tsv"
        files[f"{name}-trace"] = tmp_path / f"{name}-trace.tsv"
        _run("identify", "--model", files["model-heli"], "--in", test,
             "--out", files[name], "--trace", files[f"{name}-trace"], *(ADAPT if adapt else []))
    assert _digests(files) == CASING_GOLDEN
