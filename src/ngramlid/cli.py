"""Command-line interface.

Wires the library into a train / identify / evaluate pipeline over TSV
files. All diagnostics go to stderr; data outputs never mix with them.
Exit codes: 0 success, 1 usage error, 2 data or model error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adaptation import FULL, AdaptConfig, adaptive_identify
from .corpus import CorpusError, load_tsv, ordered_split, save_tsv
from .evaluation import evaluate, sweep
from .heli import HeliConfig, heli_build, parse_heli_models, save_heli_models
from .ngram import (
    ModelIOError,
    NgramRange,
    _read_model_lines,
    build_models,
    is_heli_model_file,
    parse_models,
    save_models,
)
from .scorers import Prediction

USAGE_EXIT = 1
DATA_EXIT = 2

SYSTEM1_RANGE = NgramRange(2, 6)
SYSTEM1_PM = 2.15
SYSTEM1_K = 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_range_arg(value: str) -> NgramRange:
    try:
        return NgramRange.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_opt_range(value: str) -> NgramRange | None:
    if value == "-":
        return None
    return _parse_range_arg(value)


def _parse_yn(value: str) -> bool:
    if value in ("y", "yes", "1"):
        return True
    if value in ("n", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected y or n, got {value!r}")


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return n


def _parse_k(value: str) -> int | str:
    return FULL if value.lower() == FULL else _positive_int(value)


def parse_ranges_spec(spec: str) -> list[NgramRange]:
    """Parse a ranges grid: ``2-6,7-10`` or ``all:1-10`` for every pair."""
    if spec.startswith("all:"):
        outer = NgramRange.parse(spec[len("all:") :])
        return [
            NgramRange(lo, hi)
            for lo in range(outer.min_n, outer.max_n + 1)
            for hi in range(lo, outer.max_n + 1)
        ]
    return [NgramRange.parse(part) for part in spec.split(",") if part]


def parse_pms_spec(spec: str) -> list[float]:
    """Parse a penalty grid: ``2.15,2.2`` or ``2.10:2.20:0.01`` inclusive."""
    if ":" in spec:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
        if step <= 0:
            raise ValueError("pm step must be positive")
        values = []
        i = 0
        while True:
            value = round(start + i * step, 12)
            if value > stop + 1e-12:
                break
            values.append(value)
            i += 1
        return values
    return [float(part) for part in spec.split(",") if part]


def write_predictions(preds: list[Prediction], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in preds:
            fh.write(f"{p.doc_id}\t{p.best}\t{p.margin!r}\n")


def read_predictions(path: str | Path) -> list[Prediction]:
    preds = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise CorpusError(f"{path}: line {lineno}: expected 3 fields")
            preds.append(
                Prediction(
                    doc_id=int(fields[0]),
                    best=fields[1],
                    scores={},
                    margin=float(fields[2]),
                )
            )
    return preds


def _adapt_config(args) -> AdaptConfig:
    k = args.adapt_k if args.adapt_k is not None else 1
    if args.epochs is not None:
        epochs = args.epochs
    else:
        epochs = 1 if (args.adapt_k is not None or args.ct is not None) else 0
    return AdaptConfig(k=k, ct=args.ct, epochs=epochs)


def _cmd_split(args) -> int:
    corpus = load_tsv(args.infile, labeled=True)
    train, dev = ordered_split(corpus, args.fraction)
    save_tsv(train, args.train)
    save_tsv(dev, args.dev)
    print(f"split {len(corpus)} -> {len(train)} train / {len(dev)} dev", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    corpus = load_tsv(args.infile, labeled=True)
    if args.method == "heli":
        config = HeliConfig(lnr=args.lnr, onr=args.onr, lw=args.lw, ow=args.ow, pm=args.pm)
        models = heli_build(corpus, config)
        save_heli_models(models, args.model)
    else:
        rng = NgramRange(args.min_n, args.max_n)
        models = build_models(
            corpus,
            rng,
            args.pm,
            lowercase=not args.keep_case,
            pad=not args.no_pad,
            concatenate=args.concat,
        )
        save_models(models, args.model)
    print(f"trained on {len(corpus)} documents -> {args.model}", file=sys.stderr)
    return 0


def _load_any_models(path: str, method: str | None):
    """Read a model file once, then build the kind its header and row
    width name; ``method`` (None: the kind's default) must suit it."""
    lines = _read_model_lines(Path(path))
    heli = is_heli_model_file(lines[0], lines[2])
    if method is not None and (method == "heli") != heli:
        kind = "a heli" if heli else "not a heli"
        raise ModelIOError(f"{path} is {kind} model file; method {method!r} cannot use it")
    if heli:
        return parse_heli_models(Path(path), *lines), "heli"
    return parse_models(Path(path), *lines), method or "nb"


def _cmd_identify(args) -> int:
    models, method = _load_any_models(args.model, args.method)
    test = load_tsv(args.infile, labeled=False)
    config = _adapt_config(args)
    preds = adaptive_identify(test, models, method, config, trace_path=args.trace)
    write_predictions(preds, args.out)
    print(f"identified {len(preds)} documents -> {args.out}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    preds = read_predictions(args.pred)
    gold = load_tsv(args.gold, labeled=True)
    report = evaluate(preds, gold)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
    sys.stdout.write(report.pretty())
    return 0


def _cmd_sweep(args) -> int:
    train = load_tsv(args.train, labeled=True)
    dev = load_tsv(args.dev, labeled=True)
    ranges = parse_ranges_spec(args.ranges)
    pms = parse_pms_spec(args.pms)
    adapt = None
    if args.adapt_k is not None or args.ct is not None:
        adapt = _adapt_config(args)
    result = sweep(train, dev, args.method, ranges, pms, adapt=adapt, jobs=args.jobs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(result.to_tsv())
    best = result.rows[0]
    print(
        f"swept {len(result.rows)} cells; best {best.method} {best.range} "
        f"pm {best.pm} -> macro F1 {best.macro_f1:.4f}",
        file=sys.stderr,
    )
    return 0


def _cmd_synth(args) -> int:
    from .synth import generate, spec_from_dict

    with open(args.spec, encoding="utf-8") as fh:
        spec = spec_from_dict(json.load(fh))
    corpus = generate(spec)
    save_tsv(corpus, args.out)
    print(f"generated {len(corpus)} lines -> {args.out}", file=sys.stderr)
    return 0


def _cmd_system1(args) -> int:
    train = load_tsv(args.train, labeled=True)
    test = load_tsv(args.test, labeled=False)
    rng = NgramRange(args.min_n, args.max_n)
    models = build_models(train, rng, args.pm)
    config = AdaptConfig(k=args.adapt_k, ct=args.ct, epochs=args.epochs)
    preds = adaptive_identify(test, models, "nb", config, trace_path=args.trace)
    write_predictions(preds, args.out)
    print(
        f"system1: nb {rng} pm {args.pm}, adaptation k={args.adapt_k} "
        f"epochs={args.epochs}; {len(preds)} predictions -> {args.out}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ngramlid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="ordered per-label train/dev split")
    p.add_argument("--in", dest="infile", required=True, help="labeled TSV corpus")
    p.add_argument("--fraction", type=float, default=0.9, help="train fraction")
    p.add_argument("--train", required=True, help="output training TSV")
    p.add_argument("--dev", required=True, help="output dev TSV")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="build language models from a labeled corpus")
    p.add_argument("--in", dest="infile", required=True, help="labeled TSV corpus")
    p.add_argument(
        "--method",
        choices=("nb", "simple", "sumrf", "heli"),
        default="nb",
        help="target method (nb/simple/sumrf share the same model format)",
    )
    p.add_argument("--min-n", type=int, default=2, help="shortest gram length")
    p.add_argument("--max-n", type=int, default=6, help="longest gram length")
    p.add_argument("--pm", type=float, default=2.15, help="penalty modifier")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--keep-case", action="store_true", help="do not lowercase grams")
    p.add_argument("--no-pad", action="store_true", help="no space padding around words")
    p.add_argument(
        "--concat", action="store_true", help="join all words before gram extraction"
    )
    p.add_argument("--lnr", type=_parse_opt_range, default=NgramRange(2, 6),
                   help="heli: lowercased gram range, or - to disable")
    p.add_argument("--onr", type=_parse_opt_range, default=NgramRange(2, 6),
                   help="heli: original-casing gram range, or - to disable")
    p.add_argument("--lw", type=_parse_yn, default=True, help="heli: lowercased words y|n")
    p.add_argument("--ow", type=_parse_yn, default=True, help="heli: original words y|n")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("identify", help="classify an unlabeled corpus")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--in", dest="infile", required=True, help="unlabeled text file")
    p.add_argument("--out", required=True, help="output predictions TSV")
    p.add_argument("--method", choices=("nb", "simple", "sumrf", "heli"), default=None,
                   help="scoring method (default: nb, or heli for heli model files)")
    p.add_argument("--adapt-k", type=_parse_k, default=None,
                   help="adaptation splits (integer or 'full'); off when omitted")
    p.add_argument("--ct", type=float, default=None, help="confidence threshold")
    p.add_argument("--epochs", type=int, default=None, help="adaptation epochs")
    p.add_argument("--trace", default=None, help="adoption trace TSV output")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--pred", required=True, help="predictions TSV from identify")
    p.add_argument("--gold", required=True, help="labeled TSV corpus")
    p.add_argument("--report", default=None, help="also write a TSV report here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="grid search over gram ranges and penalties")
    p.add_argument("--train", required=True, help="labeled training TSV")
    p.add_argument("--dev", required=True, help="labeled dev TSV")
    p.add_argument("--method", choices=("nb", "simple", "sumrf", "heli"), default="nb")
    p.add_argument("--ranges", required=True,
                   help="grid, e.g. 2-6,7-10 or all:1-8 for every pair")
    p.add_argument("--pms", default="2.15",
                   help="penalty grid, e.g. 2.1,2.2 or 2.10:2.20:0.01")
    p.add_argument("--adapt-k", type=_parse_k, default=None, help="adapt during sweep")
    p.add_argument("--ct", type=float, default=None, help="confidence threshold")
    p.add_argument("--epochs", type=int, default=None, help="adaptation epochs")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    p.add_argument("--out", required=True, help="output TSV of all grid cells")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--spec", required=True, help="JSON generator spec")
    p.add_argument("--out", required=True, help="output labeled TSV")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "system1",
        help="frozen profile: nb 2-6 pm 2.15, one adaptation epoch with k=20",
    )
    p.add_argument("--train", required=True, help="labeled training TSV")
    p.add_argument("--test", required=True, help="unlabeled test file")
    p.add_argument("--out", required=True, help="output predictions TSV")
    p.add_argument("--min-n", type=int, default=SYSTEM1_RANGE.min_n)
    p.add_argument("--max-n", type=int, default=SYSTEM1_RANGE.max_n)
    p.add_argument("--pm", type=float, default=SYSTEM1_PM)
    p.add_argument("--adapt-k", type=_parse_k, default=SYSTEM1_K)
    p.add_argument("--ct", type=float, default=None)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--trace", default=None, help="adoption trace TSV output")
    p.set_defaults(func=_cmd_system1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "method", None) == "sumrf":
        args.method = "sum_rf"
    try:
        return args.func(args)
    except (CorpusError, ModelIOError, OSError, ValueError) as exc:
        print(f"ngramlid: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
