"""Command-line interface.

Wires the library into a train / identify / evaluate pipeline over TSV
files. All diagnostics go to stderr; data outputs never mix with them.
Exit codes: 0 success, 1 usage error, 2 data or model error.

A flag value that does not parse as its type (a non-integer
``--adapt-k`` or ``--epochs``, a non-number ``--ct`` or ``--pm``) is a
usage error, exit 1. A value that parses but is out of range for the
model or the adaptation (``--adapt-k 0``, ``--epochs -1``, ``--ct -1``,
``--pm 0``) is a data error, exit 2, as the same value in a model file
or a library call is; so is an out-of-range gram range (``--min-n 0``,
``--lnr 2-99``). The exceptions: ``--jobs`` below 1 is a usage error,
since it sets how a sweep runs rather than what it computes; and the
sweep grids ``--ranges`` and ``--pms`` are read whole by the command,
so any bad grid is a data error.

Numbers are spelled plainly. The number flags (``--pm``, ``--ct``,
``--fraction``) and each ``--pms`` value take what Python's ``float()``
takes except its ``_`` digit separators, so ``--pm 2_15`` is refused as
``--pm abc`` is, not read as 215. A model file's ``#pm`` header must be
spelled as the writer spells it, the float's ``repr`` (``2.15``,
``2.0``); any other spelling (``2_15``, ``+2.15``, ``2.150``) is a model
error, exit 2, so no file loads and saves back differently.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .adaptation import FULL, AdaptConfig, adaptive_identify
from .corpus import CorpusError, _read_lines, load_tsv, ordered_split, save_tsv
from .evaluation import evaluate, sweep
from .heli import HeliConfig, heli_build, parse_heli_models, save_heli_models
from .ngram import (
    ModelIOError,
    NgramRange,
    _is_canonical_int,
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

METHODS = ("nb", "simple", "sumrf", "heli")  # "sumrf" is the library's "sum_rf"
MAX_PM_GRID = 10_000  # values a start:stop:step penalty grid may have


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_opt_range(value: str) -> tuple[int, int] | None:
    """A heli range's bounds, or None for ``-``; ``_cmd_train`` checks them."""
    if value == "-":
        return None
    try:
        return NgramRange.parse_bounds(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_yn(value: str) -> bool:
    if value in ("y", "yes", "1"):
        return True
    if value in ("n", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected y or n, got {value!r}")


def _plain_float(value: str) -> float:
    """``float(value)`` without the ``_`` digit separators ``float`` also takes."""
    if "_" in value:
        raise ValueError(f"expected a plain number, got {value!r}")
    return float(value)


def _number(value: str) -> float:
    """A number flag's value, read by ``_plain_float``."""
    try:
        return _plain_float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return n


def _parse_k(value: str) -> int | str:
    """An integer or ``full``; ``AdaptConfig`` checks its range."""
    if value.lower() == FULL:
        return FULL
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or {FULL!r}, got {value!r}")


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
        start, stop, step = (_plain_float(v) for v in (start_s, stop_s, step_s))
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"pm grid {spec!r} needs a finite start, stop and step")
        if step <= 0:
            raise ValueError("pm step must be positive")
        # a 1e-9 step of slack absorbs float error, so 2.10:2.20:0.01 keeps 2.20
        count = math.floor((stop - start) / step + 1e-9) + 1
        if count > MAX_PM_GRID:
            raise ValueError(f"pm grid {spec!r} has more than {MAX_PM_GRID} values")
        values = [round(start + i * step, 12) for i in range(count)]
        if len(set(values)) != count:
            raise ValueError(f"pm grid {spec!r} repeats values once rounded to 12 decimals")
        return values
    return [_plain_float(part) for part in spec.split(",") if part]


def write_predictions(preds: list[Prediction], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in preds:
            fh.write(f"{p.doc_id}\t{p.best}\t{p.margin!r}\n")


def read_predictions(path: str | Path) -> list[Prediction]:
    """Read a file in the form ``write_predictions`` writes, line by line.

    Lines are split as ``corpus._read_lines`` splits them. Each line is
    ``doc_id<TAB>label<TAB>margin``: the id spelled as the writer spells
    an integer, a non-empty label, and a margin spelled as its float's
    ``repr`` that is neither negative nor NaN. Anything else raises
    :class:`CorpusError` with the line number.
    """
    preds = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise CorpusError(f"{path}: line {lineno}: expected 3 fields")
        doc_id, best, margin = fields
        if not _is_canonical_int(doc_id):
            raise CorpusError(f"{path}: line {lineno}: bad doc id {doc_id!r}")
        if not best:
            raise CorpusError(f"{path}: line {lineno}: empty label")
        if not _is_margin(margin):
            raise CorpusError(f"{path}: line {lineno}: bad margin {margin!r}")
        preds.append(Prediction(doc_id=int(doc_id), best=best, scores={}, margin=float(margin)))
    return preds


def _is_margin(value: str) -> bool:
    """Whether ``value`` is a margin as the writer writes it: a float's
    ``repr``, not NaN and without a sign."""
    try:
        margin = float(value)
    except ValueError:
        return False
    return repr(margin) == value and not math.isnan(margin) and math.copysign(1.0, margin) > 0


def _adapt_config(args) -> AdaptConfig:
    """k defaults to 1; epochs to 1 when k or ct is given, else 0 (no adaptation)."""
    epochs = args.epochs
    if epochs is None:
        epochs = 1 if args.adapt_k is not None or args.ct is not None else 0
    k = 1 if args.adapt_k is None else args.adapt_k
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
        lnr, onr = (bounds and NgramRange(*bounds) for bounds in (args.lnr, args.onr))
        config = HeliConfig(lnr=lnr, onr=onr, lw=args.lw, ow=args.ow, pm=args.pm)
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
    """Read a model file once, then build the kind its header and first
    row name; ``method`` (None: the kind's default) must suit it."""
    lines = _read_model_lines(Path(path))
    heli = is_heli_model_file(*lines)
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
    result = sweep(train, dev, args.method, ranges, pms, _adapt_config(args), args.jobs)
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
    config = _adapt_config(args)
    preds = adaptive_identify(test, models, "nb", config, trace_path=args.trace)
    write_predictions(preds, args.out)
    print(
        f"system1: nb {rng} pm {args.pm}, adaptation k={config.k} "
        f"epochs={config.epochs}; {len(preds)} predictions -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _add_adapt_args(p: argparse.ArgumentParser, k=None, epochs=None) -> None:
    """The flags ``_adapt_config`` reads, per subcommand: shared actions share defaults."""
    p.add_argument("--adapt-k", type=_parse_k, default=k,
                   help="adaptation splits (integer or 'full')")
    p.add_argument("--ct", type=_number, default=None, help="confidence threshold")
    p.add_argument("--epochs", type=int, default=epochs, help="adaptation epochs")


def build_parser() -> _Parser:
    parser = _Parser(prog="ngramlid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="ordered per-label train/dev split")
    p.add_argument("--in", dest="infile", required=True, help="labeled TSV corpus")
    p.add_argument("--fraction", type=_number, default=0.9, help="train fraction")
    p.add_argument("--train", required=True, help="output training TSV")
    p.add_argument("--dev", required=True, help="output dev TSV")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="build language models from a labeled corpus")
    p.add_argument("--in", dest="infile", required=True, help="labeled TSV corpus")
    p.add_argument(
        "--method",
        choices=METHODS,
        default="nb",
        help="target method (nb/simple/sumrf share the same model format)",
    )
    p.add_argument("--min-n", type=int, default=2, help="shortest gram length")
    p.add_argument("--max-n", type=int, default=6, help="longest gram length")
    p.add_argument("--pm", type=_number, default=2.15, help="penalty modifier")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--keep-case", action="store_true", help="do not lowercase grams")
    p.add_argument("--no-pad", action="store_true", help="no space padding around words")
    p.add_argument(
        "--concat", action="store_true", help="join all words before gram extraction"
    )
    p.add_argument("--lnr", type=_parse_opt_range, default=(2, 6),
                   help="heli: lowercased gram range, or - to disable")
    p.add_argument("--onr", type=_parse_opt_range, default=(2, 6),
                   help="heli: original-casing gram range, or - to disable")
    p.add_argument("--lw", type=_parse_yn, default=True, help="heli: lowercased words y|n")
    p.add_argument("--ow", type=_parse_yn, default=True, help="heli: original words y|n")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("identify", help="classify an unlabeled corpus")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--in", dest="infile", required=True, help="unlabeled text file")
    p.add_argument("--out", required=True, help="output predictions TSV")
    p.add_argument("--method", choices=METHODS, default=None,
                   help="scoring method (default: nb, or heli for heli model files)")
    _add_adapt_args(p)
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
    p.add_argument("--method", choices=METHODS, default="nb")
    p.add_argument("--ranges", required=True,
                   help="grid, e.g. 2-6,7-10 or all:1-8 for every pair")
    p.add_argument("--pms", default="2.15",
                   help="penalty grid, e.g. 2.1,2.2 or 2.10:2.20:0.01")
    _add_adapt_args(p)
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
    p.add_argument("--pm", type=_number, default=SYSTEM1_PM)
    _add_adapt_args(p, k=SYSTEM1_K, epochs=1)
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
