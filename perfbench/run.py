"""Seed-pinned end-to-end benchmark for ngramlid.

Run from the repository root:

    python3 perfbench/run.py --workload system1-16lang --seed 1 --seconds 40 --trace 0

The benchmark writes its synthetic inputs under ``perfbench/work/``,
drives the pipeline through ``ngramlid.cli.main`` in-process, checks the
outputs, and prints one line per metric followed by a JSON result line.
With ``--trace 0`` the result holds the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of
one traced repetition (see ``tracing.py``). Exit status 2 means the
benchmark could not run at all; exit status 1 means a command failed
before one full repetition, and the result line then has null metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1  # the seed whose output digests are pinned in expected.json

MIN_CYCLES = 3
# A latency block classifies every test document back to back until it
# has this many samples (>= 10 beyond p99). Percentiles are taken per
# block and the median over blocks is reported, so that a slow period of
# the host moves one block's p99, not the run's.
BLOCK_SAMPLES = 1100
CALIBRATION_LOOPS = 3_000_000
ORACLE_DOCS_PER_LENGTH = 4
# Short commands are repeated within a cycle so their medians rest on
# more samples than the cycle count.
REPEATED_STEPS = ("train", "identify")
MIN_STEP_SECONDS = 2.0


class SetupError(Exception):
    """The benchmark cannot run here (missing program, oracle or config)."""


class IncompleteRun(Exception):
    """A command failed before one full repetition was measured."""


def _load_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ngramlid
    except ImportError as exc:
        raise SetupError(f"cannot import ngramlid from {src}: {exc}") from exc
    if not Path(ngramlid.__file__).resolve().is_relative_to(src):
        raise SetupError(f"ngramlid imported from {ngramlid.__file__}, not from {src}")
    oracle_path = ROOT / "tests" / "oracle_utils.py"
    if not oracle_path.is_file():
        raise SetupError(f"missing reference oracle {oracle_path}")
    spec = importlib.util.spec_from_file_location("oracle_utils", oracle_path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def _metric_specs() -> tuple[list[dict], list[dict]]:
    path = ROOT / "BENCHMARK.json"
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc
    return config["end_to_end"], config["per_layer"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def calibrate() -> float:
    """Host-noise probe: a fixed pure-Python loop. Reported, never used to scale."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc ^= i
    return perf_counter() - start


def rchar() -> int | None:
    """Bytes this process has read through read(2), or None off Linux."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class Bench:
    """One workload run: inputs, checks, and the measured samples."""

    def __init__(self, workload, seed: int, oracle, expected: dict):
        from ngramlid import cli, corpus, heli, ngram, scorers
        from workloads import Files

        # called through their modules, so that tracing wrappers are seen
        self.cli, self.corpus, self.heli, self.ngram, self.scorers = (
            cli, corpus, heli, ngram, scorers
        )
        self.w = workload
        self.seed = seed
        self.oracle = oracle
        self.pins = expected.get(workload.name, {}) if seed == DEFAULT_SEED else None
        self.work = BENCH_DIR / "work" / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.files = Files.under(self.work)
        self.train, self.dev = workload.corpora(seed)
        self.files.write_inputs(self.train, self.dev)
        self.steps = workload.pipeline(self.files)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.macro_f1: float | None = None
        self.models = None
        self.test_docs = None
        self.expected_labels: list[str] | None = None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    # -- pipeline -----------------------------------------------------

    def run_step(self, step, tracer=None) -> float | None:
        """Run one CLI command; returns its wall time, or None if it failed."""
        self.attempted += 1
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run_id += 1
            span = tracer.open(f"cli.{step.name}", "cli")
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(step.argv)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            rc = f"exception {exc!r}"
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.close(span)
        if rc != 0:
            self.fail(f"{step.name}: exit {rc}: {err.getvalue().strip()[-300:]}")
            return None
        self.check_outputs(step)
        return elapsed

    def check_outputs(self, step) -> None:
        for key, path in step.outputs.items():
            if not path.is_file():
                self.fail(f"{step.name}: no {key} output")
                continue
            digest = _sha256(path)
            first = self.digests.setdefault(key, digest)
            if digest != first:
                self.fail(f"{step.name}: {key} differs between repetitions")
            elif self.pins is not None and self.pins.get(key) != digest:
                self.fail(f"{step.name}: {key} sha256 {digest} != pinned {self.pins.get(key)}")
        if step.name in ("evaluate", "sweep"):
            self.check_macro_f1(step)

    def check_macro_f1(self, step) -> None:
        try:
            if step.name == "evaluate":
                rows = dict(line.split("\t", 1) for line in
                            self.files.report.read_text(encoding="utf-8").splitlines())
                value = float(rows["macro_f1"])
            else:  # sweep rows are sorted best first; macro_f1 is the 5th column
                value = float(self.files.sweep.read_text(encoding="utf-8").splitlines()[1]
                              .split("\t")[4])
        except (KeyError, IndexError, ValueError) as exc:
            self.fail(f"{step.name}: no macro_f1 in its output: {exc!r}")
            return
        if self.macro_f1 is None:
            self.macro_f1 = value
        if value != self.macro_f1 or (self.pins is not None
                                      and self.pins.get("macro_f1") != value):
            self.fail(f"{step.name}: macro_f1 {value!r} is not the pinned or first value")

    def run_job(self, tracer=None, between=None, min_step_s=0.0) -> dict[str, list] | None:
        """Run every step, and repeat a ``train``/``identify`` step until it
        has run for ``min_step_s``; ``between`` runs untimed after each step.
        Returns each step's times, and the job time from first repetitions."""
        times: dict[str, list] = {}
        for step in self.steps:
            samples = times[step.name] = []
            while not samples or (step.name in REPEATED_STEPS and sum(samples) < min_step_s):
                elapsed = self.run_step(step, tracer)
                if elapsed is None:
                    return None
                samples.append(elapsed)
            if between is not None:
                between()
        times["job"] = [sum(times[s.name][0] for s in self.steps if s.in_job)]
        return times

    def load_models(self):
        """Read the model file with ``identify``'s own loader."""
        return self.cli._load_any_models(str(self.files.model), None)[0]

    def setup_once(self, tracer=None) -> float | None:
        """Time until models and test text are ready (sweep: train + dev read)."""
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.run_id += 1
        try:
            start = perf_counter()
            if self.w.setup_reads_model:
                models = self.load_models()
                test = self.corpus.load_tsv(str(self.files.test), labeled=False)
            else:
                self.corpus.load_tsv(str(self.files.train), labeled=True)
                test = self.corpus.load_tsv(str(self.files.dev), labeled=True)
                models = None
            elapsed = perf_counter() - start
        except Exception as exc:
            self.fail(f"setup: {exc!r}")
            return None
        if self.models is None:
            self.models = models if models is not None else self.load_models()
            self.test_docs = [self.corpus.Document(d.id, d.text) for d in test]
        return elapsed

    def classify_pass(self, samples: list[int], tracer=None) -> None:
        """Classify every test document once on the unadapted models."""
        method = self.w.latency_method
        labels = []
        for doc in self.test_docs:
            self.attempted += 1
            if tracer is not None:
                tracer.run_id += 1
            t0 = perf_counter_ns()
            try:
                if method == "heli":
                    pred = self.heli.heli_classify(doc, self.models)
                else:
                    pred = self.scorers.classify(doc, self.models, method)
            except Exception as exc:
                self.fail(f"classify doc {doc.id}: {exc!r}")
                labels.append(None)
                continue
            samples.append(perf_counter_ns() - t0)
            labels.append(pred.best)
        if self.expected_labels is None:
            self.expected_labels = labels
        mismatches = sum(a is not None and b is not None and a != b
                         for a, b in zip(labels, self.expected_labels))
        if mismatches:
            self.failed += mismatches - 1
            self.fail(f"classify: {mismatches} labels changed between passes")

    # -- reference check ----------------------------------------------

    def oracle_check(self) -> int:
        """Brute-force exact-Fraction rankings must agree with ``classify``
        for simple and nb (pm=2) on freshly built 2-6 models."""
        if not self.w.oracle:
            return 0
        from ngramlid.ngram import NgramRange

        models = self.ngram.build_models(self.train, NgramRange(2, 6), 2.0)
        brute = self.oracle.BruteModel([(d.text, d.label) for d in self.train], 2, 6)
        per_length: dict[int, int] = {}
        checked = 0
        for doc in self.dev:
            words = len(doc.text.split())
            if per_length.get(words, 0) >= ORACLE_DOCS_PER_LENGTH:
                continue
            per_length[words] = per_length.get(words, 0) + 1
            for method in ("simple", "nb"):
                self.attempted += 1
                checked += 1
                try:
                    pred = self.scorers.classify(self.corpus.Document(doc.id, doc.text),
                                                 models, method)
                    got = self.oracle.impl_ranking(pred.scores, lower=method == "nb")
                    expected = brute.ranking_classes(doc.text, method, pm=2)
                except Exception as exc:
                    self.fail(f"oracle: doc {doc.id} {method}: {exc!r}")
                    continue
                pos = 0
                for cls in expected:
                    if set(got[pos : pos + len(cls)]) != cls:
                        self.fail(f"oracle: doc {doc.id} {method}: {got} vs {expected}")
                        break
                    pos += len(cls)
        return checked


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _block_median(blocks: list[list[int]], q: float) -> float:
    """Median over latency blocks of each block's percentile ``q``."""
    return _median([_percentile(block, q) for block in blocks])


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Cycle job, set-up and latency blocks until ``seconds`` have passed."""
    calib = [calibrate()]
    jobs: list[dict[str, list[float]]] = []
    setups: list[float] = []
    blocks: list[list[int]] = []
    started = perf_counter()
    cycle_times: list[float] = []

    def latency_block():
        # spread over the whole run, so every metric sees the same host noise
        if bench.models is None:
            return
        gc.collect()
        samples: list[int] = []
        for _ in range(math.ceil(BLOCK_SAMPLES / len(bench.test_docs))):
            bench.classify_pass(samples)
        if samples:
            blocks.append(sorted(samples))

    while True:
        cycle_start = perf_counter()
        times = bench.run_job(between=latency_block, min_step_s=MIN_STEP_SECONDS)
        if times is None:
            break
        jobs.append(times)
        for _ in range(bench.w.setup_reps):
            elapsed = bench.setup_once()
            if elapsed is not None:
                setups.append(elapsed)
        if bench.models is None:
            break
        latency_block()
        cycle_times.append(perf_counter() - cycle_start)
        # one more cycle only if it ends nearer to ``seconds`` than stopping
        # now, so runs last ``seconds`` on average rather than less
        if len(jobs) >= MIN_CYCLES and (
            perf_counter() + _median(cycle_times) / 2 > started + seconds
        ):
            break
    calib.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not jobs or not setups or not blocks:
        raise IncompleteRun("; ".join(bench.problems))

    n_samples = sum(map(len, blocks))

    def pooled(step):
        return [t for j in jobs for t in j[step]]

    values = {
        "job_s": (_median(pooled("job")), len(jobs)),
        "train_s": (_median(pooled("train")), len(pooled("train"))),
        "identify_s": (_median(pooled("identify")), len(pooled("identify"))),
        "setup_s": (_median(setups), len(setups)),
        "classify_p50_ms": (_block_median(blocks, 0.50) / 1e6, n_samples),
        "classify_p99_ms": (_block_median(blocks, 0.99) / 1e6, n_samples),
        "peak_rss_mb": (peak_rss_mb, 1),
        "macro_f1": (bench.macro_f1, len(jobs)),
    }
    detail = {
        "cycles": len(jobs),
        "seconds": perf_counter() - started,
        "calibration_s": calib,
        "latency_blocks": len(blocks),
        "job_s_samples": pooled("job"),
        "setup_s_samples": setups,
    }
    return values, detail


def measure_traced(bench: Bench, names: list[str]) -> tuple[dict, dict]:
    """One untraced and one traced repetition; the per-layer metrics
    ``names`` from the trace. A metric reads 0 when its function exists but
    was not called, and None (a failed operation) when the function is gone."""
    from tracing import Tracer

    calib = [calibrate()]
    untraced = bench.run_job()
    if untraced is None or bench.setup_once() is None:
        raise IncompleteRun("; ".join(bench.problems))
    before = rchar()
    bench.load_models()
    after = rchar()
    model_bytes = bench.files.model.stat().st_size
    bytes_ratio = (after - before) / model_bytes if before is not None else None

    with Tracer() as tracer:
        bench.setup_once(tracer)
        traced = bench.run_job(tracer)
        bench.classify_pass([], tracer)
    peaks = tracer.replay_peaks()
    calib.append(calibrate())
    if traced is None:
        raise IncompleteRun("; ".join(bench.problems))

    values = tracer.summary()
    values.update(peaks)
    rounds, adopted = set(), 0
    if bench.files.adopt.is_file():
        for line in bench.files.adopt.read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            if int(fields[0]) > 0:
                rounds.add(fields[0])
            adopted += int(fields[4])
    values["adaptation.rounds"] = len(rounds)
    values["adaptation.docs_adopted"] = adopted
    values["ngram.bytes_parsed_per_model_byte"] = bytes_ratio
    values["trace.job_s"] = traced["job"][0]
    values["trace.untraced_job_s"] = untraced["job"][0]
    values["trace.overhead_s"] = traced["job"][0] - untraced["job"][0]
    values["host.calib_s"] = _median(calib)

    spans_path = BENCH_DIR / "work" / f"spans-{bench.w.name}-seed{bench.seed}.tsv.gz"
    tracer.write(spans_path)
    detail = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "calibration_s": calib}
    out = {}
    for name in names:
        missing = tracer.unmeasured(name)
        value = values.get(name, 0)
        if missing:
            bench.fail(f"{name}: the library has no {', '.join(missing)} to trace")
            value = None
        elif value is None:
            bench.fail(f"{name}: cannot be measured on this platform")
        out[name] = (value, 0 if value is None else 1)
    return out, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        end_to_end, per_layer = _metric_specs()
        oracle = _load_program()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
        expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = per_layer if args.trace else end_to_end
    bench = Bench(WORKLOADS[args.workload], args.seed, oracle, expected)
    try:
        try:
            if args.trace:
                values, detail = measure_traced(bench, [spec["name"] for spec in wanted])
            else:
                values, detail = measure(bench, args.seconds)
        except IncompleteRun as exc:
            values, detail = {}, {"no complete repetition": str(exc)}
        checked = bench.oracle_check()
    finally:
        bench.close()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(detail)}")
    print(f"oracle sample: {checked} rankings compared; digests: {json.dumps(bench.digests)}"
          f"; macro_f1 {bench.macro_f1!r}")
    metrics = {}
    for spec in wanted:
        value, count = values.get(spec["name"], (None, 0))
        print(f"  {spec['name']:<40} {value!r:>24} {spec['unit']:<6} n={count}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
