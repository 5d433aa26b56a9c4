"""Benchmark of the eotypes pipeline on seeded curve workloads.

Run from the repository root:

    python3 bench/run.py --workload scan-p5-d4 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

The benchmark is one process on one thread, in a closed loop: the next curve
starts only after the previous one has returned. The curves come from
``workloads.py`` and the seed alone. Each curve is timed from the
construction of its forms and ``CurveCI`` to the ``EOResult`` that
``classify`` returns after its own consistency checks; on ``plane-large-p``
the timed region runs from ``parse_poly`` to ``build_report``, as
``eotypes eotype`` does. Curves run in blocks of whole rounds over the
workload's cases; the checks of ``checks.py`` run between blocks, outside the
timed region.

``--trace 0`` measures whole blocks until they, with the calibration
samples of ``calibrate.py`` taken after each block, hold ``--seconds`` of
timed work, and reports the end-to-end metrics:

    curves_per_s    median over blocks of curves / timed seconds; a curve
                    counts when it is classified or rejected as singular
    latency_p50_ms  median time of one curve
    setup_s         median of nine set-ups, each a fresh import of eotypes,
                    field and basis construction and one warm-up curve
    peak_rss_mb     peak resident memory of the process

The host's speed drifts by more than the metrics' bounds between runs, so
every time is scaled to the reference host of ``calibrate.py`` by the
calibration samples taken around it; the unscaled medians are kept in
the run's record.

``--trace 1`` runs a fixed prefix of the stream three times: untraced with
every check, under ``tracer.py``, and untraced again as the base of the
tracing overhead. It reports the per-layer metrics. The prefix depends only
on the workload and ``--seconds``, so its counts repeat exactly for one seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also writes
``bench/out/<workload>-seed<seed>-trace<0|1>.json`` with provenance and
outcome counts; a traced run writes its spans to
``bench/out/<workload>.spans.npz``. The exit code is 0 only if every curve
passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import calibrate
from checks import (DEFAULT_SEED, REJECTION_CHECKS, TAGS, check_record,
                    classified_outcome, load_reference, outcome_counts,
                    rejecting_check)
from tracer import ROOT_SPAN, Tracer
from workloads import NVARS, WORKLOADS, monomials, stream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
CALIBRATION_SHARE = 0.1
TRACE_CALIBRATION_S = 0.5
WARMUP_SEED = 2 ** 31 - 1
MAX_REPORTED_PROBLEMS = 20

END_TO_END_UNITS = {"curves_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class Record(NamedTuple):
    seconds: float
    outcome: str
    result: object = None
    triple: object = None
    report: object = None
    error: str | None = None


def import_library():
    """A fresh import of eotypes from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "eotypes" / "__init__.py").is_file():
        raise SystemExit(f"eotypes sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "eotypes" or n.startswith("eotypes.")]:
        del sys.modules[name]
    import eotypes
    import eotypes.cli  # noqa: F401  (build_report)
    if Path(eotypes.__file__).resolve().parent != src / "eotypes":
        raise SystemExit(f"imported eotypes from {eotypes.__file__}, not from {src}")
    return eotypes


class Pipeline:
    """The library calls of one workload, on fields built at set-up."""

    def __init__(self, eo, workload):
        self.eo = eo
        self.workload = workload
        self.fields = {}

    def setup(self):
        """Field and monomial-basis construction."""
        eo = self.eo
        self.fields = {}
        for case in self.workload.cases:
            if (case.p, case.m) not in self.fields:
                self.fields[case.p, case.m] = eo.field_new(case.p, case.m)
            if eo.monomial_basis(NVARS, case.d).monomials != monomials(NVARS, case.d):
                raise SystemExit("the library's monomial order differs from "
                                 "the one the inputs were drawn in")

    def run(self, inp) -> Record:
        """The timed region for one curve."""
        eo = self.eo
        field = self.fields[inp.case.p, inp.case.m]
        report = None
        t0 = time.perf_counter()
        try:
            if inp.text is not None:
                f = eo.parse_poly(inp.text, NVARS, field)
            else:
                f = eo.GradedPoly(field, NVARS, inp.case.d, inp.coeffs)
            curve = eo.CurveCI(field, [f])
            t1 = time.perf_counter()
            triple = eo.hw_triple(curve)
            t2 = time.perf_counter()
            result = eo.classify(triple)
            if inp.text is not None:
                t3 = time.perf_counter()
                report = eo.cli.build_report(curve, triple, result, {
                    "hw_triple_s": t2 - t1, "classify_s": t3 - t2, "total_s": t3 - t1})
        except eo.SingularCurveError as exc:
            return Record(time.perf_counter() - t0, "singular:" + rejecting_check(exc))
        except Exception as exc:  # every other exception is a counted failure
            return Record(time.perf_counter() - t0, f"error:{type(exc).__name__}",
                          error=f"{type(exc).__name__}: {exc}")
        return Record(time.perf_counter() - t0, classified_outcome(result),
                      result, triple, report)


class Run:
    """Outcomes, timings and failures of the curves one invocation runs."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.reference = load_reference(workload.name, seed)
        self.eo = None
        self.pipeline = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, index, rec):
        """Count the curve as attempted, and as failed if a check fails.
        Warm-up curves have index -1 and no reference outcome."""
        expected = None
        if self.reference is not None and 0 <= index < len(self.reference):
            expected = self.reference[index]
        problems = check_record(self.eo, index, rec, expected)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append({"curve": index, "outcome": rec.outcome,
                                      "problems": problems})

    def setup(self, repeats):
        """Seconds of each set-up, a fresh import of the library, fields,
        bases and one warm-up curve, and of the calibration sample taken
        right after it. The run goes on with the library of the last set-up;
        the warm-up curve comes from a fixed seed and is checked."""
        times, samples = [], []
        for _ in range(repeats):
            warm = next(stream(self.workload, WARMUP_SEED))
            # frees the library of the last set-up, which import cycles keep
            # alive; otherwise each set-up would add to the peak memory
            gc.collect()
            t0 = time.perf_counter()
            self.eo = import_library()
            self.pipeline = Pipeline(self.eo, self.workload)
            self.pipeline.setup()
            rec = self.pipeline.run(warm)
            times.append(time.perf_counter() - t0)
            samples.append(calibrate.sample())
            self.check(-1, rec)
        return times, samples

    def block(self, inputs, tracer=None):
        """The next block of curves from inputs, as (index, Record) pairs."""
        done = []
        for _ in range(self.workload.block):
            inp = next(inputs)
            if tracer is None:
                rec = self.pipeline.run(inp)
            else:
                tracer.curve = inp.index
                tracer.enter(tracer.name_id(ROOT_SPAN))
                try:
                    rec = self.pipeline.run(inp)
                finally:
                    tracer.exit()
            done.append((inp.index, rec))
        return done


def measure(run: Run, seed: int, seconds: float):
    """End-to-end metrics from whole blocks which, with the calibration
    samples taken after each block, total >= seconds of timed work.

    Each time is scaled to the reference host of ``calibrate.py`` by the
    calibration taken around it: a block's curves by the mean of the samples
    taken right before and right after the block, a set-up by the sample
    taken right after it. The metrics are medians of the scaled values; the
    unscaled ones go to the record's detail as "measured"."""
    setup_times, setup_samples = run.setup(SETUP_REPEATS)
    inputs = stream(run.workload, seed)
    block_times, block_samples, outcomes = [], [], []
    while not block_times or sum(map(sum, block_times + block_samples)) < seconds:
        done = run.block(inputs)
        times = [rec.seconds for _, rec in done]
        block_samples.append(calibration_samples(CALIBRATION_SHARE * sum(times)))
        for index, rec in done:
            run.check(index, rec)
        block_times.append(times)
        outcomes += [rec.outcome for _, rec in done]
    ref = calibrate.REFERENCE_S
    around = zip([setup_samples[-1:]] + block_samples, block_samples)
    speed = [ref / statistics.mean(a + b) for a, b in around]  # > 1: faster than ref
    latencies = [t for block in block_times for t in block]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "curves_per_s": statistics.median(
            len(b) / sum(b) / v for b, v in zip(block_times, speed)),
        "latency_p50_ms": 1000 * statistics.median(
            t * v for b, v in zip(block_times, speed) for t in b),
        "setup_s": statistics.median(
            t * ref / c for t, c in zip(setup_times, setup_samples)),
        "peak_rss_mb": peak_rss_mb,
    }
    measured = {
        "curves_per_s": statistics.median(len(b) / sum(b) for b in block_times),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "setup_s": statistics.median(setup_times),
        "host_speed": statistics.median(speed),
    }
    detail = {"blocks": len(block_times), "curves": len(latencies),
              "timed_s": sum(latencies), "block_s": [sum(b) for b in block_times],
              "block_curves": [len(b) for b in block_times],
              "calibration_s": block_samples, "setup_repeats_s": setup_times,
              "setup_calibration_s": setup_samples, "measured": measured,
              "outcomes": outcome_counts(outcomes)}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def calibration_samples(at_least_s):
    """Calibration samples totalling at least at_least_s seconds, at least one."""
    samples = [calibrate.sample()]
    while sum(samples) < at_least_s:
        samples.append(calibrate.sample())
    return samples


# Per-layer metrics of a traced run: span name -> statistics reported. The
# methods of GF are reported under the module alone (gf.mul, not gf.GF.mul).
_SPAN_METRICS = {
    "gf.GF.mul": ("calls", "self_s"),
    "gf.GF.matmul": ("calls", "self_s"),
    "gf.GF.inv_scalar": ("calls",),
    "gf.GF.reduce_digit_planes": ("calls", "self_s"),
    "polyring.poly_pow": ("calls", "self_s"),
    "polyring.poly_mul": ("calls", "self_s"),
    "polyring.t_multiply": ("calls", "self_s"),
    "semilinear.rank": ("calls", "self_s"),
    "semilinear.null_space": ("calls", "self_s"),
    "semilinear.rref": ("calls", "self_s"),
    "semilinear.solve_matrix": ("calls", "self_s"),
    "hwtriple.plane_smoothness_check": ("self_s",),
    "hwtriple.hasse_witt_matrix": ("self_s",),
    "hwtriple.u_generator": ("self_s",),
    "hwtriple.psi_matrix": ("self_s",),
    "hwtriple.HWTriple.validate": ("self_s",),
    "hwtriple.hw_triple": ("self_s",),
    "dieudonne.assemble_dm": ("calls", "self_s"),
    "eoclass.classify": ("self_s",),
    "eoclass.final_type_from_AF": ("self_s",),
    "eoclass.stable_rank": ("self_s",),
    "cli.parse_poly": ("self_s",),
    "cli.build_report": ("self_s",),
}
_MODULES = ("gf", "polyring", "semilinear", "hwtriple", "dieudonne", "eoclass", "cli")
_COUNTER_METRICS = ("polyring.poly_pow.out_terms", "semilinear.entries")


def per_layer_metrics(tracer: Tracer, outcomes, untraced_s, traced_s):
    metrics = {}
    for span, stats in _SPAN_METRICS.items():
        metric = span.replace("gf.GF.", "gf.")
        calls, _, own = tracer.stats(span)
        if "calls" in stats:
            metrics[metric + ".calls"] = (calls, "count")
        if "self_s" in stats:
            metrics[metric + ".self_s"] = (own, "s")
    for name in _COUNTER_METRICS:
        metrics[name] = (tracer.counters.get(name, 0), "count")
    counts = outcome_counts(outcomes)
    for check in REJECTION_CHECKS:
        metrics[f"hwtriple.rejected.{check}"] = (counts.get("rejected." + check, 0), "count")
    for tag in TAGS:
        metrics[f"hwtriple.tag.{tag}"] = (counts.get("tag." + tag, 0), "count")
    classified = sum(counts.get("tag." + tag, 0) for tag in TAGS)
    metrics["hwtriple.accept_ratio"] = (classified / len(outcomes), "ratio")
    own = tracer.module_self()
    _, curve_total, _ = tracer.stats(ROOT_SPAN)
    for module in _MODULES:
        metrics[f"{module}.self_share"] = (own.get(module, 0.0) / curve_total, "ratio")
    metrics["trace.curves"] = (len(outcomes), "count")
    metrics["trace.curve_s"] = (curve_total, "s")
    metrics["trace.spans"] = (len(tracer.span_start), "count")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return metrics


def trace(run: Run, seed: int, seconds: float):
    """Per-layer metrics over a fixed prefix of the stream. The prefix runs
    three times: untraced with every check (this also warms every case),
    traced, and untraced again as the base of the tracing overhead. The
    overhead compares the last two passes, each scaled by the calibration
    taken around it, as ``measure`` scales its blocks."""
    run.setup(1)
    workload = run.workload
    nblocks = max(1, round(seconds * workload.trace_blocks_per_s))

    def one_pass(tracer=None):
        inputs = stream(workload, seed)
        return [done for _ in range(nblocks) for done in run.block(inputs, tracer)]

    checked = one_pass()
    for index, rec in checked:
        run.check(index, rec)
    tracer = Tracer(run.eo)
    samples = [calibration_samples(TRACE_CALIBRATION_S)]
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    samples.append(calibration_samples(TRACE_CALIBRATION_S))
    untraced = one_pass()
    samples.append(calibration_samples(TRACE_CALIBRATION_S))
    for (index, a), (_, b), (_, c) in zip(checked, traced, untraced):
        if not a.outcome == b.outcome == c.outcome:
            run.failed += 1
            run.problems.append({"curve": index, "outcome": a.outcome, "problems": [
                f"traced pass gave {b.outcome!r}, untraced pass {c.outcome!r}"]})
    spans = OUT / f"{workload.name}.spans.npz"
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans)
    outcomes = [rec.outcome for _, rec in traced]
    untraced_s = sum(rec.seconds for _, rec in untraced)
    traced_s = sum(rec.seconds for _, rec in traced)
    ref = calibrate.REFERENCE_S  # seconds on the reference host of calibrate.py
    traced_ref_s = traced_s * ref / statistics.mean(samples[0] + samples[1])
    untraced_ref_s = untraced_s * ref / statistics.mean(samples[1] + samples[2])
    metrics = per_layer_metrics(tracer, outcomes, untraced_ref_s, traced_ref_s)
    detail = {"blocks": nblocks, "curves": len(traced), "untraced_s": untraced_s,
              "traced_s": traced_s, "calibration_s": samples,
              "outcomes": outcome_counts(outcomes),
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail


# -- provenance -----------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(eo, seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eotypes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "eotypes": eo.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "cpu": _cpu_model(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


# -- entry point ----------------------------------------------------------------

def _print_metrics(metrics, failed, attempted):
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted})")


def run_one(name, seed, seconds, traced):
    run = Run(WORKLOADS[name], seed)
    if traced:
        metrics, detail = trace(run, seed, seconds)
    else:
        metrics, detail = measure(run, seed, seconds)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": name, "trace": int(traced), "seconds": seconds,
              "provenance": provenance(run.eo, seed), "attempted": run.attempted,
              "failed": run.failed, "failed_frac": run.failed / run.attempted,
              "metrics": metrics, "detail": detail, "problems": run.problems}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"workload {name}, seed {seed}, {'traced' if traced else 'untraced'}: "
          f"{detail['curves']} curves in {detail['blocks']} blocks")
    print("outcomes " + json.dumps(detail["outcomes"]))
    print("provenance " + json.dumps(record["provenance"]))
    for problem in run.problems:
        print("FAILED " + json.dumps(problem))
    _print_metrics(metrics, run.failed, run.attempted)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def run_all(seed, seconds, traced):
    """Every workload in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"workload {name} printed no result (exit {proc.returncode})")
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(name)
        _print_metrics(res["metrics"], res["failed"], res["attempted"])
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{name}.{key}": m for name, res in results.items()
                                  for key, m in res["metrics"].items()}}))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
