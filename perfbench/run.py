#!/usr/bin/env python3
"""gptlab benchmark: one seeded workload, checked answers, metrics by name.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
Each workload is a closed loop: one process issues each library call only
after the previous one returned.  Whole passes of the workload's ops run
until ``--seconds`` have elapsed and at least ``MIN_PASSES`` passes and
``MIN_OPS`` ops are done.  Every answer is checked; a wrong answer
prints ``"correct": false`` and exits 1.  A call that raises is counted in
``failed`` and listed, and the run goes on.  Reported times are scaled to
a nominal host speed, sampled with ``reference_chunk`` between the ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends a third
of the time untraced and the rest with every listed library function
wrapped (see ``spans.py``), prints the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import Tracer, metric_specs  # noqa: E402
from workloads import WORKLOADS, WrongAnswer  # noqa: E402

MODULES = ("scalars", "linprog", "cones", "model", "symmetry", "ideal", "measures",
           "compat", "harness", "cli")
SETUP_REPEATS = 11
# A run also lasts at least this many whole passes and ops: a curve pass
# takes about 20 s, ops_per_s is a median over passes, and the op-time
# percentiles need samples.
MIN_PASSES = 3
MIN_OPS = 100
REFERENCE_EVERY_S = 0.05  # op time between two reference chunks
REFERENCE_NOMINAL_S = 0.0025  # reference chunk time that reported times are scaled to
REPORT_FILES = ("report.json", "summary.csv", "plot_data.csv")


def import_gptlab() -> SimpleNamespace:
    """A fresh import of gptlab from src/ (earlier imports are dropped)."""
    import importlib

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "gptlab" or k.startswith("gptlab.")]:
        del sys.modules[name]
    importlib.import_module("gptlab")
    mods = {m: importlib.import_module(f"gptlab.{m}") for m in MODULES}
    origin = Path(mods["model"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"gptlab was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def reference_chunk() -> float:
    """Time one fixed piece of pure-Python work that does not touch gptlab.

    The host this benchmark was built on drifts in speed by tens of percent
    over minutes.  Chunks interleaved with the ops sample that speed over
    the same stretch of time, and every reported time is scaled by
    ``REFERENCE_NOMINAL_S / <chunk time>``: the time the op would have taken
    on a host where a chunk takes ``REFERENCE_NOMINAL_S``.
    """
    t0 = perf_counter()
    acc = 0.0
    v = (0.3, 0.5, 1.0)
    m = ((1.0, 0.1, 0.0), (0.2, 1.0, 0.0), (0.0, 0.0, 1.0))
    for i in range(400):
        w = tuple(sum(a * b for a, b in zip(row, v)) for row in m)
        acc += sum(a * b for a, b in zip(w, v))
        rows = [[x * 0.5 - i for x in w] for _ in range(3)]
        acc += rows[1][2]
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# environment

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else empty."""
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:]))
    return head


def environment() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gptlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(str(index / "level")), _read(str(index / "type"))
        caches[f"L{level}-{kind}"] = _read(str(index / "size"))
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "loadavg_start": _read("/proc/loadavg"),
    }


# ---------------------------------------------------------------------------
# checks outside the timed runs

def check_report_identity(g, ref: dict) -> None:
    """run_report(seed=0) on the default battery must reproduce the recorded bytes."""
    out_dir = OUT / f"report-{os.getpid()}"
    try:
        g.harness.run_report(None, out_dir=str(out_dir), seed=0)
        for name in REPORT_FILES:
            got = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            if got != ref["report_sha256"][name]:
                raise WrongAnswer(f"{name} sha256 {got}, recorded {ref['report_sha256'][name]}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the closed loop

class Phase:
    """Op timings and failures of one measured stretch."""

    def __init__(self):
        self.durations = []  # per op, scaled to the nominal reference host
        self.failures = Counter()  # (op name, detail, error) -> count
        self.passes = []  # per pass: (ops that returned, scaled seconds spent in ops)
        self.raw_busy = 0.0  # unscaled seconds spent in ops
        self.chunks = []  # reference chunk times
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def speed(self) -> float:
        """How much slower than nominal the host ran, on average."""
        return statistics.fmean(self.chunks) / REFERENCE_NOMINAL_S


def run_phase(g, workload: str, state: dict, ref: dict, budget: float, first_pass: int,
              min_passes: int, min_ops: int, tracer: Tracer | None = None) -> Phase:
    """Whole passes until `budget` seconds, `min_passes` passes and `min_ops` ops are done."""
    pass_ops = WORKLOADS[workload][1]
    phase = Phase()
    t_start = perf_counter()
    k = first_pass
    while True:
        gen = pass_ops(g, state, ref, k)
        result = None
        n_ops, n_failed, n_chunks = phase.attempted, phase.failed, len(phase.chunks)
        busy, next_chunk = 0.0, REFERENCE_EVERY_S
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                break
            t0 = perf_counter()
            try:
                result = tracer.run_op(op.call) if tracer else op.call()
                failure = None
            except Exception as exc:  # a failed op: counted, listed, run goes on
                result, failure = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            phase.durations.append(dt)
            busy += dt
            while busy >= next_chunk:
                phase.chunks.append(reference_chunk())
                next_chunk += REFERENCE_EVERY_S
            if failure is not None:
                phase.failures[(op.name, op.detail, failure)] += 1
            elif op.check is not None:
                op.check(result)
        if len(phase.chunks) == n_chunks:
            phase.chunks.append(reference_chunk())
        scale = REFERENCE_NOMINAL_S / statistics.fmean(phase.chunks[n_chunks:])
        phase.durations[n_ops:] = [d * scale for d in phase.durations[n_ops:]]
        phase.raw_busy += busy
        phase.passes.append((phase.attempted - n_ops - (phase.failed - n_failed),
                             sum(phase.durations[n_ops:])))
        k += 1
        if (len(phase.passes) >= min_passes and phase.attempted >= min_ops
                and perf_counter() - t_start >= budget):
            break
    phase.elapsed = perf_counter() - t_start
    return phase


def end_to_end(phase: Phase, setup_s: float) -> dict:
    d = np.array(phase.durations)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": statistics.median(ok / busy for ok, busy in phase.passes),
                      "unit": "1/s"},
        "op_p50_ms": {"value": float(np.percentile(d, 50)) * 1e3, "unit": "ms"},
        "op_p99_ms": {"value": float(np.percentile(d, 99)) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal-size inputs, for checking the benchmark itself")
    ap.add_argument("--reference", default=str(HERE / "reference.json"),
                    help="recorded answers the gate compares against")
    args = ap.parse_args(argv)

    if not (SRC / "gptlab" / "__init__.py").is_file():
        print(f"no gptlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(args.reference) as fh:
        ref = json.load(fh)
    env = environment()
    OUT.mkdir(exist_ok=True)
    setup = WORKLOADS[args.workload][0]
    workdir = str(OUT / f"inputs-{os.getpid()}")

    verdict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        # set-up: import gptlab and build the inputs, several times; the last one is used
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            g = import_gptlab()
            state = setup(g, args.seed, args.smoke, workdir)
            dt = perf_counter() - t0
            chunk = statistics.fmean(reference_chunk() for _ in range(4))
            times.append(dt * REFERENCE_NOMINAL_S / chunk)
        setup_s = statistics.median(times)
        check_report_identity(g, ref)

        if args.trace:
            plain = run_phase(g, args.workload, state, ref, args.seconds / 3, 0, 1, 0)
            tracer = Tracer()
            tracer.install()
            try:
                phase = run_phase(g, args.workload, state, ref, args.seconds - plain.elapsed,
                                  len(plain.passes), 1, 0, tracer)
            finally:
                tracer.uninstall()
            tracer.write(str(OUT / f"spans-{args.workload}.npz"))
            layers = tracer.layer_metrics()
            for name in layers:
                if name.endswith(".self_s"):
                    layers[name] /= phase.speed
            units = dict(metric_specs())
            verdict["metrics"] = {name: {"value": v, "unit": units[name]}
                                 for name, v in layers.items()}
            overhead = (sum(phase.durations) / phase.attempted) / (
                sum(plain.durations) / plain.attempted)
            print(f"tracing overhead: {overhead:.2f}x mean op time "
                  f"({phase.attempted} traced ops vs {plain.attempted} untraced)")
            print("largest self time: " + ", ".join(
                f"{name} {share:.0%}" for name, share in tracer.top_self()))
        else:
            phase = run_phase(g, args.workload, state, ref, args.seconds, 0, MIN_PASSES, MIN_OPS)
            verdict["metrics"] = end_to_end(phase, setup_s)
            print(f"{phase.attempted} ops in {len(phase.passes)} passes, {phase.elapsed:.1f} s; "
                  f"fail_frac {phase.failed / phase.attempted:.4f}")
            print(f"host speed: reference chunk {phase.speed:.3f}x nominal; unscaled "
                  f"{(phase.attempted - phase.failed) / phase.raw_busy:.6g} ops/s")
        verdict["attempted"], verdict["failed"] = phase.attempted, phase.failed
        for (name, detail, error), count in sorted(phase.failures.items()):
            print(f"failed op: {name} [{detail}] x{count}: {error}")
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        verdict["correct"] = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = _read("/proc/loadavg")
    print("environment: " + json.dumps(env, sort_keys=True))
    if not args.trace:
        for name, m in verdict["metrics"].items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(verdict))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
