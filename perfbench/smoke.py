#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at minimal input size.

    python3 perfbench/smoke.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric with its unit, and that a corrupted reference answer
trips the correctness gate (exit code 1, ``"correct": false``).  Exits 0
when all of that holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def corruptions(ref: dict) -> dict:
    """One wrong recorded answer per workload, plus a wrong report hash."""
    out = {}
    for name, path, value in (
        ("battery", ("battery", "verdicts", "verify_thm2"), False),
        ("curve", ("curve", "perp_lambda", "8"), ref["curve"]["perp_lambda"]["8"] + 1e-6),
        ("structure", ("structure", "polytopes", "square", "group_order"), 9),
        ("battery", ("report_sha256", "report.json"), "0" * 64),
    ):
        bad = copy.deepcopy(ref)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        out[f"{name}:{'.'.join(path)}"] = (name, bad)
    return out


def run(workload: str, trace: int, reference: Path | None = None) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads((HERE / "reference.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {} if result is None else {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or got != want:
                problems.append(f"{workload} trace={trace}: exit {code}, "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"unexpected {sorted(set(got) - set(want))}")
            print(f"{workload} trace={trace}: exit {code}, {len(got)} metrics")
    OUT.mkdir(exist_ok=True)
    for label, (workload, bad) in corruptions(ref).items():
        path = OUT / "reference-corrupt.json"
        path.write_text(json.dumps(bad))
        code, result = run(workload, 0, path)
        tripped = code == 1 and result is not None and result["correct"] is False
        if not tripped:
            problems.append(f"corrupted {label} did not trip the gate (exit {code})")
        print(f"corrupted {label}: exit {code}, gate {'tripped' if tripped else 'NOT tripped'}")
        path.unlink()
    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
