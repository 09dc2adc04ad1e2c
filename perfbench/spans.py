"""Outside-in span tracing of gptlab's public functions.

The library is not edited: each listed function is replaced, at every
``gptlab`` module namespace that binds it, by a wrapper that records a
span (name, start, end, parent span, op id).  Spans live in flat arrays
while the workload runs and are written out once, when the run ends.

A function's self time is its span's duration minus the time covered by
its child spans.  The process is single-threaded and children nest inside
their parent, so the covered time is the sum of the children's
durations.  Pivot counts and phase-1 artificials live inside ``linprog``
and are not visible from outside.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# module -> public functions timed per layer (``Class.method`` for methods)
LAYERS = {
    "scalars": ["InnerProduct.pair", "inverse", "rank"],
    "linprog": ["lp_solve", "lp_feasible"],
    "cones": ["dual_cone", "cone_member", "cones_equal"],
    "model": ["effect_eval", "in_state_space", "validate_theory", "theory_from_dict"],
    "symmetry": ["automorphism_group", "averaged_inner_product", "canonicalize", "is_self_dual"],
    "ideal": ["enumerate_ideal_measurements", "fuzzify", "psi_transform", "psi_map_effect"],
    "measures": ["werner_distance", "error_bar_width", "distribution", "overall_width",
                 "linf_distance", "min_le_sum"],
    "compat": ["max_fuzz_lambda", "min_mur_linf", "is_jointly_measurable",
               "joint_violations", "marginals"],
    "harness": ["verify_thm1", "verify_cor1", "verify_thm2", "verify_thm3_even",
                "verify_propc", "random_joint"],
    "cli": ["main"],
}
# modules whose functions also report how many calls raised
ERROR_LAYERS = ("linprog", "compat")
OP = "op"  # name of the root span the benchmark opens around each op


def metric_specs() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "1/op"))
            out.append((f"{mod}.{fn}.self_s", "s/op"))
            if mod in ERROR_LAYERS:
                out.append((f"{mod}.{fn}.errors", "1/op"))
    out += [
        ("linprog.lp_cells", "cells/op"),
        ("model.in_state_space.member_frac", "frac"),
        ("measures.werner_distance.lps_per_call", "1/call"),
        ("harness.membership_per_check", "1/check"),
    ]
    return out


class Tracer:
    """Span recorder; `install` wraps the library, `uninstall` restores it."""

    def __init__(self):
        self.names = [OP] + [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_ids = array("i")
        self.failed = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.lp_cells = 0
        self.member_true = 0
        self.active = False  # record only inside an op, not in answer checks
        self._restore = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_ids.append(name_id)
        self.parent.append(self.stack[-1])
        self.op_ids.append(self.op_id)
        self.end.append(0.0)
        self.failed.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int, failed: bool) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        if failed:
            self.failed[idx] = 1

    def run_op(self, fn):
        """Call one benchmark op inside a root span."""
        self.op_id += 1
        idx = self._enter(0)
        self.active = True
        failed = True
        try:
            out = fn()
            failed = False
        finally:
            self.active = False
            self._exit(idx, failed)
        return out

    def _wrap(self, name: str, fn):
        name_id = self.name_id[name]
        enter, exit_ = self._enter, self._exit
        count_cells = name in ("linprog.lp_solve", "linprog.lp_feasible")
        count_true = name == "model.in_state_space"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_cells:  # rows x vars of the LinearProgram argument
                self.lp_cells += len(args[0].constraints) * args[0].n_vars
            idx = enter(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                exit_(idx, True)
                raise
            exit_(idx, False)
            if count_true and out:
                self.member_true += 1
            return out

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function at every gptlab namespace binding it."""
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == "gptlab" or k.startswith("gptlab."))}
        for mod, fns in LAYERS.items():
            home = modules[f"gptlab.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, orig, self._wrap(name, orig))
                    continue
                orig = getattr(home, fn)
                wrapper = self._wrap(name, orig)
                for m in modules.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, orig, wrapper)

    def _set(self, owner, attr, orig, new) -> None:
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_ids, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def _self_times(self, a: dict) -> np.ndarray:
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        return dur - covered

    def layer_metrics(self) -> dict:
        """Per-layer values: counts and self seconds per op, plus ratios."""
        a = self.arrays()
        nid, parent, failed = a["name_id"], a["parent"], a["failed"]
        has_parent = parent >= 0
        self_s = self._self_times(a)
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        self_tot = np.bincount(nid, weights=self_s, minlength=n_names)
        errors = np.bincount(nid, weights=failed, minlength=n_names)
        n_ops = max(int(calls[0]), 1)

        out = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                i = self.name_id[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.calls"] = calls[i] / n_ops
                out[f"{mod}.{fn}.self_s"] = self_tot[i] / n_ops
                if mod in ERROR_LAYERS:
                    out[f"{mod}.{fn}.errors"] = errors[i] / n_ops
        out["linprog.lp_cells"] = self.lp_cells / n_ops

        member = calls[self.name_id["model.in_state_space"]]
        out["model.in_state_space.member_frac"] = self.member_true / member if member else 0.0

        werner = self.name_id["measures.werner_distance"]
        lp = self.name_id["linprog.lp_solve"]
        n_werner = calls[werner]
        lps_in_werner = int(np.count_nonzero(
            (nid == lp) & has_parent & (nid[np.maximum(parent, 0)] == werner)))
        out["measures.werner_distance.lps_per_call"] = (
            lps_in_werner / n_werner if n_werner else 0.0)

        # membership tests made under a verifier, per outermost verifier call
        verify = np.isin(nid, [self.name_id[f"harness.{fn}"] for fn in LAYERS["harness"]
                               if fn.startswith("verify_")])
        verify_l, parent_l = verify.tolist(), parent.tolist()
        under_l = [False] * len(parent_l)
        for i, p in enumerate(parent_l):  # parents precede their children
            if p >= 0:
                under_l[i] = verify_l[p] or under_l[p]
        under = np.array(under_l, dtype=bool)
        member_id = self.name_id["model.in_state_space"]
        checks = int(np.count_nonzero(verify & ~under))
        member_in_checks = int(np.count_nonzero((nid == member_id) & under))
        out["harness.membership_per_check"] = member_in_checks / checks if checks else 0.0
        return {k: float(v) for k, v in out.items()}

    def top_self(self, k: int = 5) -> list:
        """The k names with the largest total self time, with their share."""
        a = self.arrays()
        tot = np.bincount(a["name_id"], weights=self._self_times(a), minlength=len(self.names))
        total = tot.sum() or 1.0
        order = np.argsort(-tot)[:k]
        return [(self.names[i], float(tot[i] / total)) for i in order]
