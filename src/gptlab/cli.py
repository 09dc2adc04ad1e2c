"""Command line interface: ``gptlab <group> <command> [options]``.

Theories are given either as JSON files (see README for the schema) or as
builtin shorthands: ``classical:N``, ``polygon:n``, ``polygon-psi:n``,
``disc:m``.  Measurements are JSON files; several commands can also
derive ideal measurements directly from the theory (``--pair``,
``--ideal-index``).  All commands print a single JSON document; bad input
exits with status 1 and one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import harness
from .compat import (
    degree_bound_closed_form,
    degree_bound_rhs,
    is_jointly_measurable,
    max_fuzz_lambda,
    min_mur_linf,
)
from .ideal import (
    binary_ideal_measurement,
    enumerate_ideal_measurements,
    indecomposable_pure_effects,
    perpendicular_ideal_pair,
    psi_transform,
)
from .measures import (
    distribution,
    error_bar_width,
    linf_distance,
    localization_error,
    min_le_sum,
    overall_width,
    werner_distance,
)
from .model import (
    BUILTIN_KINDS,
    Theory,
    builtin_theory,
    in_state_space,
    load_measurement,
    load_theory,
    make_disc_approx,
    make_polygon,
    measurement_to_dict,
    measurement_violations,
    theory_to_dict,
)
from .symmetry import (
    automorphism_group,
    averaged_inner_product,
    is_self_dual,
    is_transitive,
    maximally_mixed,
)


def resolve_theory(spec: str) -> Theory:
    if os.path.exists(spec):
        try:
            return load_theory(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"invalid theory file {spec!r}: {exc}")
    kind, _, arg = spec.partition(":")
    if arg.isdecimal() and (kind in BUILTIN_KINDS or kind == "disc"):
        try:
            return make_disc_approx(int(arg)) if kind == "disc" else builtin_theory(kind, int(arg))
        except ValueError as exc:
            raise SystemExit(f"cannot resolve theory {spec!r}: {exc}")
    raise SystemExit(f"cannot resolve theory {spec!r}: not a file or builtin shorthand")


def _load_valid_measurement(path, t):
    """The measurement in `path`; exits naming the file if it is not one of `t`."""
    try:
        m = load_measurement(path, t.ctx)
    except OSError as exc:
        raise SystemExit(f"cannot read measurement file {path!r}: {exc.strerror}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid measurement file {path!r}: {exc}")
    problems = measurement_violations(t, m)
    if problems:
        raise SystemExit(f"invalid measurement file {path!r}: " + "; ".join(problems))
    return m


def _measurement(args, t, attr):
    path = getattr(args, attr, None)
    if path is not None:
        return _load_valid_measurement(path, t)
    if getattr(args, "pair", False):
        f, g = _on_theory("--pair", t, perpendicular_ideal_pair, t)
        return f if attr in ("first", "measurement", "ideal") else g
    idx = getattr(args, "ideal_index", None)
    if idx is not None:
        k = len(_on_theory("--ideal-index", t, indecomposable_pure_effects, t))
        if not 0 <= idx < k:
            raise SystemExit(f"--ideal-index {idx} on theory {t.name!r}: not in 0..{k - 1}")
        return binary_ideal_measurement(t, idx)
    raise SystemExit(f"missing --{attr.replace('_', '-')}")


def _on_theory(what, t, call, *args):
    """``call(*args)``; a ValueError exits with one line naming `what` and theory `t`."""
    try:
        return call(*args)
    except ValueError as exc:
        raise SystemExit(f"{what} on theory {t.name!r}: {exc}")


def _pair(args, t):
    if args.pair:
        return _on_theory("--pair", t, perpendicular_ideal_pair, t)
    return _measurement(args, t, "first"), _measurement(args, t, "second")


def _emit(obj) -> None:
    # one write: json.dump would make one per encoder chunk
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n")


def _state(args, t):
    if args.state is None:
        raise SystemExit("missing --state (comma-separated coordinates)")
    need = f"--state needs {t.dim} comma-separated coordinates for theory {t.name!r}"
    try:
        omega = t.ctx.vec(args.state.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"{need}: {exc}")
    if len(omega) != t.dim:
        raise SystemExit(f"{need}, got {len(omega)}: {args.state!r}")
    if not in_state_space(t, omega):
        raise SystemExit(f"--state {args.state!r} is not a state of theory {t.name!r}")
    return omega


def cmd_theory_analyze(args) -> None:
    t = resolve_theory(args.theory)
    g = automorphism_group(t)
    transitive = is_transitive(g, t)
    out = {
        "name": t.name,
        "kind": t.kind,
        "dim": t.dim,
        "n_vertices": t.n_vertices,
        "group_order": g.order,
        "transitive": transitive,
        "self_dual": is_self_dual(t, averaged_inner_product(g, t.ctx)),
    }
    if transitive:
        out["maximally_mixed"] = [float(x) for x in maximally_mixed(t, g)]
    _emit(out)


def cmd_theory_export(args) -> None:
    t = resolve_theory(args.theory)
    _emit(theory_to_dict(t))


def cmd_measurements_list(args) -> None:
    t = resolve_theory(args.theory)
    ms = _on_theory("measurements list", t, enumerate_ideal_measurements, t, args.max_outcomes)
    _emit([measurement_to_dict(m) for m in ms])


def cmd_measure(args) -> None:
    t = resolve_theory(args.theory)
    which = args.which
    if which in ("overall-width", "localization-error"):
        m = _measurement(args, t, "measurement")
        omega = _state(args, t)
        dist = distribution(t, m, omega)
        if which == "overall-width":
            _emit({"value": float(overall_width(dist, args.epsilon, t.ctx))})
        else:
            _emit({"value": float(localization_error(dist))})
        return
    if which == "min-le-sum":
        f, g = _pair(args, t)
        res = min_le_sum(t, f, g)
        _emit({"value": float(res.value), "witness": [float(x) for x in res.argmin]})
        return
    approx = _measurement(args, t, "approx")
    ideal = _measurement(args, t, "ideal")
    if which == "error-bar":
        _emit({"value": float(error_bar_width(t, approx, ideal, args.epsilon))})
    elif which == "werner":
        _emit({"value": float(werner_distance(t, approx, ideal))})
    elif which == "linf":
        _emit({"value": float(linf_distance(t, approx, ideal))})
    else:
        raise SystemExit(f"unknown measure {which!r}")


def _joint_to_dict(j) -> dict:
    return {
        "row_labels": list(j.row_labels),
        "col_labels": list(j.col_labels),
        "effects": [[[float(x) for x in e] for e in row] for row in j.effects],
    }


def cmd_compat(args) -> None:
    t = resolve_theory(args.theory)
    f, g = _pair(args, t)
    which = args.which
    if which == "check":
        res = is_jointly_measurable(t, f, g)
        out = {"status": "compatible" if res.compatible else "incompatible"}
        if res.witness is not None:
            out["witness"] = _joint_to_dict(res.witness)
        _emit(out)
    elif which == "min-mur":
        res = min_mur_linf(t, f, g)
        _emit({"status": "optimal", "value": float(res.value), "witness": _joint_to_dict(res.joint)})
    elif which == "max-lambda":
        lam, joint = max_fuzz_lambda(t, f, g, with_joint=True)
        _emit({"status": "optimal", "value": float(lam), "witness": _joint_to_dict(joint)})
    elif which == "degree-bound":
        out = {"status": "ok", "value": float(degree_bound_rhs(t, f, g))}
        if t.kind in ("polygon", "polygon-psi") and t.n % 4 == 0:
            out["closed_form"] = degree_bound_closed_form(t.n)
        _emit(out)
    else:
        raise SystemExit(f"unknown compat command {which!r}")


def cmd_verify(args) -> None:
    which = args.which
    if args.random < 1:
        raise SystemExit(f"verify {which} needs --random >= 1, got {args.random}")
    rng = np.random.default_rng(args.seed)
    if which == "thm3":
        n = args.n
        if n < 4 or n % 2:
            raise SystemExit(f"verify thm3 needs an even --n >= 4, got {n}")
        raw = make_polygon(n)
        f, g = harness.ideal_pair_for(raw)
        hat = psi_transform(raw)
        fh, gh = map(hat.coordinates.measurement, (f, g))

        def check():
            jraw = hat.coordinates.inverse.joint(harness.random_joint(hat, fh, gh, rng))
            return harness.verify_thm3_even(n, f, g, jraw, args.mode, args.eps1, args.eps2)
    elif which == "propC":
        raw = resolve_theory(args.theory)
        t = _on_theory(f"verify {which}", raw, harness.prepare_conforming, raw)
        f, _ = harness.ideal_pair_for(t)

        def check():
            ft = harness.random_postprocessed(t, f, rng)
            return harness.verify_propc(t, ft, f, args.eps_grid)
    else:
        raw = resolve_theory(args.theory)
        t = _on_theory(f"verify {which}", raw, harness.prepare_conforming, raw)
        if args.pair or (args.first is None and args.second is None):
            f, g = harness.ideal_pair_for(t)
        else:  # the files hold effects of the named theory, mapped into t's coordinates
            f, g = map(t.coordinates.measurement, _pair(args, raw))

        def check():
            j = harness.random_joint(t, f, g, rng)
            return harness.verify_mode(which, t, f, g, j, args.eps1, args.eps2)
    reports = [check().to_dict() for _ in range(args.random)]
    _emit({"passed": all(r["passed"] for r in reports), "reports": reports})


def cmd_report_run(args) -> None:
    config = None
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise SystemExit(f"cannot read config file {args.config!r}: {exc.strerror}")
        except ValueError as exc:
            raise SystemExit(f"invalid config file {args.config!r}: {exc}")
        if not isinstance(config, dict):
            raise SystemExit(f"invalid config file {args.config!r}: not a JSON object")
    out = harness.run_report(config, out_dir=args.out, seed=args.seed)
    _emit(out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and kept for the process."""
    ap = argparse.ArgumentParser(prog="gptlab", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)

    def add_theory(p):
        p.add_argument("--theory", required=True, help="theory file or builtin shorthand")

    def add_pair(p):
        p.add_argument("--first", help="measurement JSON file")
        p.add_argument("--second", help="measurement JSON file")
        p.add_argument("--pair", action="store_true",
                       help="use the perpendicular ideal pair of a 4k-gon")

    th = sub.add_parser("theory", help="inspect theories").add_subparsers(dest="cmd", required=True)
    pa = th.add_parser("analyze", help="group order, transitivity, self-duality as JSON")
    add_theory(pa)
    pa.set_defaults(func=cmd_theory_analyze)
    pe = th.add_parser("export", help="dump the theory JSON document")
    add_theory(pe)
    pe.set_defaults(func=cmd_theory_export)

    me = sub.add_parser("measurements", help="measurement catalogues").add_subparsers(dest="cmd", required=True)
    ml = me.add_parser("list", help="enumerate ideal measurements")
    add_theory(ml)
    ml.add_argument("--max-outcomes", type=int, default=2)
    ml.set_defaults(func=cmd_measurements_list)

    ms = sub.add_parser("measure", help="evaluate one width/error measure")
    ms.add_argument("which", choices=["overall-width", "localization-error", "error-bar",
                                      "werner", "linf", "min-le-sum"])
    add_theory(ms)
    ms.add_argument("--measurement", help="measurement JSON file")
    ms.add_argument("--approx", help="approximating measurement JSON file")
    ms.add_argument("--ideal", help="ideal measurement JSON file")
    ms.add_argument("--ideal-index", type=int, help="binary ideal measurement by pure-effect index")
    add_pair(ms)
    ms.add_argument("--state", help="comma-separated state coordinates")
    ms.add_argument("--epsilon", type=float, default=0.1)
    ms.set_defaults(func=cmd_measure)

    co = sub.add_parser("compat", help="joint measurability and bounds")
    co.add_argument("which", choices=["check", "min-mur", "max-lambda", "degree-bound"])
    add_theory(co)
    add_pair(co)
    co.set_defaults(func=cmd_compat)

    ve = sub.add_parser("verify", help="run theorem checks on random joints")
    ve.add_argument("which", choices=["thm1", "cor1", "thm2", "thm3", "propC"])
    ve.add_argument("--theory", help="theory file or builtin shorthand")
    add_pair(ve)
    ve.add_argument("--n", type=int, default=4, help="even polygon side count (>= 4) for thm3")
    ve.add_argument("--mode", choices=["thm1", "cor1", "thm2"], default="thm2",
                    help="which statement thm3 delegates to")
    ve.add_argument("--eps1", type=float, default=0.2)
    ve.add_argument("--eps2", type=float, default=0.2)
    ve.add_argument("--eps-grid", type=float, nargs="+",
                    default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    ve.add_argument("--random", type=int, default=5, help="number of random joints")
    ve.add_argument("--seed", type=int, default=0)
    ve.set_defaults(func=cmd_verify)

    rp = sub.add_parser("report", help="batch batteries").add_subparsers(dest="cmd", required=True)
    rr = rp.add_parser("run", help="run the configured battery and write files")
    rr.add_argument("--config", help="battery config JSON")
    rr.add_argument("--seed", type=int, default=0)
    rr.add_argument("--out", default="report")
    rr.set_defaults(func=cmd_report_run)
    return ap


def main(argv=None) -> int:
    """Run one command.  Bad input (a ValueError or OSError from the command)
    exits with one line, ``<group> <command>: <message>``; any other error,
    such as a RuntimeError from an LP that ends wrongly, is a fault and keeps
    its traceback."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        command = getattr(args, "which", None) or args.cmd
        raise SystemExit(f"{args.group} {command}: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
