"""Command line front end.

Subcommands:
  plan      evaluate the design pipeline for a (rate, outage) target
  simulate  Monte Carlo outage estimation for a saved plan
  verify    moment / bound / inequality spot checks
  sweep     plan over a one-parameter grid

All configuration is flags-only; every structured output embeds a manifest
echoing the exact invocation for reproducibility.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import platform
import sys

import numpy as np

from . import __version__
from .geometry import NetworkConfig
from . import planner
from . import montecarlo
from . import moments


def _manifest(command: str, args: argparse.Namespace, outputs: list[str]) -> dict:
    return {
        "command": command,
        "parameters": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "format_version": planner.FORMAT_VERSION,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


def _build_config(args, p: planner.Plan | None = None,
                  lambda_l: float | None = None,
                  lambda_e: float | None = None) -> NetworkConfig:
    lam_l = lambda_l if lambda_l is not None else (p.lambda_l_min if p else 1.0)
    lam_e = lambda_e if lambda_e is not None else (p.lambda_e_max if p else 0.0)
    n_legit = args.nlegit
    if n_legit is None:
        # default extent: square comfortably containing the protected disc
        # and the receiver
        reach = max(p.a_e if p else 0.0, args.dtr)
        side = 2.2 * reach
        n_legit = max(1, math.ceil(lam_l * side * side))
    return NetworkConfig(p_t=args.power, mu=args.mu, gamma=args.gamma,
                         d_tr=args.dtr, lambda_l=lam_l, lambda_e=lam_e,
                         n_legit=n_legit)


def _planning_inputs(args):
    target = planner.SecrecyTarget(secure_rate=args.rate, outage=args.outage,
                                   rho=args.rho, kappa=args.kappa)
    # planning reads only the physical constants; densities are attached after
    probe = NetworkConfig(p_t=args.power, mu=args.mu, gamma=args.gamma,
                          d_tr=args.dtr, lambda_l=1.0, lambda_e=0.0, n_legit=1)
    return probe, target


def _print_validation(checks) -> bool:
    all_ok = True
    for c in checks:
        status = "ok" if c.satisfied else "VIOLATED"
        print(f"  {c.name:26s} {status:8s} margin={c.margin:.6g}")
        all_ok &= c.satisfied
    return all_ok


def cmd_plan(args) -> int:
    probe, target = _planning_inputs(args)
    try:
        p = planner.plan(probe, target)
    except planner.InfeasiblePlanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    cfg = _build_config(args, p)
    print(f"mode={p.mode}  n_r={p.n_r}  a_l={p.a_l:.6g}  a_e={p.a_e:.6g}")
    print(f"lambda_l_min={p.lambda_l_min:.6g}  lambda_e_max={p.lambda_e_max:.6g}  "
          f"n_e_max={p.n_e_max}  eta={p.eta:.6g}  nu={p.nu:.6g}")
    ok = _print_validation(planner.validate_plan(cfg, target, p))
    if args.out:
        planner.save_plan(args.out, cfg, target, p,
                          extra={"manifest": _manifest("plan", args, [args.out])})
        print(f"wrote {args.out}")
    return 0 if ok else 2


def _load_checked_plan(path):
    """Load a plan file and rerun validate_plan on it.

    Returns (cfg, target, plan), or None after printing why the file is
    unusable: unreadable, malformed, or violating a design constraint.
    """
    try:
        cfg, target, p = planner.load_plan(path)
        checks = planner.validate_plan(cfg, target, p)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"cannot load plan: {exc}", file=sys.stderr)
        return None
    violated = [c for c in checks if not c.satisfied]
    for c in violated:
        print(f"plan violates {c.name}: margin={c.margin:.6g}", file=sys.stderr)
    return None if violated else (cfg, target, p)


def cmd_simulate(args) -> int:
    loaded = _load_checked_plan(args.plan)
    if loaded is None:
        return 2
    cfg, target, p = loaded
    if 2.0 * p.a_l > cfg.side:
        print(f"cannot simulate: the relay disc (diameter {2.0 * p.a_l:.6g}) "
              f"does not fit inside the network square (side {cfg.side:.6g})",
              file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        collect = None
        if args.csv:
            try:
                fh = stack.enter_context(open(args.csv, "w", newline=""))
            except OSError as exc:
                print(f"cannot write {args.csv}: {exc}", file=sys.stderr)
                return 2
            collect = montecarlo.csv_row_writer(fh)
        report = montecarlo.estimate_outage(p, cfg, target, args.trials,
                                            args.seed, collect=collect)
    doc = report.to_dict()
    doc["manifest"] = _manifest("simulate", args,
                                [x for x in (args.csv, args.json) if x])
    doc["manifest"]["versions"] = {"python": platform.python_version(),
                                   "numpy": np.__version__,
                                   "secbeam": __version__}
    doc["manifest"]["stream_version"] = montecarlo.STREAM_VERSION
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    for name, ev in report.event_outage.items():
        print(f"  {name}: outage={ev.outage:.4f}  ci=[{ev.ci_low:.4f}, {ev.ci_high:.4f}]")
    c = report.composite
    print(f"  composite: outage={c.outage:.4f}  ci=[{c.ci_low:.4f}, {c.ci_high:.4f}]")
    print(f"  mean P_l={report.mean_p_l:.6g}  mean max P_e={report.mean_max_p_e:.6g}  "
          f"mean total relay power={report.mean_total_relay_power:.6g}")
    return 0


def cmd_verify(args) -> int:
    failures = []
    if args.what == "moments":
        checks = montecarlo.verify_moments(args.mu, args.nr, args.samples, args.seed)
        for c in checks:
            z = c.z_score
            line = (f"  {c.name:10s} closed={c.closed_form:.6g} "
                    f"estimate={c.estimate:.6g} z={z:+.2f}")
            print(line)
            if abs(z) >= 5.0:
                failures.append(f"{c.name} z={z:+.2f}")
    elif args.what == "theorem4":
        loaded = _load_checked_plan(args.plan)
        if loaded is None:
            return 2
        cfg, _target, p = loaded
        checks = montecarlo.verify_power_bounds(p, cfg, args.samples, args.seed)
        for c in checks:
            status = "ok" if c.respected else "VIOLATED"
            print(f"  {c.name:16s} bound={c.bound:.6g} estimate={c.estimate:.6g} {status}")
            if not c.respected:
                failures.append(c.name)
    elif args.what == "lemmas":
        rng = np.random.default_rng(args.seed)
        per_instance = max(2, args.samples // max(args.instances, 1))
        for i in range(args.instances):
            dist = moments.random_distribution(rng)
            gap = moments.third_moment_gap(dist)
            if gap < -1e-12:
                failures.append(f"third-moment gap {gap} < 0 (instance {i})")
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(a + 0.05, 2.0)
            chk = moments.weighted_variance_check(a, b, dist, per_instance, rng)
            if chk.var_lhs >= chk.var_rhs + 5.0 * chk.se_diff:
                failures.append(f"variance cap violated at instance {i}")
        print(f"  {args.instances} instances checked, {len(failures)} failures")
    for f in failures:
        print(f"  FAIL {f}", file=sys.stderr)
    return 0 if not failures else 1


SWEEPABLE = ["rate", "outage", "power", "mu", "gamma", "dtr", "lambda_l"]


def _parse_range(text: str, log: bool):
    lo, hi, steps = text.split(":")
    lo, hi, steps = float(lo), float(hi), int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps == 1:
        return [lo]
    if log:
        return list(np.geomspace(lo, hi, steps))
    return list(np.linspace(lo, hi, steps))


def cmd_sweep(args) -> int:
    swept = [name for name in SWEEPABLE
             if isinstance(getattr(args, name), str) and ":" in getattr(args, name)]
    if len(swept) != 1:
        print("exactly one flag must carry a lo:hi:steps range", file=sys.stderr)
        return 2
    name = swept[0]
    try:
        grid = _parse_range(getattr(args, name), args.log)
    except ValueError as exc:
        print(f"bad range: {exc}", file=sys.stderr)
        return 2

    header = [name, "feasible", "mode", "n_r", "a_l", "a_e", "lambda_l_min",
              "lambda_e_max", "n_e_max", "eta", "nu"]
    rows = []
    for value in grid:
        ns = argparse.Namespace(**vars(args))
        setattr(ns, name, value)
        for attr in SWEEPABLE:
            v = getattr(ns, attr)
            if isinstance(v, str):
                setattr(ns, attr, float(v))
        probe, target = _planning_inputs(ns)
        try:
            p = planner.plan(probe, target)
        except planner.InfeasiblePlanError as exc:
            rows.append([repr(value), "no", exc.constraint] + [""] * 8)
            continue
        feasible = "yes"
        if name == "lambda_l" and ns.lambda_l < p.lambda_l_min:
            feasible = "no"
        rows.append([repr(value), feasible, p.mode, p.n_r, repr(p.a_l),
                     repr(p.a_e), repr(p.lambda_l_min), repr(p.lambda_e_max),
                     p.n_e_max, repr(p.eta), repr(p.nu)])
    import csv as _csv
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = _csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
            print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _positive(kind):
    def convert(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return convert


def _outage(text):
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"outage must be in (0, 1), got {text}")
    return value


def _add_target_flags(sub, sweep: bool = False):
    num = str if sweep else _positive(float)
    out = str if sweep else _outage
    sub.add_argument("--rate", required=True, type=num,
                     help="target secure rate, bits/use")
    sub.add_argument("--outage", required=True, type=out,
                     help="target outage level in (0, 1)")
    sub.add_argument("--rho", type=_positive(float), default=1.0)
    sub.add_argument("--kappa", type=_positive(float), default=1.0)
    sub.add_argument("--power", type=num if sweep else _positive(float), default=1.0)
    sub.add_argument("--mu", type=num if sweep else _positive(float), default=0.5)
    sub.add_argument("--gamma", type=num if sweep else _positive(float), default=2.0)
    sub.add_argument("--dtr", type=num if sweep else _positive(float), default=5.0)
    sub.add_argument("--nlegit", type=_positive(int), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secbeam",
        description="Plan and verify secure two-stage relay beamforming in "
                    "Poisson wireless networks.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("plan", help="evaluate the design pipeline")
    _add_target_flags(sp)
    sp.add_argument("--out", default=None, help="write the plan JSON here")
    sp.set_defaults(func=cmd_plan)

    ss = subs.add_parser("simulate", help="Monte Carlo outage estimation")
    ss.add_argument("--plan", required=True)
    ss.add_argument("--trials", required=True, type=_positive(int))
    ss.add_argument("--seed", type=int, default=0)
    ss.add_argument("--csv", default=None, help="per-trial CSV path")
    ss.add_argument("--json", default=None, help="summary JSON path")
    ss.set_defaults(func=cmd_simulate)

    sv = subs.add_parser("verify", help="moment / bound spot checks")
    sv.add_argument("what", choices=["moments", "theorem4", "lemmas"])
    sv.add_argument("--mu", type=_positive(float), default=0.5)
    sv.add_argument("--nr", type=_positive(int), default=1)
    sv.add_argument("--samples", type=_positive(int), default=100_000)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--plan", default=None, help="plan JSON (theorem4 only)")
    sv.add_argument("--instances", type=_positive(int), default=200,
                    help="random instances (lemmas only)")
    sv.set_defaults(func=cmd_verify)

    sw = subs.add_parser("sweep", help="plan over a one-parameter grid")
    _add_target_flags(sw, sweep=True)
    sw.add_argument("--lambda-l", dest="lambda_l", default=None,
                    help="legitimate density (sweepable)")
    sw.add_argument("--log", action="store_true", help="geometric grid spacing")
    sw.add_argument("--out", default=None, help="CSV output path")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.what == "theorem4" and not args.plan:
        parser.error("verify theorem4 requires --plan")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
