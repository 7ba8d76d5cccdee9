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
import csv
import datetime
import functools
import json
import math
import os
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
        "parameters": dict(sorted(vars(args).items())),
        "format_version": planner.FORMAT_VERSION,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


def _build_config(args, p: planner.Plan) -> NetworkConfig:
    """The plan's network; InfeasiblePlanError when its default extent
    holds more legitimate nodes than the float range."""
    n_legit = args.nlegit
    if n_legit is None:
        # default extent: square comfortably containing the protected disc
        # and the receiver
        side = 2.2 * max(p.a_e, args.dtr)
        try:
            n_legit = max(1, math.ceil(p.lambda_l_min * side * side))
        except OverflowError:
            raise planner.InfeasiblePlanError(
                "network_extent", f"lambda_l_min={p.lambda_l_min} over a "
                f"square of side {side} leaves the float range") from None
    return NetworkConfig(p_t=args.power, mu=args.mu, gamma=args.gamma,
                         d_tr=args.dtr, lambda_l=p.lambda_l_min,
                         lambda_e=p.lambda_e_max, n_legit=n_legit)


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


def _open_outputs(stack: contextlib.ExitStack, paths):
    """Open every requested output path (None: not requested) on ``stack``
    before any work, so a bad path costs no run.  Returns the files (None
    for the unrequested), or None after printing why one cannot be
    written."""
    try:
        return [stack.enter_context(planner.open_output(path)) if path else None
                for path in paths]
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc}", file=sys.stderr)
        return None


def cmd_plan(args) -> int:
    # the output opens before planning; a file it created is removed again
    # when the target is infeasible, and an existing one is left as it was
    created = bool(args.out) and not os.path.lexists(args.out)
    with contextlib.ExitStack() as stack:
        opened = _open_outputs(stack, [args.out])
        if opened is None:
            return 2
        out_fh, = opened
        probe, target = _planning_inputs(args)
        try:
            p = planner.plan(probe, target)
            cfg = _build_config(args, p)
        except planner.InfeasiblePlanError as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            if created:
                os.remove(args.out)
            return 2
        # the plan is written before anything is printed, so a reader that
        # closes stdout early (``| head -1``) cannot leave the file empty
        if out_fh:
            planner.write_plan(out_fh, cfg, target, p,
                               extra={"manifest": _manifest("plan", args, [args.out])})
    print(f"mode={p.mode}  n_r={p.n_r}  a_l={p.a_l:.6g}  a_e={p.a_e:.6g}")
    print(f"lambda_l_min={p.lambda_l_min:.6g}  lambda_e_max={p.lambda_e_max:.6g}  "
          f"n_e_max={p.n_e_max}  eta={p.eta:.6g}  nu={p.nu:.6g}")
    ok = _print_validation(planner.validate_plan(cfg, target, p))
    if args.out:
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
    if p.mode != "beamforming":
        print("cannot simulate a direct-mode plan: the receiver is within "
              "2*a_l of the transmitter, so no relay beamforms",
              file=sys.stderr)
        return 2
    if 2.0 * p.a_l > cfg.side:
        print(f"cannot simulate: the relay disc (diameter {2.0 * p.a_l:.6g}) "
              f"does not fit inside the network square (side {cfg.side:.6g})",
              file=sys.stderr)
        return 2
    mean_bl, mean_e = montecarlo.expected_counts(p, cfg)
    if not (mean_bl <= montecarlo.POISSON_MEAN_MAX
            and mean_e <= montecarlo.POISSON_MEAN_MAX):  # NaN fails too
        print(f"cannot simulate: a trial expects {mean_bl:.6g} nodes in the "
              f"relay disc and {mean_e:.6g} eavesdroppers, and a Poisson "
              f"count takes means up to {montecarlo.POISSON_MEAN_MAX:.6g}",
              file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        opened = _open_outputs(stack, [args.csv, args.json])
        if opened is None:
            return 2
        csv_fh, json_fh = opened
        collect = montecarlo.csv_row_writer(csv_fh) if csv_fh else None
        try:
            report = montecarlo.estimate_outage(p, cfg, target, args.trials,
                                                args.seed, collect=collect)
        except MemoryError as exc:
            # a trial holds one kernel buffer whatever n_r, but its
            # eavesdropper arrays grow with the count; the CSV keeps the
            # trials that finished, without an old tail
            planner.cut_tail(csv_fh)
            print(f"cannot simulate n_r={p.n_r} relays: {exc}", file=sys.stderr)
            return 2
        planner.cut_tail(csv_fh)
        doc = report.to_dict()
        doc["manifest"] = _manifest("simulate", args,
                                    [x for x in (args.csv, args.json) if x])
        doc["manifest"]["versions"] = {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "secbeam": __version__}
        doc["manifest"]["stream_version"] = montecarlo.STREAM_VERSION
        if json_fh:
            json.dump(doc, json_fh, indent=2)
            json_fh.write("\n")
            planner.cut_tail(json_fh)
    for name, ev in report.event_outage.items():
        print(f"  {name}: outage={ev.outage:.4f}  ci=[{ev.ci_low:.4f}, {ev.ci_high:.4f}]")
    print(f"  E6 given the relay field: outage={report.e6_outage_given_field:.4f}  "
          f"se={report.e6_outage_given_field_se:.4f}")
    c = report.composite
    print(f"  composite: outage={c.outage:.4f}  ci=[{c.ci_low:.4f}, {c.ci_high:.4f}]")
    print(f"  mean P_l={report.mean_p_l:.6g}  mean max P_e={report.mean_max_p_e:.6g}  "
          f"mean total relay power={report.mean_total_relay_power:.6g}")
    return 0


def cmd_verify(args) -> int:
    if args.what in ("moments", "theorem4") and args.samples < 2:
        print(f"verify {args.what} needs --samples >= 2 for a sample "
              f"variance, got {args.samples}", file=sys.stderr)
        return 2
    try:
        failures = _verify(args)
    except MemoryError as exc:
        # moments and theorem4 hold one chunk or batch of samples whatever
        # --samples; lemmas holds --samples / --instances per instance
        print(f"cannot verify {args.what} with {args.samples} samples: {exc}",
              file=sys.stderr)
        return 2
    if failures is None:
        return 2
    for f in failures:
        print(f"  FAIL {f}", file=sys.stderr)
    return 0 if not failures else 1


def _verify(args):
    """Run the checks of ``verify``; returns the failure lines, or None
    after printing why the plan cannot be used."""
    failures = []
    if args.what == "moments":
        checks = montecarlo.verify_moments(args.mu, args.nr, args.samples, args.seed)
        for c in checks:
            z = c.z_score
            line = (f"  {c.name:10s} closed={c.closed_form:.6g} "
                    f"estimate={c.estimate:.6g} z={z:+.2f}")
            print(line)
            if not abs(z) < 5.0:  # a NaN z-score fails too
                failures.append(f"{c.name} z={z:+.2f}")
    elif args.what == "theorem4":
        loaded = _load_checked_plan(args.plan)
        if loaded is None:
            return None
        cfg, _target, p = loaded
        if p.mode != "beamforming":
            print("cannot verify theorem4 on a direct-mode plan: the receiver "
                  "is within 2*a_l of the transmitter, so no relay beamforms",
                  file=sys.stderr)
            return None
        checks = montecarlo.verify_power_bounds(p, cfg, args.samples, args.seed)
        for c in checks:
            ok = c.margin_se > -5.0  # broken beyond 5 SE, one-sided; NaN fails
            status = "ok" if ok else "VIOLATED"
            print(f"  {c.name:16s} bound={c.bound:.6g} estimate={c.estimate:.6g} {status}")
            if not ok:
                failures.append(f"{c.name} margin={c.margin_se:+.2f} SE")
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
    return failures


SWEEPABLE = ["rate", "outage", "power", "mu", "gamma", "dtr", "lambda_l"]


#: grid values computed at a time by ``_grid``
GRID_BLOCK = 4096


def _parse_range(text: str, log: bool):
    """The grid of a ``lo:hi:steps`` range (see ``_grid``); raises
    ValueError for a malformed one."""
    lo, hi, steps = text.split(":")
    lo, hi, steps = float(lo), float(hi), int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if log and (lo == 0 or hi == 0):
        raise ValueError("Geometric sequence cannot include zero")
    return _grid(lo, hi, steps, log)


def _grid(lo: float, hi: float, steps: int, log: bool):
    """Yield the values of np.linspace(lo, hi, steps), or of
    np.geomspace(lo, hi, steps) with ``log`` (lo only when steps is 1),
    computed as numpy computes them but GRID_BLOCK at a time, so that no
    grid array is built: i*step + start, endpoints exact, and for
    geomspace 10**(that) between log10(|lo|) and log10(hi/sign(lo))."""
    if steps == 1:
        yield lo
        return
    if log:
        sign = np.sign(np.float64(lo))
        start, stop = np.log10(lo / sign), np.log10(hi / sign)
    else:
        start, stop = np.float64(lo), np.float64(hi)
    div = steps - 1
    step = (stop - start) / div
    for first in range(0, steps, GRID_BLOCK):
        y = np.arange(first, min(first + GRID_BLOCK, steps), dtype=float)
        if step == 0:  # denormal steps, as np.linspace
            y /= div
            y *= stop - start
        else:
            y *= step
        y += start
        if first + len(y) == steps:
            y[-1] = stop
        if log:
            y = np.power(10.0, y)
            if first == 0:
                y[0] = lo / sign
            if first + len(y) == steps:
                y[-1] = hi / sign
            y *= sign
        yield from y


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
    with contextlib.ExitStack() as stack:
        opened = _open_outputs(stack, [args.out])
        if opened is None:
            return 2
        writer = csv.writer(opened[0] or sys.stdout)
        writer.writerow(header)
        n_rows = 0
        for value in grid:
            writer.writerow(_sweep_row(args, name, value))
            n_rows += 1
        planner.cut_tail(opened[0])
    if args.out:
        print(f"wrote {args.out} ({n_rows} rows)")
    return 0


def _sweep_row(args, name: str, value: float) -> list:
    ns = argparse.Namespace(**vars(args))
    # a Python float, as from the command line: a numpy grid value would
    # carry numpy arithmetic into the planner, where n_r > nr_bound then
    # compares an n_r above 2**53 as a float
    setattr(ns, name, float(value))
    for attr in SWEEPABLE:
        v = getattr(ns, attr)
        if isinstance(v, str):
            setattr(ns, attr, float(v))
    probe, target = _planning_inputs(ns)
    try:
        p = planner.plan(probe, target)
    except planner.InfeasiblePlanError as exc:
        return [_cell(value), "no", exc.constraint] + [""] * 8
    feasible = "yes"
    if name == "lambda_l" and ns.lambda_l < p.lambda_l_min:
        feasible = "no"
    return [_cell(value), feasible, p.mode, p.n_r, _cell(p.a_l), _cell(p.a_e),
            _cell(p.lambda_l_min), _cell(p.lambda_e_max), p.n_e_max,
            _cell(p.eta), _cell(p.nu)]


def _cell(x) -> str:
    """A float CSV cell that round-trips: repr of a plain float, never a
    numpy scalar's repr such as ``np.float64(0.25)``."""
    return repr(float(x))


def _positive(kind):
    def convert(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return convert


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


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

    ss = subs.add_parser("simulate", help="Monte Carlo outage estimation")
    ss.add_argument("--plan", required=True)
    ss.add_argument("--trials", required=True, type=_positive(int))
    ss.add_argument("--seed", type=_non_negative, default=0)
    ss.add_argument("--csv", default=None, help="per-trial CSV path")
    ss.add_argument("--json", default=None, help="summary JSON path")

    sv = subs.add_parser("verify", help="moment / bound spot checks")
    sv.add_argument("what", choices=["moments", "theorem4", "lemmas"])
    sv.add_argument("--mu", type=_positive(float), default=0.5)
    sv.add_argument("--nr", type=_positive(int), default=1)
    sv.add_argument("--samples", type=_positive(int), default=100_000)
    sv.add_argument("--seed", type=_non_negative, default=0)
    sv.add_argument("--plan", default=None, help="plan JSON (theorem4 only)")
    sv.add_argument("--instances", type=_positive(int), default=200,
                    help="random instances (lemmas only)")

    sw = subs.add_parser("sweep", help="plan over a one-parameter grid")
    _add_target_flags(sw, sweep=True)
    sw.add_argument("--lambda-l", dest="lambda_l", default=None,
                    help="legitimate density (sweepable)")
    sw.add_argument("--log", action="store_true", help="geometric grid spacing")
    sw.add_argument("--out", default=None, help="CSV output path")
    return parser


#: the parser of ``main``, built once per process on first use
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.what == "theorem4" and not args.plan:
        parser.error("verify theorem4 requires --plan")
    try:
        # looked up by name at each call, so a wrapper swapped in for a
        # cmd_* function after the parser was built is the one that runs
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send what is left to
        # devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
