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
import os
import platform
import sys

import numpy as np

from . import __version__
from .geometry import NetworkConfig
from . import planner
from . import montecarlo
from . import moments


class Refusal(Exception):
    """A command refuses its input; carries the one line ``main`` prints to
    stderr before it exits 2."""


def _manifest(command: str, args: argparse.Namespace, outputs: list[str]) -> dict:
    return {
        "command": command,
        "parameters": dict(sorted(vars(args).items())),
        "format_version": planner.FORMAT_VERSION,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


def _planning_inputs(args):
    """The physical constants and target of ``args``.  Every physics flag
    takes its domain from NetworkConfig or SecrecyTarget alone: Refusal
    when one lies outside it."""
    # planning reads only the physical constants; densities are attached
    # after, but sweep's --lambda-l is checked as NetworkConfig checks it
    lambda_l = getattr(args, "lambda_l", None)
    try:
        target = planner.SecrecyTarget(secure_rate=args.rate, outage=args.outage,
                                       rho=args.rho, kappa=args.kappa)
        probe = NetworkConfig(p_t=args.power, mu=args.mu, gamma=args.gamma,
                              d_tr=args.dtr, n_legit=1, lambda_e=0.0,
                              lambda_l=1.0 if lambda_l is None else lambda_l)
    except ValueError as exc:
        raise Refusal(f"bad input: {exc}") from None
    return probe, target


def _open_outputs(stack: contextlib.ExitStack, paths):
    """Open every requested output path (None: not requested) on ``stack``
    before any work, so a bad path costs no run.  Returns the files (None
    for the unrequested); Refusal when one cannot be written."""
    try:
        return [stack.enter_context(planner.open_output(path)) if path else None
                for path in paths]
    except OSError as exc:
        raise Refusal(f"cannot write {exc.filename}: {exc}") from None


def cmd_plan(args) -> int:
    probe, target = _planning_inputs(args)
    try:
        p = planner.plan(probe, target)
        cfg = planner.network(probe, p, args.nlegit)
    except planner.InfeasiblePlanError as exc:
        raise Refusal(f"infeasible: {exc}") from None
    with contextlib.ExitStack() as stack:
        out_fh, = _open_outputs(stack, [args.out])
        # the plan is written before anything is printed, so a reader that
        # closes stdout early (``| head -1``) cannot leave the file empty
        if out_fh:
            planner.write_plan(out_fh, cfg, target, p,
                               extra={"manifest": _manifest("plan", args, [args.out])})
    fields = vars(p)
    print("mode={mode}  n_r={n_r}  a_l={a_l:.6g}  a_e={a_e:.6g}".format_map(fields))
    print("lambda_l_min={lambda_l_min:.6g}  lambda_e_max={lambda_e_max:.6g}  "
          "n_e_max={n_e_max}  eta={eta:.6g}  nu={nu:.6g}".format_map(fields))
    # plan() refuses a target whose plan fails any of these checks
    for c in planner.validate_plan(cfg, target, p):
        print(f"  {c.name:26s} {'ok':8s} margin={c.margin:.6g}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _load_checked_plan(path):
    """Load a plan file and rerun validate_plan on it; returns (cfg,
    target, plan).  Refusal when the file is unreadable, malformed or
    violates a design constraint."""
    try:
        cfg, target, p = planner.load_plan(path)
        checks = planner.validate_plan(cfg, target, p)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        raise Refusal(f"cannot load plan: {exc}") from None
    violated = [f"{c.name}: margin={c.margin:.6g}" for c in checks if not c.satisfied]
    if violated:
        raise Refusal("plan violates " + ", ".join(violated))
    return cfg, target, p


def cmd_simulate(args) -> int:
    cfg, target, p = _load_checked_plan(args.plan)
    try:
        montecarlo.check_runnable(p, cfg)
    except ValueError as exc:
        raise Refusal(f"cannot simulate: {exc}") from None
    with contextlib.ExitStack() as stack:
        csv_fh, json_fh = _open_outputs(stack, [args.csv, args.json])
        collect = montecarlo.csv_row_writer(csv_fh) if csv_fh else None
        try:
            report = montecarlo.estimate_outage(p, cfg, target, args.trials,
                                                args.seed, collect=collect)
        except MemoryError as exc:
            # each thread holds one kernel buffer whatever n_r, but a
            # trial's eavesdropper arrays grow with the count; the CSV keeps
            # the trials before the one that failed
            raise Refusal(f"cannot simulate n_r={p.n_r} relays: {exc}") from None
        doc = report.to_dict()
        doc["manifest"] = _manifest("simulate", args,
                                    [x for x in (args.csv, args.json) if x])
        doc["manifest"]["versions"] = {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "secbeam": __version__}
        doc["manifest"]["stream_version"] = montecarlo.STREAM_VERSION
        doc["manifest"]["usable_cpus"] = montecarlo.usable_cpus()
        doc["manifest"]["workers"] = montecarlo.workers(args.trials)
        if json_fh:
            json.dump(doc, json_fh, indent=2)
            json_fh.write("\n")
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
    try:
        failures = _verify(args)
    except MemoryError as exc:
        # moments and theorem4 hold a chunk of samples per thread and a
        # window of WINDOW chunk moments whatever --samples; lemmas draws
        # no samples
        raise Refusal(f"cannot verify {args.what} with {args.samples} "
                      f"samples: {exc}") from None
    for f in failures:
        print(f"  FAIL {f}", file=sys.stderr)
    return 0 if not failures else 1


def _verify(args):
    """Run the checks of ``verify``; returns the failure lines."""
    if args.what == "moments":
        try:
            checks = montecarlo.verify_moments(args.mu, args.nr, args.samples,
                                               args.seed)
        except ValueError as exc:  # raised before any draw
            raise Refusal(f"cannot verify moments: {exc}") from None
        for c in checks:
            print(f"  {c.name:10s} closed={c.reference:.6g} "
                  f"estimate={c.estimate:.6g} z={c.z:+.2f}")
        return [f"{c.name} z={c.z:+.2f}" for c in checks if c.failed]
    if args.what == "theorem4":
        if not args.plan:
            raise Refusal("verify theorem4 requires --plan")
        cfg, _target, p = _load_checked_plan(args.plan)
        try:
            checks = montecarlo.verify_power_bounds(p, cfg, args.samples, args.seed)
        except ValueError as exc:  # raised before any draw
            raise Refusal(f"cannot verify theorem4: {exc}") from None
        for c in checks:
            status = "VIOLATED" if c.failed else "ok"
            print(f"  {c.name:16s} bound={c.reference:.6g} "
                  f"estimate={c.estimate:.6g} {status}")
        return [f"{c.name} margin={c.z:+.2f} SE" for c in checks if c.failed]
    failures = []
    rng = np.random.default_rng(args.seed)
    for i in range(args.instances):
        dist = moments.random_distribution(rng)
        gap = moments.third_moment_gap(dist)
        if gap < -1e-12:
            failures.append(f"third-moment gap {gap} < 0 (instance {i})")
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(a + 0.05, 2.0)
        lhs, rhs = moments.weighted_variance_exact(a, b, dist)
        if not lhs < rhs:
            failures.append(f"variance cap violated at instance {i}")
    print(f"  {args.instances} instances checked, {len(failures)} failures")
    return failures


SWEEPABLE = ["rate", "outage", "rho", "kappa", "power", "mu", "gamma", "dtr",
             "lambda_l"]

#: the plan fields of a sweep row, after the swept value and the verdict
SWEEP_FIELDS = ["mode", "n_r", "a_l", "a_e", "lambda_l_min", "lambda_e_max",
                "n_e_max", "eta", "nu"]


def _parse_range(text: str):
    """The ``(lo, hi, steps)`` of a ``lo:hi:steps`` range; raises ValueError
    for a malformed one."""
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValueError("expected lo:hi:steps, two numbers and a whole "
                         f"number of steps, got {text!r}") from None
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return lo, hi, steps


def _grid(lo: float, hi: float, steps: int, log: bool):
    """Yield the values of np.linspace(lo, hi, steps), or of
    np.geomspace(lo, hi, steps) with ``log`` for positive lo and hi (lo only
    when steps is 1), each computed on its own as numpy computes it, so that
    no grid array is built."""
    if steps == 1:
        yield lo
        return
    start, stop = map(np.log10 if log else np.float64, (lo, hi))
    div = steps - 1
    step = (stop - start) / div
    for i in range(steps):
        if log and i in (0, div):  # geomspace's endpoints are exact
            yield np.float64(hi if i else lo)
        elif i == div:
            yield stop
        else:  # i/div*delta for denormal steps, as np.linspace
            y = (i / div * (stop - start) if step == 0
                 else np.float64(i) * step) + start
            yield np.power(10.0, y) if log else y


def cmd_sweep(args) -> int:
    # a flag's text that is not a number is the range (_number_or_range)
    swept = [name for name in SWEEPABLE if isinstance(getattr(args, name), str)]
    if len(swept) != 1:
        texts = ", ".join("--" + n.replace("_", "-") for n in swept) or "none"
        raise Refusal("exactly one flag must carry a lo:hi:steps range, and "
                      f"every other a number; not numbers: {texts}")
    name, = swept
    try:
        lo, hi, steps = _parse_range(getattr(args, name))
    except ValueError as exc:
        raise Refusal(f"bad range: {exc}") from None
    # every grid value lies between the endpoints and every domain is an
    # interval, so checking both endpoints checks each row before the first
    for end in (lo, hi):
        _planning_inputs(argparse.Namespace(**vars(args) | {name: end}))

    with contextlib.ExitStack() as stack:
        out_fh, = _open_outputs(stack, [args.out])
        writer = csv.writer(out_fh or sys.stdout)
        writer.writerow([name, "feasible", *SWEEP_FIELDS])
        n_rows = 0
        for value in _grid(lo, hi, steps, args.log):
            writer.writerow(_sweep_row(args, name, value))
            n_rows += 1
    if args.out:
        print(f"wrote {args.out} ({n_rows} rows)")
    return 0


def _sweep_row(args, name: str, value: float) -> list:
    # a Python float, as from the command line: a numpy grid value would
    # carry numpy arithmetic into the planner, where n_r > nr_bound then
    # compares an n_r above 2**53 as a float
    ns = argparse.Namespace(**vars(args) | {name: float(value)})
    probe, target = _planning_inputs(ns)
    try:
        p = planner.plan(probe, target)
    except planner.InfeasiblePlanError as exc:
        return [_cell(value), "no", exc.constraint] + [""] * (len(SWEEP_FIELDS) - 1)
    feasible = "yes"
    if ns.lambda_l is not None and ns.lambda_l < p.lambda_l_min:
        feasible = "no"
    fields = vars(p)
    return [_cell(value), feasible,
            *(_cell(v) if isinstance(v, float) else v
              for v in map(fields.get, SWEEP_FIELDS))]


def _cell(x) -> str:
    """A float CSV cell that round-trips: repr of a plain float, never a
    numpy scalar's repr such as ``np.float64(0.25)``."""
    return repr(float(x))


def _positive(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _number_or_range(text):
    """A sweepable flag's value: a float, or its text when that is not a
    number, as a ``lo:hi:steps`` range is not."""
    try:
        return float(text)
    except ValueError:
        return text


def _add_target_flags(sub, value):
    """The target and physics flags, those that sweep can range over parsed
    by ``value``; ``_planning_inputs`` checks their domains."""
    sub.add_argument("--rate", required=True, type=value,
                     help="target secure rate, bits/use")
    sub.add_argument("--outage", required=True, type=value,
                     help="target outage level in (0, 1)")
    sub.add_argument("--rho", type=value, default=1.0)
    sub.add_argument("--kappa", type=value, default=1.0)
    sub.add_argument("--power", type=value, default=1.0)
    sub.add_argument("--mu", type=value, default=0.5)
    sub.add_argument("--gamma", type=value, default=2.0)
    sub.add_argument("--dtr", type=value, default=5.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secbeam",
        description="Plan and verify secure two-stage relay beamforming in "
                    "Poisson wireless networks.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("plan", help="evaluate the design pipeline")
    _add_target_flags(sp, float)
    sp.add_argument("--nlegit", type=_positive, default=None)
    sp.add_argument("--out", default=None, help="write the plan JSON here")

    ss = subs.add_parser("simulate", help="Monte Carlo outage estimation")
    ss.add_argument("--plan", required=True)
    ss.add_argument("--trials", required=True, type=_positive)
    ss.add_argument("--seed", type=_non_negative, default=0)
    ss.add_argument("--csv", default=None, help="per-trial CSV path")
    ss.add_argument("--json", default=None, help="summary JSON path")

    sv = subs.add_parser("verify", help="moment / bound spot checks")
    sv.add_argument("what", choices=["moments", "theorem4", "lemmas"])
    sv.add_argument("--mu", type=float, default=0.5, help="(moments only)")
    sv.add_argument("--nr", type=_positive, default=1, help="relays (moments only)")
    sv.add_argument("--samples", type=_positive, default=100_000,
                    help="sample count (moments and theorem4 only)")
    sv.add_argument("--seed", type=_non_negative, default=0)
    sv.add_argument("--plan", default=None, help="plan JSON (theorem4 only)")
    sv.add_argument("--instances", type=_positive, default=200,
                    help="random instances (lemmas only)")

    sw = subs.add_parser("sweep", help="plan over a one-parameter grid")
    _add_target_flags(sw, _number_or_range)
    sw.add_argument("--lambda-l", dest="lambda_l", type=_number_or_range,
                    default=None, help="legitimate density (sweepable)")
    sw.add_argument("--log", action="store_true", help="geometric grid spacing")
    sw.add_argument("--out", default=None, help="CSV output path")
    return parser


#: the parser of ``main``, built once per process on first use
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name at each call, so a wrapper swapped in for a
        # cmd_* function after the parser was built is the one that runs
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()
    except Refusal as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # a write failed.  An error without a file name is stdout's (open
        # outputs name theirs, planner.open_output): send what is left of it
        # to devnull, so the flush at exit cannot raise again
        if exc.filename is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left (``| head``)
            return 1
        print(f"cannot write {exc.filename or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
