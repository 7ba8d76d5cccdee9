"""One benchmark process: set up, then (unless ``--setup-only``) run the
workload's operations and write raw observations for ``run.py`` to judge.

Set-up is what a user pays before the first result: importing the package,
``secbeam plan`` for the reference target, writing the plan file and one
warm-up call.  The worker prints ``READY`` when set-up ends, so the parent
can time it from process start.

With ``--trace 0`` operations repeat until ``--seconds`` have passed.  With
``--trace 1`` a fixed number of operations, derived from ``--seconds`` so
that work counts repeat exactly for a seed, runs twice on the same inputs:
once untraced, then again with the tracer installed.  The difference is the
tracing overhead, and the two runs must give identical outputs.

The package is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import secbeam  # noqa: E402
from secbeam import beamform, cli, moments, montecarlo, planner  # noqa: E402
from secbeam.geometry import NetworkConfig  # noqa: E402

import tracer as tracing  # noqa: E402

#: the reference target every workload plans first
REFERENCE_FLAGS = ["--rate", "0.5", "--outage", "0.35", "--mu", "0.5",
                   "--gamma", "2", "--dtr", "5"]
REFERENCE_N_R = 110446

#: per-trial CSV columns of ``secbeam simulate --csv``
CSV_COLUMNS = [
    "trial_index", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "composite",
    "min_relay_rate", "max_eaves_rate_s1", "rate_l_s2", "max_eaves_rate_s2",
    "P_l", "max_P_e", "total_relay_power", "n_in_Bl", "n_in_Be",
]
EVENTS = ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]
BOUND_NAMES = ["mean_P_l_lower", "mean_P_e_upper", "var_P_l_upper",
               "var_P_e_upper"]
MOMENT_NAMES = ["mean_P_l", "var_P_l", "mean_P_e", "var_P_e"]

#: fewest operations in any run, so pooled checks always have data
MIN_OPS = 5

_T4_LINE = re.compile(r"^\s+(\S+)\s+bound=(\S+) estimate=(\S+) (ok|VIOLATED)$")
_MOMENT_LINE = re.compile(r"^\s+(\S+)\s+closed=(\S+) estimate=(\S+) z=(\S+)$")


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th operation of a run."""
    return seed * 1_000_000 + index


class Checks:
    """Counts correctness checks made in this process and keeps the
    message of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


class Context:
    def __init__(self, args, workdir: Path):
        self.seed = args.seed
        self.workdir = workdir
        self.plan_path = str(workdir / "plan.json")
        self.checks = Checks()
        self.tracer: tracing.Tracer | None = None
        self.intended: dict = {}

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def cli(self, argv: list[str]) -> tuple[int, int, str]:
        """Run ``secbeam <argv>`` in process; returns (exit code, elapsed
        ns, captured stdout).  Only the call itself is timed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.span("cli.main"):
                t0 = time.perf_counter_ns()
                code = cli.main(argv)
                elapsed = time.perf_counter_ns() - t0
        return code, elapsed, out.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One operation type.  ``nominal_op_s`` is the rough time of one
    operation on a 2-core x86 box; it sizes the traced run."""

    nominal_op_s = 0.45

    def edit_plan(self, doc: dict) -> None:
        """Change the reference plan document before it is written."""


class Simulate(Workload):
    """``secbeam simulate`` batches with --csv and --json."""

    def __init__(self, trials: int, lambda_e_factor: float):
        self.trials = trials
        self.lambda_e_factor = lambda_e_factor

    def edit_plan(self, doc: dict) -> None:
        doc["cfg_lambda_e"] = doc["lambda_e_max"] * self.lambda_e_factor

    def warm_up(self, ctx: Context) -> None:
        code, _, _ = ctx.cli(["simulate", "--plan", ctx.plan_path,
                              "--trials", "1", "--seed", "0"])
        ctx.checks(code == 0, f"warm-up simulate exited {code}")

    def op(self, ctx: Context, index: int) -> dict:
        seed = op_seed(ctx.seed, index)
        csv_path = ctx.workdir / "trials.csv"
        json_path = ctx.workdir / "report.json"
        code, ns, _ = ctx.cli(["simulate", "--plan", ctx.plan_path,
                               "--trials", str(self.trials), "--seed", str(seed),
                               "--csv", str(csv_path), "--json", str(json_path)])
        check = ctx.checks
        rec = {"ops": self.trials, "ns": ns, "fails": [0] * 7, "digest": ""}
        if not check(code == 0, f"simulate seed {seed} exited {code}"):
            return rec
        raw = csv_path.read_bytes()
        rec["digest"] = hashlib.sha256(raw).hexdigest()
        rows = list(csv.reader(io.StringIO(raw.decode())))
        check(rows[:1] == [CSV_COLUMNS], f"seed {seed}: CSV header {rows[:1]}")
        body = rows[1:]
        check(len(body) == self.trials,
              f"seed {seed}: {len(body)} CSV rows for {self.trials} trials")
        check(all(len(r) == len(CSV_COLUMNS) for r in body),
              f"seed {seed}: ragged CSV row")
        check([r[0] for r in body] == [str(i) for i in range(len(body))],
              f"seed {seed}: trial_index column out of order")
        try:
            fails = [sum(r[1 + e] == "0" for r in body) for e in range(7)]
            flags_ok = all(r[1 + e] in ("0", "1") for r in body for e in range(8))
        except IndexError:
            fails, flags_ok = [0] * 7, False
        check(flags_ok, f"seed {seed}: event flags not 0/1")
        rec["fails"] = fails
        try:
            report = json.loads(json_path.read_text())
            outage = [report["event_outage"][e]["outage"] for e in EVENTS]
            n_trials = report["n_trials"]
        except (ValueError, KeyError, TypeError) as exc:
            check(False, f"seed {seed}: report JSON unusable: {exc!r}")
            return rec
        check(n_trials == self.trials and report.get("seed") == seed,
              f"seed {seed}: report n_trials/seed {n_trials}/{report.get('seed')}")
        check(outage == [f / self.trials for f in fails],
              f"seed {seed}: report outage {outage} disagrees with CSV {fails}")
        return rec

    def same_output(self, a: dict, b: dict) -> bool:
        return a["digest"] == b["digest"]


class VerifyTheorem4(Workload):
    """``secbeam verify theorem4`` at the reference plan."""

    def __init__(self, samples: int):
        self.samples = samples

    def warm_up(self, ctx: Context) -> None:
        code, _, _ = ctx.cli(["verify", "theorem4", "--plan", ctx.plan_path,
                              "--samples", "2", "--seed", "0"])
        ctx.checks(code in (0, 1), f"warm-up theorem4 exited {code}")

    def op(self, ctx: Context, index: int) -> dict:
        seed = op_seed(ctx.seed, index)
        code, ns, out = ctx.cli(["verify", "theorem4", "--plan", ctx.plan_path,
                                 "--samples", str(self.samples),
                                 "--seed", str(seed)])
        parsed = [m.groups() for m in map(_T4_LINE.match, out.splitlines()) if m]
        rec = {"ops": self.samples, "ns": ns,
               "bound": {n: float(b) for n, b, _, _ in parsed},
               "estimate": {n: float(e) for n, _, e, _ in parsed}}
        check = ctx.checks
        check([p[0] for p in parsed] == BOUND_NAMES,
              f"theorem4 seed {seed}: printed checks {[p[0] for p in parsed]}")
        # the raw per-call flag is noisy; run.py gates the pooled estimates
        violated = any(p[3] == "VIOLATED" for p in parsed)
        check(code == (1 if violated else 0),
              f"theorem4 seed {seed}: exit {code} with violated={violated}")
        return rec

    def same_output(self, a: dict, b: dict) -> bool:
        return a["estimate"] == b["estimate"] and a["bound"] == b["bound"]


class VerifyMoments(Workload):
    """``secbeam verify moments`` at n_r = 32."""

    def __init__(self, n_r: int, samples: int):
        self.n_r = n_r
        self.samples = samples

    def _argv(self, samples: int, seed: int) -> list[str]:
        return ["verify", "moments", "--mu", "0.5", "--nr", str(self.n_r),
                "--samples", str(samples), "--seed", str(seed)]

    def warm_up(self, ctx: Context) -> None:
        code, _, _ = ctx.cli(self._argv(64, 0))
        ctx.checks(code in (0, 1), f"warm-up moments exited {code}")

    def op(self, ctx: Context, index: int) -> dict:
        seed = op_seed(ctx.seed, index)
        code, ns, out = ctx.cli(self._argv(self.samples, seed))
        parsed = [m.groups() for m in map(_MOMENT_LINE.match, out.splitlines()) if m]
        rec = {"ops": self.samples, "ns": ns,
               "closed": {n: float(c) for n, c, _, _ in parsed},
               "estimate": {n: float(e) for n, _, e, _ in parsed},
               "z": {n: float(z) for n, _, _, z in parsed}}
        check = ctx.checks
        check([p[0] for p in parsed] == MOMENT_NAMES,
              f"moments seed {seed}: printed checks {[p[0] for p in parsed]}")
        far = any(abs(z) >= 5.0 for z in rec["z"].values())
        check(code == (1 if far else 0),
              f"moments seed {seed}: exit {code} with |z|>=5 {far}")
        return rec

    def same_output(self, a: dict, b: dict) -> bool:
        return a["estimate"] == b["estimate"]


class PlanGrid(Workload):
    """plan + validate_plan + save/load round trips over a grid of targets.

    The verdict depends on the grid's d_TR alone: at 0.05 the
    eavesdropper-count bound cannot be met for any rate, outage or mu in
    the grid, and at 1, 5 and 10 every target is feasible.  Each
    coordinate is jittered by up to 5% from the seed; the verdicts hold on
    every corner of that box.  The unjittered reference target closes each
    pass and must reproduce n_r = 110446.
    """

    RATES = (0.25, 0.5, 1.0, 2.0)
    OUTAGES = (0.1, 0.35, 0.7)
    MUS = (0.5, 2.0)
    D_TRS = (0.05, 1.0, 5.0, 10.0)
    INFEASIBLE_D_TR = 0.05
    JITTER = 0.05

    def targets(self, seed: int, index: int):
        rng = np.random.default_rng([seed, index])
        grid = [(r, e, mu, d) for r in self.RATES for e in self.OUTAGES
                for mu in self.MUS for d in self.D_TRS]
        jitter = rng.uniform(1 - self.JITTER, 1 + self.JITTER, (len(grid), 4))
        for base, j in zip(grid, jitter):
            point = tuple(float(x) for x in np.asarray(base) * j)
            yield point, base[3] == self.INFEASIBLE_D_TR, False
        yield (0.5, 0.35, 0.5, 5.0), False, True

    def round_trip(self, ctx: Context, point, path: str):
        rate, outage, mu, d_tr = point
        probe = NetworkConfig(p_t=1.0, mu=mu, gamma=2.0, d_tr=d_tr,
                              lambda_l=1.0, lambda_e=0.0, n_legit=1)
        target = planner.SecrecyTarget(secure_rate=rate, outage=outage)
        with ctx.span("bench.plan_round_trip"):
            t0 = time.perf_counter_ns()
            try:
                p = planner.plan(probe, target)
            except planner.InfeasiblePlanError as exc:
                return time.perf_counter_ns() - t0, exc.constraint, None
            side = 2.2 * max(p.a_e, d_tr)
            cfg = NetworkConfig(p_t=1.0, mu=mu, gamma=2.0, d_tr=d_tr,
                                lambda_l=p.lambda_l_min, lambda_e=p.lambda_e_max,
                                n_legit=max(1, math.ceil(p.lambda_l_min * side * side)))
            validation = planner.validate_plan(cfg, target, p)
            planner.save_plan(path, cfg, target, p)
            loaded = planner.load_plan(path)
            ns = time.perf_counter_ns() - t0
        return ns, None, (p, validation, loaded == (cfg, target, p))

    def warm_up(self, ctx: Context) -> None:
        _, verdict, _ = self.round_trip(ctx, (0.5, 0.35, 0.5, 5.0),
                                        str(ctx.workdir / "grid.json"))
        ctx.checks(verdict is None, f"warm-up plan infeasible: {verdict}")

    def op(self, ctx: Context, index: int) -> dict:
        check = ctx.checks
        path = str(ctx.workdir / "grid.json")
        total_ns = count = 0
        outcome = []
        for point, expect_infeasible, is_reference in self.targets(ctx.seed, index):
            ns, verdict, result = self.round_trip(ctx, point, path)
            total_ns += ns
            count += 1
            if expect_infeasible:
                check(verdict == "n_e_bound",
                      f"target {point}: expected n_e_bound rejection, got {verdict}")
                outcome.append(verdict)
                continue
            if not check(verdict is None, f"target {point}: rejected by {verdict}"):
                outcome.append(verdict)
                continue
            p, validation, round_trip_ok = result
            outcome.append(p.n_r)
            bad = [c.name for c in validation if not (c.satisfied and c.margin > 0)]
            check(not bad, f"target {point}: validate_plan margins fail {bad}")
            check(round_trip_ok, f"target {point}: save/load round trip differs")
            if is_reference:
                check(p.n_r == REFERENCE_N_R,
                      f"reference plan n_r={p.n_r}, expected {REFERENCE_N_R}")
        return {"ops": count, "ns": total_ns, "outcome": outcome}

    def same_output(self, a: dict, b: dict) -> bool:
        return a["outcome"] == b["outcome"]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "sim_ref": Simulate(trials=25, lambda_e_factor=1.0),
    "sim_eaves": Simulate(trials=12, lambda_e_factor=20.0),
    "verify_t4": VerifyTheorem4(samples=74),
    "verify_moments": VerifyMoments(n_r=32, samples=1 << 17),
    "plan_grid": PlanGrid(),
}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def set_up(ctx: Context, workload, tamper: dict) -> None:
    """secbeam plan, the workload's plan edits, the plan file, a warm-up."""
    code, _, _ = ctx.cli(["plan", *REFERENCE_FLAGS, "--out", ctx.plan_path])
    if code != 0:
        raise RuntimeError(f"secbeam plan exited {code}")
    with open(ctx.plan_path) as fh:
        doc = json.load(fh)
    workload.edit_plan(doc)
    ctx.intended = dict(doc)
    doc.update(tamper)
    with open(ctx.plan_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    workload.warm_up(ctx)


def run_ops(ctx: Context, workload, count: int | None, seconds: float) -> list[dict]:
    """Run ``count`` operations, or when None, operations until ``seconds``
    have passed (at least MIN_OPS)."""
    records = []
    start = time.perf_counter()
    index = 0
    while True:
        if count is not None:
            if index >= count:
                break
        elif index >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        records.append(workload.op(ctx, index))
        index += 1
    return records


def trace_op_count(workload, seconds: float) -> int:
    """Operations in each half of a traced run: a fixed function of the
    run length, so that work counts repeat exactly for a seed."""
    return max(MIN_OPS, math.ceil(seconds / 2 / workload.nominal_op_s))


def peak_rss_kb() -> int:
    """Peak resident memory of this process image (VmHWM).  getrusage's
    ru_maxrss is not used: after fork and exec it still counts the parent's
    resident memory."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def parse_tamper(items: list[str]) -> dict:
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--tamper expects KEY=VALUE, got {item!r}")
        out[key] = json.loads(value)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tamper", action="append", default=[])
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    ctx = Context(args, workdir)
    tamper = parse_tamper(args.tamper)
    set_up(ctx, workload, tamper)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    raw = {"intended": ctx.intended, "tamper": tamper,
           "versions": {"python": platform.python_version(),
                        "numpy": np.__version__, "secbeam": secbeam.__version__},
           "thread_env": {k: os.environ.get(k) for k in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS")}}
    if args.trace == 0:
        raw["ops"] = run_ops(ctx, workload, None, args.seconds)
    else:
        count = trace_op_count(workload, args.seconds)
        raw["ops"] = run_ops(ctx, workload, count, args.seconds)
        ctx.tracer = tracing.Tracer()
        ctx.tracer.install({"cli": cli, "planner": planner, "moments": moments,
                            "montecarlo": montecarlo, "beamform": beamform})
        try:
            with ctx.span("bench.set_up"):
                set_up(ctx, workload, tamper)
            raw["traced_ops"] = run_ops(ctx, workload, count, args.seconds)
        finally:
            ctx.tracer.uninstall()
        same = all(workload.same_output(a, b)
                   for a, b in zip(raw["ops"], raw["traced_ops"]))
        ctx.checks(same, "traced run gave different outputs from the untraced run")
        with open(workdir / "spans.json", "w") as fh:
            json.dump(ctx.tracer.to_dict(), fh)
    raw["checks"] = {"attempted": ctx.checks.attempted,
                     "failures": ctx.checks.failures}
    raw["peak_rss_kb"] = peak_rss_kb()
    with open(workdir / "raw.json", "w") as fh:
        json.dump(raw, fh)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
