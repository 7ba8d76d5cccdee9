"""secbeam benchmark: one command per workload, seeded, self-checking.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this file, and every file the run writes goes under
``perfbench/out/``.  Workloads and metrics are declared in BENCHMARK.json at
the checkout root.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` (operations
finished per second of time spent in the program's calls; an operation is a
simulated trial, a theorem-4 sample, a moments sample or a plan round trip,
depending on the workload), ``setup_s`` (median over seven fresh processes of the time
from process start to the end of set-up) and ``peak_rss_mb`` (peak resident
memory of the measuring process).  ``--trace 1`` reports the
per-layer metrics from a separate traced run, see ``layer_metrics``.  Layer
metrics that a workload does not exercise read 0.

Every run checks the program's outputs and prints, as its last line, one
JSON object with ``correct``, ``attempted`` and ``failed`` (correctness
checks made and failed) and ``metrics``.  A full record with the manifest,
every check and (traced) the raw spans is written under ``perfbench/out/``.
The exit code is 0 only when every check passed.

``--tamper KEY=VALUE`` overwrites a field of the plan file after the
expected values are fixed; it exists so the smoke test can prove that a
wrong input fails the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import binom, norm, poisson

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("sim_ref", "sim_eaves", "verify_t4", "verify_moments", "plan_grid")
#: set-up-only processes started before and again after the measuring one
SETUP_SAMPLES_AROUND = 3
#: wall-clock limit for the whole command
DEADLINE_S = 170.0
#: |z| (or one-sided margin in standard errors) that fails a check
Z_GATE = 5.0
#: float32 bytes drawn per theorem-4 sample x relay: radius, angle, two
#: fading magnitudes and one phase (computed, not measured)
T4_BYTES_PER_ELEM = 5 * 4
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start one worker process, time it from start to READY, wait for it.
    Returns the set-up time in seconds."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += [f"--tamper={t}" for t in args.tamper]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise WorkerError(f"worker exited {code} (set-up "
                          f"{'done' if setup_s is not None else 'not done'})")
    return setup_s


# ---------------------------------------------------------------------------
# Correctness gates on pooled results
# ---------------------------------------------------------------------------

def tail_z(k: int, n: int, p: float) -> float:
    """Signed normal-equivalent z of observing k in Binomial(n, p), from the
    exact tail on the side of the observation (0 inside the body)."""
    if k > n * p:
        tail, sign = binom.sf(k - 1, n, p), 1.0
    else:
        tail, sign = binom.cdf(k, n, p), -1.0
    z = float(norm.isf(min(float(tail), 0.5)))
    return sign * z if z else 0.0


def gate_simulate(raw: dict, gates: list, diag: dict) -> None:
    """E1, E2 and E7 against their exact probabilities under the intended
    plan: E1 ~ Poisson count in the relay disc below n_r, E2 = some
    eavesdropper inside a_e, E7 = Poisson eavesdropper count above n_e_max."""
    doc = raw["intended"]
    lam_l, lam_e = doc["cfg_lambda_l"], doc["cfg_lambda_e"]
    side = math.sqrt(doc["cfg_n_legit"] / lam_l)
    gates.append(("protected disc inside the square", side >= 2 * doc["a_e"], side))
    exact = {
        0: float(poisson.cdf(doc["n_r"] - 1, lam_l * math.pi * doc["a_l"] ** 2)),
        1: -math.expm1(-lam_e * math.pi * doc["a_e"] ** 2),
        6: float(poisson.sf(doc["n_e_max"], lam_e * side * side)),
    }
    n = sum(r["ops"] for r in raw["ops"])
    for e, p in exact.items():
        k = sum(r["fails"][e] for r in raw["ops"])
        z = tail_z(k, n, p)
        diag[f"check.e{e + 1}_z"] = z
        gates.append((f"E{e + 1} rate {k}/{n} vs exact {p:.6g}", abs(z) < Z_GATE, z))


MEAN_VARIANCE = {"mean_P_l_lower": "var_P_l_upper", "mean_P_e_upper": "var_P_e_upper"}


def gate_theorem4(raw: dict, gates: list, diag: dict) -> None:
    """Pooled estimates against each bound, one-sided at Z_GATE standard
    errors.  Mean SEs come from the pooled variance estimates; variance SEs
    from the spread of the per-call estimates (batch means)."""
    ops = raw["ops"]
    n = sum(r["ops"] for r in ops)
    for name in ("mean_P_l_lower", "mean_P_e_upper", "var_P_l_upper", "var_P_e_upper"):
        bounds = {r["bound"].get(name) for r in ops}
        est = [r["estimate"].get(name, math.nan) for r in ops]
        pooled = statistics.fmean(est)
        if name in MEAN_VARIANCE:
            var = statistics.fmean(r["estimate"].get(MEAN_VARIANCE[name], math.nan)
                                   for r in ops)
            se = math.sqrt(var / n)
        else:
            se = statistics.stdev(est) / math.sqrt(len(est))
        bound = bounds.pop() if len(bounds) == 1 else math.nan
        gap = pooled - bound if name.endswith("lower") else bound - pooled
        margin = gap / se if se > 0 else math.copysign(math.inf, gap)
        diag[f"check.t4_{name}_margin_se"] = margin
        gates.append((f"theorem4 {name}: pooled {pooled:.6g} vs bound {bound:.6g}",
                      margin > -Z_GATE, margin))


def gate_moments(raw: dict, gates: list, diag: dict) -> None:
    """Stouffer combination of the per-call z-scores, two-sided."""
    ops = raw["ops"]
    worst = 0.0
    for name in ("mean_P_l", "var_P_l", "mean_P_e", "var_P_e"):
        z = sum(r["z"].get(name, math.inf) for r in ops) / math.sqrt(len(ops))
        closed = {r["closed"].get(name) for r in ops}
        worst = max(worst, abs(z))
        gates.append((f"moments {name}: pooled z", abs(z) < Z_GATE, z))
        gates.append((f"moments {name}: one closed form", len(closed) == 1, len(closed)))
    diag["check.moments_max_abs_z"] = worst


GATES = {"sim_ref": gate_simulate, "sim_eaves": gate_simulate,
         "verify_t4": gate_theorem4, "verify_moments": gate_moments,
         "plan_grid": None}


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(spans: dict, raw: dict) -> dict:
    """Per-layer metrics of a traced run.  Means are per call; shares are
    ratios of counts; ``_p50``/``_p99`` are percentiles over calls."""
    names = spans["name"]
    dur = np.subtract(spans["end_ns"], spans["start_ns"])
    own = np.asarray(self_times(spans))
    notes = spans["notes"]
    idx: dict[str, list[int]] = {}
    for i, n in enumerate(names):
        idx.setdefault(n, []).append(i)

    def calls(name):
        return idx.get(name, [])

    def mean(name, arr=dur, scale=1e6):
        i = calls(name)
        return float(arr[i].mean()) / scale if i else 0.0

    def pct(name, q):
        i = calls(name)
        return float(np.percentile(dur[i], q)) / 1e6 if i else 0.0

    def note_sum(name, key):
        return sum(notes[i][key] for i in calls(name))

    def per(total_ns, count):
        return float(total_ns) / count if count else 0.0

    sample, powers = "montecarlo.sample_realization", "beamform.received_powers"
    trial, plan = "montecarlo.run_trial", "planner.plan"
    bounds, nopath = "montecarlo.verify_power_bounds", "montecarlo._sample_powers_nopath"
    relays = note_sum(sample, "relays")
    cross = sum(notes[i]["eaves"] * notes[i]["relays"] for i in calls(sample))
    t4_elems = note_sum(bounds, "elems")
    root = list(range(len(names)))
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            root[i] = root[p]
    op_roots = {i for i, p in enumerate(spans["parent"])
                if p < 0 and names[i] != "bench.set_up"}
    in_ops = [i for i in range(len(names)) if root[i] in op_roots]
    roots = sorted(op_roots)
    ops_u = sum(r["ops"] for r in raw["ops"])
    ops_t = sum(r["ops"] for r in raw["traced_ops"])
    ns_u = sum(r["ns"] for r in raw["ops"])
    ns_t = sum(r["ns"] for r in raw["traced_ops"])
    return {
        "montecarlo.sample_ms": (mean(sample), "ms"),
        "montecarlo.sample_ns_per_relay": (per(dur[calls(sample)].sum(), relays), "ns"),
        "montecarlo.trial_rng_us": (mean("montecarlo._trial_rng", scale=1e3), "us"),
        "montecarlo.run_trial_ms_p50": (pct(trial, 50), "ms"),
        "montecarlo.run_trial_ms_p99": (pct(trial, 99), "ms"),
        "montecarlo.run_trial_count": (len(calls(trial)), "count"),
        "montecarlo.run_trial_self_ms": (mean(trial, own), "ms"),
        "beamform.stage1_ms": (mean("beamform.stage1_rates"), "ms"),
        "beamform.powers_ms": (mean(powers), "ms"),
        "beamform.powers_ns_per_cross_elem": (
            per(dur[calls(powers)].sum(), note_sum(powers, "cross")), "ns"),
        "beamform.stage2_us": (mean("beamform.stage2_rates", scale=1e3), "us"),
        "montecarlo.aggregate_ms": (mean("montecarlo.estimate_outage", own), "ms"),
        "montecarlo.csv_write_ms": (mean("montecarlo.write_trials_csv"), "ms"),
        "cli.simulate_self_ms": (mean("cli.cmd_simulate", own), "ms"),
        "cli.verify_self_ms": (mean("cli.cmd_verify", own), "ms"),
        "montecarlo.power_bounds_ns_per_sample_relay": (
            per(own[calls(bounds)].sum(), t4_elems), "ns"),
        "montecarlo.power_bounds_bytes_computed": (t4_elems * T4_BYTES_PER_ELEM, "bytes"),
        "montecarlo.moments_ns_per_sample_relay": (
            per(dur[calls(nopath)].sum(), note_sum(nopath, "elems")), "ns"),
        "planner.plan_ms_p50": (pct(plan, 50), "ms"),
        "planner.plan_ms_p99": (pct(plan, 99), "ms"),
        "planner.plan_count": (len(calls(plan)), "count"),
        "planner.nu_constant_ms": (mean("planner.nu_constant"), "ms"),
        "moments.var_pl_nopath_ms": (mean("moments.var_pl_nopath"), "ms"),
        "planner.validate_plan_us": (mean("planner.validate_plan", scale=1e3), "us"),
        "planner.save_load_ms": (mean("planner.save_plan") + mean("planner.load_plan"), "ms"),
        "montecarlo.relays_sampled": (relays, "count"),
        "montecarlo.cross_elems": (cross, "count"),
        "montecarlo.eaves_trial_share": (
            per(sum(notes[i]["eaves"] > 0 for i in calls(sample)), len(calls(sample))), "ratio"),
        "montecarlo.stage2_share": (
            per(note_sum(trial, "stage2"), len(calls(trial))), "ratio"),
        "planner.infeasible_share": (
            per(sum(spans["error"][i] == "InfeasiblePlanError" for i in calls(plan)),
                len(calls(plan))), "ratio"),
        "trace_overhead_pct": (100.0 * (ns_t / ops_t - ns_u / ops_u) / (ns_u / ops_u), "%"),
        "trace.self_sum_ms_per_op": (float(own[in_ops].sum()) / ops_t / 1e6, "ms"),
        "trace.untraced_ms_per_op": (ns_u / ops_u / 1e6, "ms"),
        "trace.unattributed_share": (float(own[roots].sum()) / float(dur[roots].sum()), "ratio"),
        "trace.spans": (len(names), "count"),
    }


DIAGNOSTICS = ["check.e1_z", "check.e2_z", "check.e7_z",
               "check.t4_mean_P_l_lower_margin_se", "check.t4_mean_P_e_upper_margin_se",
               "check.t4_var_P_l_upper_margin_se", "check.t4_var_P_e_upper_margin_se",
               "check.moments_max_abs_z"]


# ---------------------------------------------------------------------------
# Manifest and output
# ---------------------------------------------------------------------------

def git_revision() -> str:
    """HEAD of the checkout read from .git without leaving the checkout;
    'unknown' when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def cgroup_cpu_max() -> str:
    """CPU quota of this container (cgroup v2 cpu.max, or the v1 pair)."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    v1 = Path("/sys/fs/cgroup/cpu")
    try:
        if v2.exists():
            return v2.read_text().strip()
        quota = (v1 / "cpu.cfs_quota_us").read_text().strip()
        period = (v1 / "cpu.cfs_period_us").read_text().strip()
        return f"{quota} {period}"
    except OSError:
        return "unavailable"


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  The machine's cores are
    shared, so its speed drifts; the probe records how fast it ran when a
    result was taken."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _jsonable(value):
    """json.dump hook: numpy scalars (theorem-4 bounds are float32) become
    Python numbers."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="secbeam benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tamper", action="append", default=[],
                    help="KEY=VALUE written into the plan file (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "secbeam" / "__init__.py").is_file():
        print(f"no secbeam sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    probe_ms = [machine_probe_ms()]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up samples bracket the measuring process, so that their median
        # spans the machine's state over the whole run
        extra = SETUP_SAMPLES_AROUND if args.trace == 0 else 0
        setups = [run_worker(args, workdir, True, deadline) for _ in range(extra)]
        setups.append(run_worker(args, workdir, False, deadline))
        setups += [run_worker(args, workdir, True, deadline) for _ in range(extra)]
        raw = json.loads((workdir / "raw.json").read_text())
        spans = (json.loads((workdir / "spans.json").read_text())
                 if args.trace else None)
    except (WorkerError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    probe_ms.append(machine_probe_ms())
    gates = []
    diag = dict.fromkeys(DIAGNOSTICS, 0.0)
    if GATES[args.workload] is not None:
        GATES[args.workload](raw, gates, diag)
    attempted = raw["checks"]["attempted"] + len(gates)
    failed = len(raw["checks"]["failures"]) + sum(1 for g in gates if not g[1])

    if args.trace == 0:
        ops = sum(r["ops"] for r in raw["ops"])
        metrics = {
            "ops_per_s": (ops / (sum(r["ns"] for r in raw["ops"]) / 1e9), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB"),
        }
    else:
        metrics = layer_metrics(spans, raw)
        metrics.update({k: (v, "sigma") for k, v in diag.items()})
        metrics["check_fail_ratio"] = (failed / attempted, "ratio")

    record = {
        "manifest": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_revision": git_revision(),
            "versions": dict(raw["versions"], scipy=scipy.__version__),
            "cpu_count": os.cpu_count(), "cgroup_cpu_max": cgroup_cpu_max(),
            "thread_env": raw["thread_env"], "platform": platform.platform(),
            "machine_probe_ms_before_after": probe_ms,
            "trace_overhead_pct": (metrics["trace_overhead_pct"][0]
                                   if args.trace else None),
            "setup_samples_s": setups, "operations": len(raw["ops"]),
            "tamper": raw["tamper"],
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "worker_check_failures": raw["checks"]["failures"],
        "gates": [{"name": n, "ok": ok, "value": v} for n, ok, v in gates],
        "intended_plan": raw["intended"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=_jsonable)
    if spans is not None:
        with open(OUT / f"{stem}.spans.json", "w") as fh:
            json.dump(spans, fh)
    for message in raw["checks"]["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, ok, value in gates:
        if not ok:
            print(f"FAILED {name} ({value})", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    print(json.dumps(result, default=_jsonable))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
