#!/usr/bin/env python3
"""Write tests/data/golden_plans.json: the plans, saved plan bytes and
infeasible verdicts of a fixed set of about 30 targets.

Each entry holds the planner inputs and either the constraint that
rejected the target or the plan's fields, its repr and the exact text
``save_plan`` writes for it (at the extent ``secbeam plan`` gives by
default).  tests/test_golden_plans.py replays every entry and asserts
equality, so a change to the planner's arithmetic or to the plan document
shows as a diff of this file.  Regenerate only when a plan is meant to
change:

    PYTHONPATH=src python scripts/make_golden_plans.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

from secbeam import planner
from secbeam.geometry import NetworkConfig

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_plans.json"

# (rate, outage, mu, gamma, p_t, d_tr, rho, kappa)
REFERENCE = (0.5, 0.35, 0.5, 2.0, 1.0, 5.0, 1.0, 1.0)
TARGETS = [
    REFERENCE,
    # gamma and p_t around the reference; every p_t = 1e9 plan is direct
    (0.5, 0.35, 0.5, 3.0, 1.0, 5.0, 1.0, 1.0),
    (0.5, 0.35, 0.5, 2.0, 1e9, 5.0, 1.0, 1.0),
    (0.5, 0.35, 0.5, 3.0, 1e9, 5.0, 1.0, 1.0),
    (0.25, 0.1, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0),
    (0.25, 0.1, 2.0, 3.0, 1.0, 10.0, 1.0, 1.0),
    (1.0, 0.7, 0.5, 2.0, 1e9, 10.0, 1.0, 1.0),
    (1.0, 0.7, 0.5, 3.0, 1e9, 10.0, 1.0, 1.0),
    (2.0, 0.35, 2.0, 2.0, 1.0, 10.0, 1.0, 1.0),
    (2.0, 0.35, 2.0, 3.0, 1e9, 1.0, 1.0, 1.0),
    (0.1, 0.05, 0.25, 2.0, 1.0, 5.0, 1.0, 1.0),
    (3.0, 0.5, 1.0, 3.0, 1.0, 20.0, 1.0, 1.0),
    (0.5, 0.35, 1e-3, 2.0, 1.0, 5.0, 1.0, 1.0),
    (0.5, 0.35, 1e3, 2.0, 1.0, 5.0, 1.0, 1.0),  # infeasible: n_e_bound
    (0.5, 0.35, 0.5, 2.5, 10.0, 5.0, 1.0, 1.0),
    (0.5, 0.35, 0.5, 2.0, 1.0, 5.0, 0.5, 2.0),
    (0.5, 0.35, 0.5, 2.0, 1.0, 5.0, 2.0, 0.5),
    (0.7, 0.2, 0.5, 4.0, 1e3, 3.0, 1.0, 1.0),
    (0.5, 0.35, 0.5, 2.0, 1.0, 0.5, 1.0, 1.0),
    (8.0, 0.35, 0.5, 2.0, 1.0, 5.0, 1.0, 1.0),
    (0.5, 0.35, 0.5, 2.0, 1.0, 2.0, 1.0, 1.0),
    # the eavesdropper-count bound at plan_grid's infeasible d_TR = 0.05
] + [(rate, outage, mu, 2.0, 1.0, 0.05, 1.0, 1.0)
     for rate, outage, mu in ((0.25, 0.1, 0.5), (0.5, 0.35, 0.5),
                              (1.0, 0.7, 2.0), (2.0, 0.1, 2.0),
                              (0.25, 0.7, 2.0), (2.0, 0.7, 0.5),
                              (1.0, 0.35, 0.5), (0.5, 0.1, 2.0))]

KEYS = ("rate", "outage", "mu", "gamma", "p_t", "d_tr", "rho", "kappa")


def planning_inputs(inputs: dict):
    """The probe config and target ``secbeam plan`` builds from its flags."""
    probe = NetworkConfig(p_t=inputs["p_t"], mu=inputs["mu"],
                          gamma=inputs["gamma"], d_tr=inputs["d_tr"],
                          lambda_l=1.0, lambda_e=0.0, n_legit=1)
    target = planner.SecrecyTarget(secure_rate=inputs["rate"],
                                   outage=inputs["outage"],
                                   rho=inputs["rho"], kappa=inputs["kappa"])
    return probe, target


def saved_config(probe: NetworkConfig, p: planner.Plan) -> NetworkConfig:
    """The config ``secbeam plan`` saves without --nlegit."""
    side = 2.2 * max(p.a_e, probe.d_tr)
    return dataclasses.replace(
        probe, lambda_l=p.lambda_l_min, lambda_e=p.lambda_e_max,
        n_legit=max(1, math.ceil(p.lambda_l_min * side * side)))


def entry(values) -> dict:
    inputs = dict(zip(KEYS, values))
    probe, target = planning_inputs(inputs)
    try:
        p = planner.plan(probe, target)
    except planner.InfeasiblePlanError as exc:
        return {"inputs": inputs, "infeasible": exc.constraint}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        planner.save_plan(path, saved_config(probe, p), target, p)
        saved = path.read_text()
    return {"inputs": inputs, "plan": dataclasses.asdict(p), "repr": repr(p),
            "saved": saved}


def main() -> int:
    entries = [entry(values) for values in TARGETS]
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    n_bad = sum("infeasible" in e for e in entries)
    n_direct = sum(e.get("plan", {}).get("mode") == "direct" for e in entries)
    print(f"wrote {OUT} ({len(entries)} targets, {n_bad} infeasible, "
          f"{n_direct} direct)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
