"""Plans and plan files pinned byte for byte.

tests/data/golden_plans.json holds, for about 30 targets, the plan fields,
the plan's repr and the exact text ``save_plan`` wrote for it, or the
constraint that rejected the target (scripts/make_golden_plans.py writes
it).  A change to the planner's arithmetic or to the plan document shows
here as a failure.
"""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from secbeam import cli, moments, planner
from secbeam.montecarlo import EventStats, OutageReport

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_golden_plans.py"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_plans.json"
ENTRIES = json.loads(GOLDEN.read_text())


def _script():
    spec = importlib.util.spec_from_file_location("make_golden_plans", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE = _script()


def _label(entry) -> str:
    i = entry["inputs"]
    return "-".join(f"{k}{i[k]}" for k in ("rate", "outage", "mu", "gamma",
                                           "p_t", "d_tr"))


def test_golden_covers_the_named_cases():
    plans = [e["plan"] for e in ENTRIES if "plan" in e]
    assert any(p["n_r"] == 110446 for p in plans)
    assert {e["inputs"]["gamma"] for e in ENTRIES} >= {2.0, 3.0}
    assert {e["inputs"]["p_t"] for e in ENTRIES} >= {1.0, 1e9}
    assert any(p["mode"] == "direct" for p in plans)
    assert sum(e.get("infeasible") == "n_e_bound" and e["inputs"]["d_tr"] == 0.05
               for e in ENTRIES) >= 5


@pytest.mark.parametrize("entry", ENTRIES, ids=_label)
def test_plan_matches_golden(entry, tmp_path):
    probe, target = MAKE.planning_inputs(entry["inputs"])
    if "infeasible" in entry:
        with pytest.raises(planner.InfeasiblePlanError) as info:
            planner.plan(probe, target)
        assert info.value.constraint == entry["infeasible"]
        return
    p = planner.plan(probe, target)
    assert p == planner.Plan(**entry["plan"])
    assert repr(p) == entry["repr"]
    path = tmp_path / "plan.json"
    planner.save_plan(path, MAKE.saved_config(probe, p), target, p)
    assert path.read_bytes() == entry["saved"].encode()


@pytest.mark.parametrize("entry", [e for e in ENTRIES if "plan" in e], ids=_label)
def test_plan_out_writes_golden_document(entry, tmp_path, capsys):
    # secbeam plan --out at its default extent writes the document of
    # saved_config, and a manifest after it
    inputs = entry["inputs"]
    flags = {"rate": "rate", "outage": "outage", "mu": "mu", "gamma": "gamma",
             "p_t": "power", "d_tr": "dtr", "rho": "rho", "kappa": "kappa"}
    out = tmp_path / "plan.json"
    argv = ["plan", "--out", str(out)]
    for key, flag in flags.items():
        argv += [f"--{flag}", repr(inputs[key])]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert list(doc)[-1] == "manifest"
    del doc["manifest"]
    assert json.dumps(doc, indent=2) + "\n" == entry["saved"]


def test_nu_closed_form_equals_variance_formulas():
    # the closed form is what the two variance formulas reduce to at n = 1
    mus = np.geomspace(1e-60, 1e60, 241).tolist()
    differ = [mu for mu in mus if planner.nu_constant(mu) != math.sqrt(max(
        moments.var_pl_nopath(1, mu), moments.var_pe_nopath(1, mu)))]
    assert differ == []


def _asdict_document(cfg, target, p) -> dict:
    doc = {"format_version": planner.FORMAT_VERSION}
    doc.update(dataclasses.asdict(p))
    doc.update({f"target_{k}": v for k, v in dataclasses.asdict(target).items()})
    doc["target_eps_prime"] = target.eps_prime
    doc.update({f"cfg_{k}": v for k, v in dataclasses.asdict(cfg).items()})
    return doc


@pytest.mark.parametrize("entry", [e for e in ENTRIES if "plan" in e][:6],
                         ids=_label)
def test_plan_document_equals_asdict_oracle(entry):
    probe, target = MAKE.planning_inputs(entry["inputs"])
    p = planner.plan(probe, target)
    cfg = MAKE.saved_config(probe, p)
    doc = planner.plan_document(cfg, target, p)
    oracle = _asdict_document(cfg, target, p)
    assert doc == oracle
    assert list(doc) == list(oracle)
    assert json.dumps(doc, indent=2) == json.dumps(oracle, indent=2)


def test_outage_report_document_equals_asdict_oracle():
    stats = {f"E{k}": EventStats(outage=k / 10, ci_low=k / 20, ci_high=k / 5)
             for k in range(1, 8)}
    report = OutageReport(
        n_trials=10, seed=3, event_outage=stats,
        composite=EventStats(outage=0.5, ci_low=0.25, ci_high=0.75),
        e6_outage_given_field=0.125, e6_outage_given_field_se=0.01,
        mean_p_l=np.float64(2.5), var_p_l=1.5, mean_max_p_e=0.25,
        var_max_p_e=0.0625, mean_total_relay_power=3.0)
    oracle = dataclasses.asdict(report)
    oracle["interval_method"] = "wilson-95"
    doc = report.to_dict()
    assert doc == oracle
    assert json.dumps(doc, indent=2) == json.dumps(oracle, indent=2)
    # the document is a copy: editing it leaves the report as it was
    doc["composite"]["outage"] = 1.0
    doc["event_outage"]["E1"]["outage"] = 1.0
    assert report.composite.outage == 0.5
    assert report.event_outage["E1"].outage == 0.1
