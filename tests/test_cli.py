import ast
import csv
import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import secbeam
from secbeam import cli, moments, montecarlo, planner
from secbeam.cli import main
from secbeam.geometry import NetworkConfig
from secbeam.planner import SecrecyTarget, plan


PLAN_FLAGS = ["--rate", "0.5", "--outage", "0.35"]


def run_plan(tmp_path, extra=()):
    out = tmp_path / "plan.json"
    code = main(["plan", *PLAN_FLAGS, "--out", str(out), *extra])
    return code, out


def edit_plan(path, drop=(), **changes):
    doc = json.loads(path.read_text())
    for key in drop:
        del doc[key]
    doc.update(changes)
    path.write_text(json.dumps(doc))


# --- argument handling -----------------------------------------------------

def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


def test_plan_requires_rate_and_outage():
    with pytest.raises(SystemExit):
        main(["plan", "--rate", "0.5"])
    with pytest.raises(SystemExit):
        main(["plan", "--outage", "0.35"])


def test_plan_rejects_bad_outage(capsys):
    for bad in ("0", "1", "1.5", "-0.1"):
        assert main(["plan", "--rate", "0.5", "--outage", bad]) == 2
        assert "outage must be in (0, 1)" in capsys.readouterr().err


def test_plan_rejects_nonpositive_rate(capsys):
    assert main(["plan", "--rate", "0", "--outage", "0.35"]) == 2
    assert "secure_rate must be positive" in capsys.readouterr().err


def test_verify_theorem4_requires_plan(capsys):
    assert main(["verify", "theorem4"]) == 2
    assert capsys.readouterr().err == "verify theorem4 requires --plan\n"


#: physics flags outside their domains, and theorem4 without its plan:
#: each is refused with one line, before any output file is opened
REFUSED = [
    *(["plan", *PLAN_FLAGS, *flags] for flags in (
        ["--gamma", "1"], ["--mu", "nan"], ["--rate", "inf"], ["--rho", "nan"],
        ["--dtr", "inf"], ["--power", "inf"], ["--kappa", "inf"])),
    *(["sweep", "--rate", "0.5:1:3", "--outage", "0.35", *flags] for flags in (
        ["--mu", "-1"], ["--outage", "2"], ["--power", "abc"])),
    ["sweep", *PLAN_FLAGS, "--mu", "0:1:3"],
    # a geometric grid through or below zero: its end leaves the domain
    *(["sweep", f"--rate={text}", "--outage", "0.35", "--log"]
      for text in ("0:1:3", "-5:-1:3")),
    *(["verify", "moments", "--samples", "10", "--mu", mu]
      for mu in ("nan", "inf", "1e300", "1e-300", "1e-81", "1e-78", "0", "-1")),
    ["verify", "theorem4"],
    # a square side outside the float range
    ["plan", *PLAN_FLAGS, "--nlegit", "1" + "0" * 400],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_bad_input_exits_2_with_one_line(tmp_path, argv):
    if argv[0] in ("plan", "sweep"):
        argv = [*argv, "--out", "out.txt"]
    proc = run_cli(argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "theorem4"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    _, plan_path = run_plan(tmp_path)
    argv = (["simulate", "--trials", "1"] if command == "simulate"
            else ["verify", "theorem4", "--samples", "2"])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--plan", str(plan_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert "must be non-negative, got -1" in capsys.readouterr().err


# --- plan ------------------------------------------------------------------

def test_plan_prints_summary_and_validation(capsys):
    assert main(["plan", *PLAN_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "mode=beamforming" in out
    assert "n_r=" in out
    assert out.count("ok") >= 7
    assert "VIOLATED" not in out


def test_plan_infeasible_exit_code(capsys):
    # receiver far inside the relay recruitment neighbourhood
    code = main(["plan", "--rate", "0.5", "--outage", "0.35", "--dtr", "1e-6"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_plan_infeasible_keeps_out_as_it_was(tmp_path, capsys):
    infeasible = ["plan", "--rate", "0.5", "--outage", "0.35", "--dtr", "1e-6"]
    new = tmp_path / "new.json"
    assert main([*infeasible, "--out", str(new)]) == 2
    assert not new.exists()
    old = tmp_path / "old.json"
    old.write_text("earlier plan\n")
    assert main([*infeasible, "--out", str(old)]) == 2
    assert old.read_text() == "earlier plan\n"


def run_cli(argv, cwd=None, timeout=300):
    """``secbeam <argv>`` in a fresh process; returns the finished process
    with its output decoded, line ends as written."""
    src = str(Path(secbeam.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "secbeam.cli", *argv],
                          capture_output=True, timeout=timeout, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src))
    proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
    return proc


@pytest.mark.parametrize("mu", ["1e80", "1e-300"])
def test_plan_moments_outside_float_range_exit_2(tmp_path, mu):
    # E{H^8} overflows at mu = 1e80; eta = 4*mu**2 underflows to 0 at 1e-300
    out = tmp_path / "plan.json"
    proc = run_cli(["plan", "--rate", "0.5", "--outage", "0.35", "--mu", mu,
                    "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "infeasible constraint moment_constants" in proc.stderr
    assert not out.exists()


def test_sweep_moments_outside_float_range_write_no_rows():
    # the middle value, mu = 1e-110, has eta > 0 but eta**2 == 0
    proc = run_cli(["sweep", "--rate", "0.5", "--outage", "0.35",
                    "--mu", "1e-300:1e80:3", "--log"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert [r[:3] for r in rows[1:]] == [
        ["1e-300", "no", "moment_constants"],
        ["1e-110", "no", "moment_constants"],
        ["1e+80", "no", "moment_constants"]]


@pytest.mark.parametrize("flags,constraint", [
    (["--rho", "1e-50"], "a_e_bound"),     # 2**(rho*R_S) - 1 underflows to 0
    (["--rho", "1e10"], "a_l_bound"),      # 2**((1+rho)*R_S) overflows
    (["--dtr", "1e-300"], "n_e_bound"),    # d_tr**-gamma overflows
    (["--power", "1e-300"], "a_l_bound"),  # a_l underflows to 0
    (["--mu", "1e-60"], "lambda_l_bound"),  # n_r / a_l**2 overflows
], ids=["rho-tiny", "rho-huge", "dtr-tiny", "power-tiny", "mu-tiny"])
def test_plan_bound_outside_float_range_exit_2(tmp_path, capsys, flags,
                                               constraint):
    out = tmp_path / "plan.json"
    assert main(["plan", *PLAN_FLAGS, *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"infeasible constraint {constraint}:" in captured.err
    # the reason is the float range, not a NaN self-check margin
    assert "self-check" not in captured.err
    assert not out.exists()


def test_sweep_bound_outside_float_range_writes_no_row():
    proc = run_cli(["sweep", *PLAN_FLAGS, "--power", "1e-300:1:2", "--log"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert [r[:3] for r in rows[1:]] == [["1e-300", "no", "a_l_bound"],
                                         ["1.0", "yes", "beamforming"]]


#: a feasible target whose default network square would hold more
#: legitimate nodes than the float range (lambda_l_min is about 1.3e308)
EXTENT_FLAGS = ["--rate", "0.5838545984233751", "--outage", "0.7448075942464373",
                "--mu", "7.41709285904938e-60", "--power", "0.002346746109537296",
                "--dtr", "1.212853695046593", "--rho", "2.7554763931929216",
                "--kappa", "0.2655318743661818"]


def test_plan_network_extent_outside_float_range_exit_2(tmp_path, capsys):
    new = tmp_path / "new.json"
    assert main(["plan", *EXTENT_FLAGS, "--out", str(new)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "infeasible constraint network_extent:" in captured.err
    assert not new.exists()
    old = tmp_path / "old.json"
    old.write_text("earlier plan\n")
    assert main(["plan", *EXTENT_FLAGS, "--out", str(old)]) == 2
    assert old.read_text() == "earlier plan\n"


def test_sweep_above_2_53_relays_agrees_with_plan():
    # mu = 3.45e-7 plans n_r > 2**53, which the planner must compare with
    # its bound as an int, not as a float: the row is the plan
    mu = "3.450213329218536e-07"
    proc = run_cli(["sweep", *PLAN_FLAGS, "--mu", "1e-60:1e60:3000", "--log"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    row = next(r for r in csv.reader(proc.stdout.splitlines()) if r[0] == mu)
    p = plan(NetworkConfig(p_t=1.0, mu=float(mu), gamma=2.0, d_tr=5.0,
                           lambda_l=1.0, lambda_e=0.0, n_legit=1),
             SecrecyTarget(secure_rate=0.5, outage=0.35))
    assert p.n_r > 2 ** 53
    assert row == [mu, "yes", p.mode, str(p.n_r), repr(p.a_l), repr(p.a_e),
                   repr(p.lambda_l_min), repr(p.lambda_e_max), str(p.n_e_max),
                   repr(p.eta), repr(p.nu)]


def test_plan_round_trip_full_precision(tmp_path, capsys):
    code, out = run_plan(tmp_path)
    assert code == 0
    cfg, target, loaded = planner.load_plan(out)

    probe = NetworkConfig(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0,
                          lambda_l=1.0, lambda_e=0.0, n_legit=1)
    direct = plan(probe, SecrecyTarget(secure_rate=0.5, outage=0.35))
    # every float must survive the JSON round trip bit-for-bit
    assert loaded == direct
    assert cfg.lambda_l == direct.lambda_l_min
    assert cfg.lambda_e == direct.lambda_e_max
    assert target == SecrecyTarget(secure_rate=0.5, outage=0.35)


def test_plan_json_carries_manifest(tmp_path):
    _, out = run_plan(tmp_path)
    doc = json.loads(out.read_text())
    assert doc["format_version"] == planner.FORMAT_VERSION
    assert doc["manifest"]["command"] == "plan"
    assert doc["manifest"]["parameters"]["rate"] == 0.5
    assert str(out) in doc["manifest"]["outputs"]


# --- simulate --------------------------------------------------------------

def test_simulate_missing_plan_file(tmp_path, capsys):
    code = main(["simulate", "--plan", str(tmp_path / "nope.json"),
                 "--trials", "5"])
    assert code == 2
    assert "cannot load plan" in capsys.readouterr().err


def test_simulate_rejects_stale_plan_version(tmp_path, capsys):
    _, out = run_plan(tmp_path)
    edit_plan(out, format_version="something-else")
    code = main(["simulate", "--plan", str(out), "--trials", "5"])
    assert code == 2


@pytest.mark.parametrize("drop,changes", [(["cfg_mu"], {}), ([], {"n_r": 0})],
                         ids=["missing_config_key", "zero_relays"])
def test_simulate_rejects_unusable_plan(tmp_path, capsys, drop, changes):
    _, out = run_plan(tmp_path)
    edit_plan(out, drop=drop, **changes)
    code = main(["simulate", "--plan", str(out), "--trials", "5"])
    assert code == 2
    assert "cannot load plan" in capsys.readouterr().err


def test_edited_plan_fails_validation(tmp_path, capsys):
    # too few relays for the stage-2 Chebyshev bound
    _, out = run_plan(tmp_path)
    edit_plan(out, n_r=50)
    capsys.readouterr()
    for argv in (["simulate", "--plan", str(out), "--trials", "5"],
                 ["verify", "theorem4", "--plan", str(out), "--samples", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "plan violates n_r_bound" in captured.err
        assert captured.out == ""


def test_simulate_outputs(tmp_path, capsys, monkeypatch):
    _, plan_path = run_plan(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    csv_path = tmp_path / "trials.csv"
    json_path = tmp_path / "report.json"
    code = main(["simulate", "--plan", str(plan_path), "--trials", "20",
                 "--seed", "5", "--csv", str(csv_path),
                 "--json", str(json_path)])
    assert code == 0
    text = capsys.readouterr().out
    for name in ("E1", "E4", "E7", "composite"):
        assert name in text

    lines = csv_path.read_text().splitlines()
    assert len(lines) == 21
    assert lines[0].startswith("trial_index,E1,")

    doc = json.loads(json_path.read_text())
    assert doc["n_trials"] == 20
    assert doc["seed"] == 5
    assert doc["interval_method"] == "wilson-95"
    assert doc["manifest"]["command"] == "simulate"
    assert doc["manifest"]["stream_version"] == montecarlo.STREAM_VERSION
    assert set(doc["manifest"]["versions"]) == {"python", "numpy", "secbeam"}
    assert doc["manifest"]["usable_cpus"] == 3
    assert doc["manifest"]["workers"] == 3
    assert set(doc["event_outage"]) == {f"E{k}" for k in range(1, 8)}
    # the E6 estimate given each trial's relay field sits outside the events
    assert 0.0 <= doc["e6_outage_given_field"] <= 1.0
    assert doc["e6_outage_given_field_se"] >= 0.0
    assert "E6 given the relay field" in text


@pytest.mark.parametrize("plan_edit", ["eaves", "short"])
def test_simulate_outputs_do_not_depend_on_thread_count(
        tmp_path, monkeypatch, plan_edit):
    # 11 trials in windows of 4, 4 and 3 on 1, 2 and 3 threads: at 20x
    # lambda_e_max most trials have eavesdroppers; with about n_r nodes
    # expected in the relay disc, E1 fails in some trials
    _, plan_path = run_plan(tmp_path)
    _, _, p = planner.load_plan(plan_path)
    if plan_edit == "eaves":
        edit_plan(plan_path, cfg_lambda_e=20 * p.lambda_e_max)
    else:
        edit_plan(plan_path, cfg_lambda_l=p.n_r / (np.pi * p.a_l ** 2))
    monkeypatch.setattr(montecarlo, "WINDOW", 4)
    csvs, docs = [], []
    for n in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n: set(range(n)))
        csv_path, json_path = tmp_path / f"t{n}.csv", tmp_path / f"r{n}.json"
        assert main(["simulate", "--plan", str(plan_path), "--trials", "11",
                     "--seed", "6", "--csv", str(csv_path),
                     "--json", str(json_path)]) == 0
        csvs.append(csv_path.read_bytes())
        doc = json.loads(json_path.read_text())
        assert doc.pop("manifest")["workers"] == n
        docs.append(doc)
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]
    assert docs[1] == docs[0] and docs[2] == docs[0]
    rows = list(csv.DictReader(csvs[0].decode().splitlines()))
    if plan_edit == "eaves":
        assert sum(float(r["max_P_e"]) > 0 for r in rows) > len(rows) / 2
    else:
        assert {r["E1"] for r in rows} == {"0", "1"}


def test_simulate_streamed_csv_matches_batch_writer(tmp_path):
    # rows streamed during the run equal the batch writer's file
    _, plan_path = run_plan(tmp_path)
    streamed = tmp_path / "streamed.csv"
    assert main(["simulate", "--plan", str(plan_path), "--trials", "6",
                 "--seed", "4", "--csv", str(streamed)]) == 0
    cfg, target, p = planner.load_plan(plan_path)
    outcomes = []
    montecarlo.estimate_outage(p, cfg, target, 6, 4, collect=outcomes.append)
    batch = tmp_path / "batch.csv"
    montecarlo.write_trials_csv(batch, outcomes)
    assert streamed.read_bytes() == batch.read_bytes()


def test_simulate_outputs_overwrite_longer_files(tmp_path):
    # outputs are written over existing files in place and end with the run
    _, plan_path = run_plan(tmp_path)
    argv = ["simulate", "--plan", str(plan_path), "--trials", "3", "--seed", "2"]
    fresh = (tmp_path / "fresh.csv", tmp_path / "fresh.json")
    old = (tmp_path / "old.csv", tmp_path / "old.json")
    for path in old:
        path.write_text("x" * 100_000)
    for csv_path, json_path in (fresh, old):
        assert main([*argv, "--csv", str(csv_path), "--json", str(json_path)]) == 0
    assert old[0].read_bytes() == fresh[0].read_bytes()
    docs = [json.loads(path.read_text()) for path in (fresh[1], old[1])]
    for doc in docs:
        del doc["manifest"]
    assert docs[0] == docs[1]


def test_outputs_to_dev_null(tmp_path):
    # /dev/null seeks but holds nothing, so no output is cut there
    _, plan_path = run_plan(tmp_path)
    assert main(["plan", *PLAN_FLAGS, "--out", os.devnull]) == 0
    assert main(["simulate", "--plan", str(plan_path), "--trials", "2",
                 "--csv", os.devnull, "--json", os.devnull]) == 0
    assert main(["sweep", "--rate", "0.25:1:3", "--outage", "0.35",
                 "--out", os.devnull]) == 0


def test_simulate_unwritable_json_leaves_existing_csv(tmp_path):
    _, plan_path = run_plan(tmp_path)
    csv_path = tmp_path / "trials.csv"
    csv_path.write_text("an earlier run\n")
    assert main(["simulate", "--plan", str(plan_path), "--trials", "2",
                 "--csv", str(csv_path),
                 "--json", str(tmp_path / "missing" / "report.json")]) == 2
    assert csv_path.read_text() == "an earlier run\n"


def test_simulate_unwritable_csv_exits_before_trials(tmp_path, capsys):
    _, plan_path = run_plan(tmp_path)
    capsys.readouterr()
    assert main(["simulate", "--plan", str(plan_path), "--trials", "2",
                 "--csv", str(tmp_path / "missing" / "trials.csv")]) == 2
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert captured.out == ""


def test_simulate_unwritable_json_exits_before_trials(tmp_path, capsys):
    _, plan_path = run_plan(tmp_path)
    capsys.readouterr()
    json_path = tmp_path / "missing" / "report.json"
    assert main(["simulate", "--plan", str(plan_path), "--trials", "2",
                 "--json", str(json_path)]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {json_path}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field,value", [("n_r", 110446.0), ("n_e_max", 964.0),
                                         ("n_r", True), ("cfg_n_legit", float("nan")),
                                         pytest.param("cfg_n_legit", 10 ** 400,
                                                      id="cfg_n_legit-10**400")])
def test_plan_counts_must_be_integers(tmp_path, field, value):
    # in fresh processes with a deadline: with a NaN node count the
    # eavesdropper rejection loop of theorem 4 would never end
    _, out = run_plan(tmp_path)
    edit_plan(out, **{field: value})
    for argv in (["simulate", "--plan", str(out), "--trials", "2"],
                 ["verify", "theorem4", "--plan", str(out), "--samples", "2"]):
        proc = run_cli(argv, timeout=60)
        assert proc.returncode == 2
        assert f"{field.removeprefix('cfg_')} must be an integer" in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""


PLAN_FILE_LOAD = "cannot load plan: {field} must be "

PLAN_FILE_EDITS = [
    ([], "n_e_max", lambda doc: -5, PLAN_FILE_LOAD),
    # a negative radius makes the stage-1 rate sum negative, so E3 could
    # never fail
    (["--gamma", "3"], "a_l", lambda doc: -doc["a_l"], PLAN_FILE_LOAD),
    # each field a run reads or reports, edited alone: every one passed
    # the plan checks, or failed them only as a math domain error
    ([], "lambda_e_max", lambda doc: -1.0, "plan violates lambda_e_bound: "),
    ([], "eps_prime", lambda doc: -1.0, PLAN_FILE_LOAD),
    ([], "a_l_raw", lambda doc: -1.0, PLAN_FILE_LOAD),
    ([], "nu", lambda doc: -1.0, PLAN_FILE_LOAD),
    ([], "eta", lambda doc: -1.0, PLAN_FILE_LOAD),
    # the checks read a_l_raw, and the runs a_l
    ([], "a_l", lambda doc: 3 * doc["a_l"], "cannot load plan: a_l_raw must be "),
]


@pytest.mark.parametrize("flags,field,edit,message", PLAN_FILE_EDITS,
                         ids=["n_e_max-negative", "a_l-negated-gamma3",
                              "lambda_e_max-negative", "eps_prime-negative",
                              "a_l_raw-negative", "nu-negative", "eta-negative",
                              "a_l-tripled"])
def test_plan_file_outside_its_domain(tmp_path, capsys, flags, field, edit,
                                      message):
    # each passes validate_plan, or fails it by accident; load_plan and
    # validate_plan refuse them by name
    _, out = run_plan(tmp_path, flags)
    doc = json.loads(out.read_text())
    edit_plan(out, **{field: edit(doc)})
    capsys.readouterr()
    for argv in (["simulate", "--plan", str(out), "--trials", "20"],
                 ["verify", "theorem4", "--plan", str(out), "--samples", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message.format(field=field))
        assert captured.err.count("\n") == 1 and captured.out == ""


def test_simulate_rejects_relay_disc_outside_square(tmp_path, capsys):
    # one legitimate node: the square is far smaller than the relay disc
    _, out = run_plan(tmp_path)
    edit_plan(out, cfg_n_legit=1)
    capsys.readouterr()
    csv_path = tmp_path / "trials.csv"
    assert main(["simulate", "--plan", str(out), "--trials", "2",
                 "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert "relay disc" in captured.err and "network square" in captured.err
    assert captured.out == ""
    assert not csv_path.exists()
    # theorem 4 never uses the square and still accepts the plan
    assert main(["verify", "theorem4", "--plan", str(out), "--samples", "2"]) in (0, 1)


@pytest.mark.parametrize("mode", ["direct", "banana"])
def test_plan_mode_must_match_geometry(tmp_path, capsys, mode):
    # the reference geometry gives "beamforming" (d_tr > 2*a_l)
    _, out = run_plan(tmp_path)
    edit_plan(out, mode=mode)
    capsys.readouterr()
    csv_path = tmp_path / "trials.csv"
    for argv in (["simulate", "--plan", str(out), "--trials", "2",
                  "--csv", str(csv_path)],
                 ["verify", "theorem4", "--plan", str(out), "--samples", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"cannot load plan: mode {mode!r}" in captured.err
        assert captured.out == ""
    assert not csv_path.exists()


def test_simulate_poisson_mean_out_of_range_exits_2(tmp_path):
    # 1e30 eavesdroppers per unit area put ~3e32 in the square, past the
    # largest mean numpy's Poisson sampler takes; a trial never starts
    code, out = run_plan(tmp_path)
    assert code == 0
    edit_plan(out, cfg_lambda_e=1e30)
    csv_path, json_path = tmp_path / "trials.csv", tmp_path / "report.json"
    proc = run_cli(["simulate", "--plan", str(out), "--trials", "2",
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "Poisson" in proc.stderr and "eavesdroppers" in proc.stderr
    assert not csv_path.exists() and not json_path.exists()


def test_simulate_accepts_poisson_means_up_to_the_limit(tmp_path, capsys):
    # the check sits at numpy's limit, not at the plan's lambda_e_max: a
    # plan run at 20x lambda_e_max still simulates
    code, out = run_plan(tmp_path)
    cfg, _, p = planner.load_plan(out)
    edit_plan(out, cfg_lambda_e=20 * p.lambda_e_max)
    assert main(["simulate", "--plan", str(out), "--trials", "2"]) == 0
    assert max(montecarlo.expected_counts(p, cfg)) < montecarlo.POISSON_MEAN_MAX
    rng = np.random.default_rng(0)
    rng.poisson(montecarlo.POISSON_MEAN_MAX)
    with pytest.raises(ValueError):
        rng.poisson(np.nextafter(montecarlo.POISSON_MEAN_MAX, np.inf))


def test_simulate_direct_mode_plan_exits_2(tmp_path, capsys):
    # at this power the relay disc reaches the receiver: no relay beamforms
    code, out = run_plan(tmp_path, ["--power", "1e9"])
    assert code == 0 and json.loads(out.read_text())["mode"] == "direct"
    capsys.readouterr()
    csv_path = tmp_path / "trials.csv"
    assert main(["simulate", "--plan", str(out), "--trials", "2",
                 "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "direct-mode plan" in captured.err
    assert captured.out == ""
    assert not csv_path.exists()


def test_verify_theorem4_direct_mode_plan_exits_2(tmp_path, capsys):
    # no relay beamforms, so theorem 4 has no relay disc to bound: one
    # line and exit 2, not the ValueError of the bounds
    code, out = run_plan(tmp_path, ["--power", "1e9"])
    assert code == 0 and json.loads(out.read_text())["mode"] == "direct"
    capsys.readouterr()
    assert main(["verify", "theorem4", "--plan", str(out),
                 "--samples", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "direct-mode plan" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_plan_into_a_closed_pipe(tmp_path, buffered):
    # ``secbeam plan ... | head -0``: the reader is gone before the first
    # line.  Exit 1 with nothing on stderr, and the plan file is whole,
    # whether the summary waits in stdout's buffer or is written at once
    out = tmp_path / "plan.json"
    src = str(Path(secbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "secbeam.cli", "plan", *PLAN_FLAGS,
             "--out", str(out)], stdout=write, stderr=subprocess.PIPE,
            text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""
    _cfg, _target, p = planner.load_plan(out)
    assert p.mode == "beamforming"


def test_simulate_reruns_byte_identical(tmp_path):
    _, plan_path = run_plan(tmp_path)
    blobs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"trials_{tag}.csv"
        assert main(["simulate", "--plan", str(plan_path), "--trials", "10",
                     "--seed", "9", "--csv", str(csv_path)]) == 0
        blobs.append(csv_path.read_bytes())
    assert blobs[0] == blobs[1]


# --- verify ----------------------------------------------------------------

def test_verify_moments(capsys):
    code = main(["verify", "moments", "--mu", "0.5", "--nr", "3",
                 "--samples", "50000", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("mean_P_l", "var_P_l", "mean_P_e", "var_P_e"):
        assert name in out


def test_verify_theorem4(tmp_path, capsys):
    _, plan_path = run_plan(tmp_path)
    code = main(["verify", "theorem4", "--plan", str(plan_path),
                 "--samples", "2000", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_P_l_lower" in out
    assert "VIOLATED" not in out


def test_verify_theorem4_allows_noise_below_a_bound(tmp_path, capsys):
    # at 74 samples, seed 502 puts mean_P_l by about 0.09 below its bound,
    # about 0.7 standard errors: within noise, not a broken bound
    _, plan_path = run_plan(tmp_path)
    code = main(["verify", "theorem4", "--plan", str(plan_path),
                 "--samples", "74", "--seed", "502"])
    out = capsys.readouterr().out
    line = next(x for x in out.splitlines() if "mean_P_l_lower" in x)
    bound, estimate = (float(x.split("=")[1]) for x in line.split()[1:3])
    assert estimate < bound
    assert code == 0
    assert "VIOLATED" not in out


def test_verify_theorem4_flags_a_broken_bound(tmp_path, capsys, monkeypatch):
    _, plan_path = run_plan(tmp_path)
    exact = moments.power_moment_bounds

    def shifted(*args):
        b = exact(*args)
        return dataclasses.replace(b, mean_pl_lower=2.0 * b.mean_pl_lower)

    monkeypatch.setattr(moments, "power_moment_bounds", shifted)
    code = main(["verify", "theorem4", "--plan", str(plan_path),
                 "--samples", "74", "--seed", "501"])
    captured = capsys.readouterr()
    assert code == 1
    assert [x.split()[0] for x in captured.out.splitlines()
            if x.endswith("VIOLATED")] == ["mean_P_l_lower"]
    assert "FAIL mean_P_l_lower" in captured.err


def test_verify_theorem4_output_does_not_depend_on_thread_count(
        tmp_path, capsys, monkeypatch):
    _, plan_path = run_plan(tmp_path)
    outputs = []
    for n in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n: set(range(n)))
        capsys.readouterr()
        main(["verify", "theorem4", "--plan", str(plan_path),
              "--samples", "12", "--seed", "9"])
        outputs.append(capsys.readouterr().out)
    assert "mean_P_l_lower" in outputs[0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def limited(argv, limit_bytes):
    """Arguments of subprocess.run or Popen for ``secbeam <argv>`` in a
    child process whose address space is capped at ``limit_bytes``
    (RLIMIT_AS), with one BLAS thread, since every BLAS thread's buffers
    count against the cap too."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    src = str(Path(secbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return dict(args=[sys.executable, "-m", "secbeam.cli", *argv], text=True,
                env=env, preexec_fn=cap)


def run_limited(argv, limit_bytes):
    """Run ``secbeam <argv>`` under ``limited``; returns the finished
    process with its captured output."""
    return subprocess.run(**limited(argv, limit_bytes), capture_output=True,
                          timeout=300)


def test_huge_relay_count_in_bounded_memory(tmp_path, capsys):
    # n_r = 53 101 045: a trial's relays as arrays would take 1.19 GiB, but
    # both samplers walk the relays in fixed-size pieces
    plan_path = tmp_path / "plan.json"
    assert main(["plan", "--rate", "5", "--outage", "0.35",
                 "--out", str(plan_path)]) == 0
    assert "n_r=53101045 " in capsys.readouterr().out
    verify = run_limited(["verify", "theorem4", "--plan", str(plan_path),
                          "--samples", "2"], 1 << 30)
    assert verify.returncode in (0, 1), verify.stderr
    assert "Traceback" not in verify.stderr
    assert "mean_P_l_lower" in verify.stdout
    csv_path = tmp_path / "trials.csv"
    csv_path.write_text("x" * 10_000)
    simulate = run_limited(["simulate", "--plan", str(plan_path),
                            "--trials", "1", "--csv", str(csv_path)], 1 << 30)
    assert simulate.returncode == 0, simulate.stderr
    assert "Traceback" not in simulate.stderr
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(montecarlo.CSV_COLUMNS)
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_simulate_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    # trial 5 runs out of memory, in a window of 4 trials on 3 threads: one
    # line, exit 2, and the CSV keeps trials 0-4 without the old tail
    _, plan_path = run_plan(tmp_path)
    n_r = json.loads(plan_path.read_text())["n_r"]
    csv_path = tmp_path / "trials.csv"
    csv_path.write_text("x" * 10_000)
    monkeypatch.setattr(montecarlo, "WINDOW", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    run_trial = montecarlo.run_trial

    def failing(p, cfg, target, trial_index, seed):
        if trial_index == 5:
            raise MemoryError("no room")
        return run_trial(p, cfg, target, trial_index, seed)

    monkeypatch.setattr(montecarlo, "run_trial", failing)
    capsys.readouterr()
    assert main(["simulate", "--plan", str(plan_path), "--trials", "12",
                 "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == f"cannot simulate n_r={n_r} relays: no room\n"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(montecarlo.CSV_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


def test_verify_moments_streams_samples_in_bounded_memory():
    # 5e7 samples held at once took over 1 GiB, and the run exited 2 in a
    # 1 GiB address space; drawn and reduced a chunk at a time they fit
    verify = run_limited(["verify", "moments", "--samples", "50000000"],
                         1 << 30)
    assert verify.returncode == 0, verify.stderr
    assert verify.stderr == ""
    assert "var_P_e" in verify.stdout


def test_verify_lemmas_memory_does_not_grow_with_samples():
    # lemmas checks its inequalities exactly and draws no samples, so
    # --samples 10**12 fits in a 1 GiB address space and prints what
    # --samples 2 prints
    runs = [run_limited(["verify", "lemmas", "--samples", samples,
                         "--instances", "1"], 1 << 30)
            for samples in (str(10 ** 12), "2")]
    for verify in runs:
        assert verify.returncode == 0, verify.stderr
        assert verify.stderr == ""
    assert runs[0].stdout == runs[1].stdout
    assert "1 instances checked, 0 failures" in runs[0].stdout


def test_verify_theorem4_missing_plan_file(tmp_path, capsys):
    code = main(["verify", "theorem4", "--plan", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot load plan" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["moments", "theorem4"])
def test_verify_rejects_single_sample(tmp_path, capsys, what):
    # a sample variance needs two samples: one would give z=nan
    _, plan_path = run_plan(tmp_path)
    capsys.readouterr()
    assert main(["verify", what, "--plan", str(plan_path),
                 "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert "--samples >= 2" in captured.err
    assert captured.out == ""


Z_SCORE_CASES = [*((mu, "3") for mu in ("1e40", "1e50", "1e70", "1e76", "1e-60",
                                          "1e-70", "1e-76")),
                 ("1e73", "1000000"), ("1e76", "32")]


@pytest.mark.parametrize("mu,nr", Z_SCORE_CASES,
                         ids=[mu if nr == "3" else f"{mu}-{nr}"
                              for mu, nr in Z_SCORE_CASES])
def test_verify_moments_z_scores_do_not_depend_on_mu(capsys, mu, nr):
    # P_l and P_e are reduced in units of (2*mu)**2, so their sample fourth
    # powers stay in the float range, and each z-score is that of mu = 1/2.
    # The closed forms are taken at mu = 1/2 and scaled too: at 1e73 and
    # 1e76 a term of var_P_l at mu itself overflows, though the sum does not
    def z_scores(mu):
        assert main(["verify", "moments", "--mu", mu, "--nr", nr,
                     "--samples", "100", "--seed", "0"]) == 0
        return [line.rsplit("z=", 1)[1]
                for line in capsys.readouterr().out.splitlines()]

    assert z_scores(mu) == z_scores("0.5")


def test_verify_moments_huge_relay_count():
    # two draws per sample, none per relay: a billion relays cost nothing
    assert main(["verify", "moments", "--nr", "1000000000",
                 "--samples", "1000"]) == 0


def test_verify_moments_zero_standard_error_no_traceback():
    # at n_r = 1e21 the plug-in standard error of var_P_e is 0
    proc = run_cli(["verify", "moments", "--nr", "1000000000000000000000",
                    "--samples", "10", "--seed", "211"])
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    assert " var_P_e " in proc.stdout


def test_verify_moments_nan_z_fails(monkeypatch, capsys):
    nan_check = montecarlo.Check("mean_P_l", 1.0, float("nan"), 1.0, "both")
    monkeypatch.setattr(montecarlo, "verify_moments",
                        lambda *args: [nan_check])
    assert main(["verify", "moments", "--samples", "10"]) == 1
    assert "FAIL mean_P_l z=+nan" in capsys.readouterr().err


WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def worker_line_patterns() -> dict:
    """The benchmark worker's parsers of check lines, ``_MOMENT_LINE`` and
    ``_T4_LINE``, compiled from the worker's source text; the worker itself
    is never imported."""
    patterns = {}
    for node in ast.parse(WORKER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("_MOMENT_LINE", "_T4_LINE")):
            patterns[node.targets[0].id] = re.compile(
                ast.literal_eval(node.value.args[0]))
    assert set(patterns) == {"_MOMENT_LINE", "_T4_LINE"}
    return patterns


def test_verify_check_lines_match_the_benchmark_parsers(tmp_path, capsys,
                                                        monkeypatch):
    # the benchmark reads each verify check line with these patterns; a
    # line they do not match would count as a wrong output there
    patterns = worker_line_patterns()
    _, plan_path = run_plan(tmp_path)
    moment_names = ["mean_P_l", "var_P_l", "mean_P_e", "var_P_e"]
    bound_names = ["mean_P_l_lower", "mean_P_e_upper", "var_P_l_upper",
                   "var_P_e_upper"]

    def check_lines(argv, pattern, names):
        main(argv)
        lines = capsys.readouterr().out.splitlines()
        matches = [pattern.match(line) for line in lines]
        assert all(matches), lines
        assert [m.group(1) for m in matches] == names

    capsys.readouterr()
    for flags in (["--nr", "32", "--samples", "2000"],
                  ["--mu", "1e76", "--nr", "32", "--samples", "100"]):
        check_lines(["verify", "moments", *flags], patterns["_MOMENT_LINE"],
                    moment_names)
    check_lines(["verify", "theorem4", "--plan", str(plan_path),
                 "--samples", "8"], patterns["_T4_LINE"], bound_names)
    # NaN and infinite values, and failed checks, print in the same forms
    odd = [(math.nan, math.nan), (math.inf, 1.0), (-math.inf, 0.0), (0.0, 0.0)]

    def fake(names, side):
        return lambda *args: [montecarlo.Check(n, 1.0, est, se, side)
                              for n, (est, se) in zip(names, odd)]

    monkeypatch.setattr(montecarlo, "verify_moments", fake(moment_names, "both"))
    monkeypatch.setattr(montecarlo, "verify_power_bounds",
                        fake(bound_names, "upper"))
    check_lines(["verify", "moments", "--samples", "10"],
                patterns["_MOMENT_LINE"], moment_names)
    check_lines(["verify", "theorem4", "--plan", str(plan_path),
                 "--samples", "8"], patterns["_T4_LINE"], bound_names)


def test_verify_lemmas(capsys):
    code = main(["verify", "lemmas", "--instances", "10000", "--seed", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "  10000 instances checked, 0 failures\n"
    assert captured.err == ""


@pytest.mark.parametrize("broken", ["gap", "cap", "both"])
def test_verify_lemmas_failures_exit_1(capsys, monkeypatch, broken):
    # each broken inequality gives one FAIL line per instance, and exit 1
    if broken in ("gap", "both"):
        monkeypatch.setattr(moments, "third_moment_gap", lambda dist: -1.0)
    if broken in ("cap", "both"):
        monkeypatch.setattr(moments, "weighted_variance_exact",
                            lambda a, b, dist: (2.0, 1.0))
    assert main(["verify", "lemmas", "--instances", "3"]) == 1
    captured = capsys.readouterr()
    want = []
    for i in range(3):
        if broken in ("gap", "both"):
            want.append(f"  FAIL third-moment gap -1.0 < 0 (instance {i})")
        if broken in ("cap", "both"):
            want.append(f"  FAIL variance cap violated at instance {i}")
    assert captured.err.splitlines() == want
    assert captured.out == f"  3 instances checked, {len(want)} failures\n"


# --- sweep -----------------------------------------------------------------

def test_plan_unwritable_out_exits_2(tmp_path, capsys):
    # plan plans first (well under a millisecond), then opens --out
    out = tmp_path / "missing" / "plan.json"
    assert main(["plan", *PLAN_FLAGS, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write {out}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.parent.exists()


def test_sweep_unwritable_out_exits_before_planning(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "sweep.csv"
    monkeypatch.setattr(planner, "plan", lambda *a, **k: pytest.fail("planned"))
    assert main(["sweep", "--rate", "0.25:1.0:4", "--outage", "0.35",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err
    assert captured.out == ""


def test_sweep_requires_exactly_one_range(capsys):
    code = main(["sweep", "--rate", "0.5", "--outage", "0.35"])
    assert code == 2
    code = main(["sweep", "--rate", "0.1:1:3", "--outage", "0.1:0.3:3"])
    assert code == 2
    capsys.readouterr()
    code = main(["sweep", *PLAN_FLAGS, "--rho", "0.1:1:3", "--kappa", "0.1:1:3"])
    assert code == 2
    assert capsys.readouterr().err == (
        "exactly one flag must carry a lo:hi:steps range, and every other a "
        "number; not numbers: --rho, --kappa\n")


@pytest.mark.parametrize("name", ["rho", "kappa"])
def test_sweep_rho_and_kappa_grids(tmp_path, name):
    # every row is the plan of its target: rho moves the eavesdropper side
    # alone, kappa the relay count
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *PLAN_FLAGS, f"--{name}", "0.05:3:4",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    probe = NetworkConfig(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0,
                          lambda_l=1.0, lambda_e=0.0, n_legit=1)
    values = np.linspace(0.05, 3.0, 4)
    assert [float(r[name]) for r in rows] == list(values)
    for row, value in zip(rows, values):
        p = plan(probe, SecrecyTarget(secure_rate=0.5, outage=0.35,
                                      **{name: float(value)}))
        assert row["feasible"] == "yes"
        assert int(row["n_r"]) == p.n_r
        assert float(row["lambda_e_max"]) == p.lambda_e_max
    n_r = [int(r["n_r"]) for r in rows]
    lambda_e = [float(r["lambda_e_max"]) for r in rows]
    if name == "rho":
        assert n_r == [110446] * 4 and lambda_e == sorted(set(lambda_e))
    else:
        assert n_r == sorted(set(n_r)) and len(set(lambda_e)) == 1


def test_sweep_kappa_range_outside_domain(capsys):
    assert main(["sweep", *PLAN_FLAGS, "--kappa", "0:1:3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "bad input: kappa must be positive, got 0.0\n"
    assert captured.out == ""


def test_sweep_rate_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--rate", "0.25:1.0:4", "--outage", "0.35",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].split(",")[0] == "rate"
    assert all(line.split(",")[1] == "yes" for line in lines[1:])


def test_sweep_cells_are_plain_numbers(tmp_path):
    # np.linspace values and numpy plan fields must not leak their reprs
    # (np.float64(0.25)) into the CSV; the d_tr sweep ends on an infeasible
    # point, whose row keeps only the swept value
    sweeps = {"rate": ["--rate", "0.25:1.0:2", "--outage", "0.35"],
              "dtr": ["--rate", "0.5", "--outage", "0.35", "--dtr", "5:1e-6:2"]}
    for name, flags in sweeps.items():
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", *flags, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["feasible"] for r in rows] == (
            ["yes", "yes"] if name == "rate" else ["yes", "no"])
        for row in rows:
            for column, cell in row.items():
                if column not in ("feasible", "mode") and cell != "":
                    float(cell)


def test_sweep_overwrites_longer_file(tmp_path):
    argv = ["sweep", "--rate", "0.25:1.0:4", "--outage", "0.35", "--out"]
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_text("x" * 100_000)
    assert main([*argv, str(fresh)]) == 0
    assert main([*argv, str(old)]) == 0
    assert old.read_bytes() == fresh.read_bytes()
    # a pipe cannot seek and takes the rows without a cut
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader:
        try:
            assert main([*argv, f"/dev/fd/{write_fd}"]) == 0
        finally:
            os.close(write_fd)
        assert reader.read() == fresh.read_bytes()


def test_sweep_lambda_l_feasibility(tmp_path):
    # three decades around the minimum legitimate density
    probe = NetworkConfig(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0,
                          lambda_l=1.0, lambda_e=0.0, n_legit=1)
    p = plan(probe, SecrecyTarget(secure_rate=0.5, outage=0.35))
    # geometric grid placed so no point lands exactly on the threshold
    lo, hi = p.lambda_l_min / 10.0, p.lambda_l_min * 100.0
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--rate", "0.5", "--outage", "0.35",
                 "--lambda-l", f"{lo}:{hi}:5", "--log", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["no", "no", "yes", "yes", "yes"]
    # the planned geometry ignores the ambient density entirely
    assert len({r[3] for r in rows}) == 1   # n_r
    assert len({r[4] for r in rows}) == 1   # a_l
    assert len({r[5] for r in rows}) == 1   # a_e


GRIDS = [("0.25:1.0:4", False), ("0.1:1:7", False), ("5:1e-6:2", False),
         ("1:1:5", False), ("0.5:0.5:1", False), ("1e-3:10:9", True),
         ("2:2:3", True)]


@pytest.mark.parametrize("block", [2, 3, 4096])
def test_sweep_grid_values_are_numpy_values(monkeypatch, block):
    # the grid yields the values np.linspace / np.geomspace give, bit for
    # bit and as numpy floats, whatever the block they are computed in
    monkeypatch.setattr(cli, "GRID_BLOCK", block)
    for text, log in GRIDS:
        lo, hi, steps = text.split(":")
        space = np.geomspace if log else np.linspace
        want = ([float(lo)] if steps == "1" else
                list(space(float(lo), float(hi), int(steps))))
        got = list(cli._parse_range(text, log))
        assert [type(x) for x in got] == [type(x) for x in want], text
        assert np.array(got).tobytes() == np.array(want).tobytes(), text


def test_sweep_csv_does_not_depend_on_grid_block(tmp_path, monkeypatch):
    runs = {}
    for block in (2, 4096):
        monkeypatch.setattr(cli, "GRID_BLOCK", block)
        for name, flags in (("linear", ["--rate", "0.25:2.0:5"]),
                            ("log", ["--rate", "0.25:2.0:5", "--log"])):
            out = tmp_path / f"{name}-{block}.csv"
            assert main(["sweep", *flags, "--outage", "0.35",
                         "--out", str(out)]) == 0
            runs[name, block] = out.read_bytes()
    assert runs["linear", 2] == runs["linear", 4096]
    assert runs["log", 2] == runs["log", 4096]
    assert runs["linear", 2] != runs["log", 2]


def test_sweep_huge_grid_streams_rows():
    # 10**11 grid points, 745 GiB as one array: rows start at once under a
    # 1 GiB address-space cap, and the run is stopped after 50
    proc = subprocess.Popen(**limited(
        ["sweep", "--rate", "0.1:1:100000000000", "--outage", "0.35"], 1 << 30),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        lines = [proc.stdout.readline() for _ in range(51)]
    finally:
        timer.cancel()
        proc.kill()
        _, err = proc.communicate(timeout=60)
    assert lines[0].startswith("rate,feasible,")
    assert all(line.endswith("\n") for line in lines)
    assert lines[1].startswith("0.1,yes,")
    assert "Traceback" not in err


def test_sweep_bad_range(capsys):
    code = main(["sweep", "--rate", "0.1:1:0", "--outage", "0.35"])
    assert code == 2
    assert "bad range" in capsys.readouterr().err
    for text in ("0.1:1", "a:b:c", "0.1:1:2.5"):
        assert main(["sweep", "--rate", text, "--outage", "0.35"]) == 2
        assert capsys.readouterr().err == (
            "bad range: expected lo:hi:steps, two numbers and a whole number "
            f"of steps, got {text!r}\n")


@pytest.mark.parametrize("factor,feasible", [(2.0, "yes"), (0.5, "no")])
def test_sweep_at_a_fixed_lambda_l(tmp_path, factor, feasible):
    # a number for --lambda-l, beside a range of rates: each row is
    # feasible when the density reaches its lambda_l_min
    probe = NetworkConfig(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0,
                          lambda_l=1.0, lambda_e=0.0, n_legit=1)
    p = plan(probe, SecrecyTarget(secure_rate=0.5, outage=0.35))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--rate", "0.5:0.5:2", "--outage", "0.35",
                 "--lambda-l", repr(p.lambda_l_min * factor),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["0.5", feasible]] * 2
    assert [float(r[6]) for r in rows] == [p.lambda_l_min] * 2


# --- one process, many commands ----------------------------------------------

def _back_to_back_commands(tmp_path):
    plan_path = tmp_path / "plan.json"
    return [
        ["plan", *PLAN_FLAGS, "--out", str(plan_path)],
        ["verify", "moments", "--nr", "3", "--samples", "2000", "--seed", "4"],
        ["plan", "--rate", "0.5", "--outage", "0.35", "--dtr", "1e-6"],
        ["sweep", "--rate", "0.25:2.0:5", "--outage", "0.35"],
        ["simulate", "--plan", str(plan_path), "--trials", "3", "--seed", "2",
         "--csv", str(tmp_path / "trials.csv")],
        ["verify", "theorem4", "--plan", str(plan_path), "--samples", "3"],
        ["sweep", "--rate", "0.5", "--outage", "0.35", "--dtr", "5:1e-6:3"],
        ["plan", *PLAN_FLAGS, "--mu", "1e80"],
        ["verify", "moments", "--nr", "3", "--samples", "2000", "--seed", "4"],
    ]


def test_commands_back_to_back_match_fresh_processes(tmp_path, capsys):
    # main builds its parser once per process: a command run after others
    # in one process must print and exit as it does in a process of its own
    fresh = []
    for argv in _back_to_back_commands(tmp_path):
        proc = run_cli(argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr,
                      (tmp_path / "trials.csv").read_bytes()
                      if argv[0] == "simulate" else None))
    (tmp_path / "trials.csv").unlink()
    for _ in range(2):
        for argv, want in zip(_back_to_back_commands(tmp_path), fresh):
            code = main(argv)
            captured = capsys.readouterr()
            got = (code, captured.out, captured.err,
                   (tmp_path / "trials.csv").read_bytes()
                   if argv[0] == "simulate" else None)
            assert got == want, argv


def test_main_dispatches_on_the_current_command_function(monkeypatch, capsys):
    # a wrapper put in place of cmd_plan after the parser was built (as a
    # tracer does) is the function main calls
    assert main(["plan", *PLAN_FLAGS]) == 0
    calls = []
    original = cli.cmd_plan

    def wrapped(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_plan", wrapped)
    assert main(["plan", *PLAN_FLAGS]) == 0
    assert calls == ["plan"]
    assert cli._parser() is cli._parser()


def test_cli_import_loads_no_scipy():
    # every command pays for the import of secbeam.cli; importing scipy's
    # special functions and stats takes several times as long as all of it
    src = str(Path(secbeam.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, secbeam.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
