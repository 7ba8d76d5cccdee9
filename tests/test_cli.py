import json

import pytest

from secbeam import montecarlo, planner
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


def test_plan_rejects_bad_outage():
    for bad in ("0", "1", "1.5", "-0.1"):
        with pytest.raises(SystemExit):
            main(["plan", "--rate", "0.5", "--outage", bad])


def test_plan_rejects_nonpositive_rate():
    with pytest.raises(SystemExit):
        main(["plan", "--rate", "0", "--outage", "0.35"])


def test_verify_theorem4_requires_plan():
    with pytest.raises(SystemExit):
        main(["verify", "theorem4"])


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


def test_simulate_outputs(tmp_path, capsys):
    _, plan_path = run_plan(tmp_path)
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
    assert set(doc["event_outage"]) == {f"E{k}" for k in range(1, 8)}


def test_simulate_streamed_csv_matches_batch_writer(tmp_path):
    # rows written as trials finish equal the batch writer's file
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


def test_simulate_unwritable_csv_exits_before_trials(tmp_path, capsys):
    _, plan_path = run_plan(tmp_path)
    capsys.readouterr()
    assert main(["simulate", "--plan", str(plan_path), "--trials", "2",
                 "--csv", str(tmp_path / "missing" / "trials.csv")]) == 2
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field,value", [("n_r", 110446.0), ("n_e_max", 964.0),
                                         ("n_r", True)])
def test_plan_counts_must_be_integers(tmp_path, capsys, field, value):
    _, out = run_plan(tmp_path)
    edit_plan(out, **{field: value})
    capsys.readouterr()
    for argv in (["simulate", "--plan", str(out), "--trials", "2"],
                 ["verify", "theorem4", "--plan", str(out), "--samples", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{field} must be an integer" in captured.err
        assert captured.out == ""


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


def test_verify_theorem4_missing_plan_file(tmp_path, capsys):
    code = main(["verify", "theorem4", "--plan", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot load plan" in capsys.readouterr().err


def test_verify_lemmas(capsys):
    code = main(["verify", "lemmas", "--instances", "50",
                 "--samples", "50000", "--seed", "3"])
    assert code == 0
    assert "50 instances checked, 0 failures" in capsys.readouterr().out


# --- sweep -----------------------------------------------------------------

def test_sweep_requires_exactly_one_range(capsys):
    code = main(["sweep", "--rate", "0.5", "--outage", "0.35"])
    assert code == 2
    code = main(["sweep", "--rate", "0.1:1:3", "--outage", "0.1:0.3:3"])
    assert code == 2


def test_sweep_rate_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--rate", "0.25:1.0:4", "--outage", "0.35",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].split(",")[0] == "rate"
    assert all(line.split(",")[1] == "yes" for line in lines[1:])


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


def test_sweep_bad_range(capsys):
    code = main(["sweep", "--rate", "0.1:1:0", "--outage", "0.35"])
    assert code == 2
    assert "bad range" in capsys.readouterr().err
