import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from secbeam.beamform import select_relays
from secbeam.geometry import NetworkConfig, sample_ppp
from secbeam.montecarlo import (CSV_COLUMNS, EVENT_NAMES, RunningMoments,
                                estimate_outage, run_trial, sample_realization,
                                verify_moments, verify_power_bounds,
                                wilson_interval, write_trials_csv)
from secbeam.planner import Plan, SecrecyTarget


def small_plan(**kw):
    """Hand-built plan with a dense, cheap geometry for unit tests."""
    base = dict(a_l=1.0, a_l_raw=2.0, a_e=3.0, n_r=20,
                lambda_l_min=50.0, lambda_e_max=0.05, n_e_max=10,
                eta=1.0, nu=math.sqrt(20.0), eps_prime=0.05,
                mode="beamforming")
    base.update(kw)
    return Plan(**base)


def small_cfg(**kw):
    base = dict(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0, lambda_l=50.0,
                lambda_e=0.05, n_legit=5000)
    base.update(kw)
    return NetworkConfig(**base)


def small_target():
    return SecrecyTarget(secure_rate=0.5, outage=0.35)


# --- Wilson interval -------------------------------------------------------

def test_wilson_interval_known_values():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(0.27753279978965724, rel=1e-9)
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(1 - hi)


def test_wilson_interval_contains_estimate():
    for k, n in [(0, 5), (3, 7), (100, 100), (17, 1000)]:
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi
        assert 0.0 <= lo <= hi <= 1.0


def test_wilson_interval_rejects_empty():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# --- sampling --------------------------------------------------------------

def test_sample_realization_shapes():
    rng = np.random.default_rng(0)
    plan = small_plan()
    realization, n_in_bl = sample_realization(plan, small_cfg(), rng)
    k = realization.n_relays
    assert k == min(n_in_bl, plan.n_r)
    m = realization.n_eaves
    assert m > 0
    for name in ("relay_d2_tx", "relay_d2_rx", "relay_h2_rx"):
        arr = getattr(realization, name)
        assert arr.shape == (k,) and arr.dtype == np.float32, name
    assert realization.eaves_d2_relay.shape == (m, k)
    assert realization.eaves_d2_relay.dtype == np.float64
    assert realization.eaves_fading_relay.shape == (m, k)
    assert realization.eaves_h2_tx.shape == (m,)
    assert np.all(realization.relay_d2_tx <= np.float32(plan.a_l ** 2))
    assert np.all(realization.relay_d2_rx > 0)
    assert 0 < realization.relay_min_gain < math.inf


def test_sample_realization_skips_cross_arrays_without_eavesdroppers():
    realization, _ = sample_realization(small_plan(), small_cfg(lambda_e=0.0),
                                        np.random.default_rng(0))
    assert realization.n_eaves == 0
    assert realization.eaves_d2_relay.shape == (0, realization.n_relays)
    assert realization.eaves_fading_relay.shape == (0, realization.n_relays)


def test_sample_realization_disc_must_fit():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_realization(small_plan(a_l=20.0), small_cfg(), rng)


def test_sample_realization_count_statistics():
    rng = np.random.default_rng(1)
    plan = small_plan()
    cfg = small_cfg()
    counts = [sample_realization(plan, cfg, rng)[1] for _ in range(2000)]
    lam = cfg.lambda_l * math.pi * plan.a_l ** 2
    se = math.sqrt(lam / len(counts))
    assert abs(np.mean(counts) - lam) < 5 * se


def test_disc_shortcut_matches_full_process_oracle():
    # oracle: the full Poisson process on the square, then recruitment from
    # the disc; the sampler draws the disc count and positions directly
    plan = small_plan(n_r=20)
    cfg = small_cfg(lambda_l=16.0, lambda_e=0.0, n_legit=256)  # side 4
    lam = cfg.lambda_l * math.pi * plan.a_l ** 2  # about 50 points
    n_seeds = 2000
    counts = {"oracle": [], "shortcut": []}
    radii = {"oracle": [], "shortcut": []}
    for seed in range(n_seeds):
        rng = np.random.default_rng([seed, 0])
        pts = sample_ppp(cfg.lambda_l, cfg.side, rng)
        sel = select_relays(pts, plan.a_l, plan.n_r, rng)
        counts["oracle"].append(sel.available)
        if not sel.shortfall:
            radii["oracle"].append(np.hypot(*pts[sel.indices].T))
        realization, n_in_bl = sample_realization(
            plan, cfg, np.random.default_rng([seed, 1]))
        counts["shortcut"].append(n_in_bl)
        if n_in_bl >= plan.n_r:
            radii["shortcut"].append(np.sqrt(realization.relay_d2_tx))
    # Poisson(lam): variance lam, fourth central moment lam*(1 + 3*lam)
    se_mean = math.sqrt(lam / n_seeds)
    se_var = math.sqrt((lam * (1 + 3 * lam) - lam * lam) / n_seeds)
    for c in counts.values():
        assert abs(np.mean(c) - lam) < 5 * se_mean
        assert abs(np.var(c, ddof=1) - lam) < 5 * se_var
    _, p_value = stats.ks_2samp(np.concatenate(radii["oracle"]),
                                np.concatenate(radii["shortcut"]))
    assert p_value > 1e-3


# --- trials ----------------------------------------------------------------

def test_run_trial_deterministic():
    plan, cfg, target = small_plan(), small_cfg(), small_target()
    a = run_trial(plan, cfg, target, trial_index=3, seed=7)
    b = run_trial(plan, cfg, target, trial_index=3, seed=7)
    assert a == b
    c = run_trial(plan, cfg, target, trial_index=4, seed=7)
    assert c != a


def test_run_trial_requires_beamforming_mode():
    with pytest.raises(ValueError):
        run_trial(small_plan(mode="direct"), small_cfg(), small_target(), 0, 0)


def test_run_trial_no_eavesdroppers():
    plan = small_plan()
    cfg = small_cfg(lambda_e=0.0)
    out = run_trial(plan, cfg, small_target(), 0, 11)
    assert out.e2 and out.e4 and out.e6 and out.e7
    assert out.max_eaves_rate_s1 == 0.0
    assert out.max_eaves_rate_s2 == 0.0
    assert out.n_in_be == 0


def test_run_trial_relay_shortfall():
    # drive the legitimate density to zero relays: stage 2 must be skipped
    plan = small_plan()
    cfg = small_cfg(lambda_l=1e-6, n_legit=1)
    out = run_trial(plan, cfg, small_target(), 0, 13)
    assert not out.e1
    assert not out.e5
    assert out.e6
    assert not out.composite
    assert out.rate_l_s2 == 0.0
    assert out.p_l == 0.0
    assert out.total_relay_power == 0.0


def test_run_trial_composite_implication():
    plan, cfg, target = small_plan(), small_cfg(), small_target()
    for i in range(200):
        out = run_trial(plan, cfg, target, i, 17)
        if out.composite:
            assert out.e1
            assert out.min_relay_rate - out.max_eaves_rate_s1 >= target.secure_rate
            assert out.rate_l_s2 - out.max_eaves_rate_s2 >= target.secure_rate


def test_run_trial_counts_disc_intruders():
    plan, cfg = small_plan(), small_cfg()
    for i in range(100):
        out = run_trial(plan, cfg, small_target(), i, 19)
        assert out.e2 == (out.n_in_be == 0)


# --- aggregation -----------------------------------------------------------

def test_estimate_outage_reproducible():
    plan, cfg, target = small_plan(), small_cfg(), small_target()
    a = estimate_outage(plan, cfg, target, 50, seed=23)
    b = estimate_outage(plan, cfg, target, 50, seed=23)
    assert a == b
    assert a.n_trials == 50
    assert a.seed == 23


def test_estimate_outage_matches_trials():
    plan, cfg, target = small_plan(), small_cfg(), small_target()
    n = 80
    outcomes = []
    report = estimate_outage(plan, cfg, target, n, seed=29,
                             collect=outcomes.append)
    assert len(outcomes) == n
    assert [o.trial_index for o in outcomes] == list(range(n))
    for idx, name in enumerate(EVENT_NAMES):
        fails = sum(1 for o in outcomes if not o.flags()[idx])
        assert report.event_outage[name].outage == pytest.approx(fails / n)
    comp_fails = sum(1 for o in outcomes if not o.composite)
    assert report.composite.outage == pytest.approx(comp_fails / n)
    p_l = np.array([o.p_l for o in outcomes])
    assert report.mean_p_l == pytest.approx(p_l.mean())
    assert report.var_p_l == pytest.approx(p_l.var(ddof=1))


def test_estimate_outage_streams_moments():
    # running (Welford) moments against numpy over the same outcomes
    plan, cfg, target = small_plan(), small_cfg(), small_target()
    outcomes = []
    report = estimate_outage(plan, cfg, target, 120, seed=30,
                             collect=outcomes.append)
    p_l = np.array([o.p_l for o in outcomes])
    max_p_e = np.array([o.max_p_e for o in outcomes])
    total = np.array([o.total_relay_power for o in outcomes])
    assert np.all(max_p_e > 0)
    assert report.var_p_l == pytest.approx(np.var(p_l, ddof=1), rel=1e-12)
    assert report.var_max_p_e == pytest.approx(np.var(max_p_e, ddof=1), rel=1e-12)
    assert report.mean_p_l == pytest.approx(p_l.mean(), rel=1e-12)
    assert report.mean_max_p_e == pytest.approx(max_p_e.mean(), rel=1e-12)
    assert report.mean_total_relay_power == pytest.approx(total.mean(), rel=1e-12)


def test_running_moments_offset_stream():
    rng = np.random.default_rng(32)
    x = 1e3 + rng.exponential(1.0, 5000)
    acc = RunningMoments()
    for v in x:
        acc.push(float(v))
    assert acc.n == len(x)
    assert acc.mean == pytest.approx(x.mean(), rel=1e-12)
    assert acc.variance() == pytest.approx(np.var(x, ddof=1), rel=1e-9)
    assert RunningMoments().variance() == 0.0


def test_estimate_outage_single_trial():
    report = estimate_outage(small_plan(), small_cfg(), small_target(), 1, seed=31)
    assert report.var_p_l == 0.0
    for name in EVENT_NAMES:
        assert report.event_outage[name].outage in (0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_outage(small_plan(), small_cfg(), small_target(), 0, seed=31)


def test_report_document():
    report = estimate_outage(small_plan(), small_cfg(), small_target(), 20, seed=37)
    doc = report.to_dict()
    assert doc["interval_method"] == "wilson-95"
    assert set(doc["event_outage"]) == set(EVENT_NAMES)
    for stats in doc["event_outage"].values():
        assert 0.0 <= stats["ci_low"] <= stats["outage"] <= stats["ci_high"] <= 1.0


# --- CSV -------------------------------------------------------------------

def test_csv_schema_and_round_trip(tmp_path):
    plan, cfg, target = small_plan(), small_cfg(), small_target()
    outcomes = []
    estimate_outage(plan, cfg, target, 25, seed=41, collect=outcomes.append)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, outcomes)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 26
    for row, out in zip(rows[1:], outcomes):
        assert int(row[0]) == out.trial_index
        assert [int(x) for x in row[1:8]] == [int(f) for f in out.flags()]
        # repr round-trips doubles exactly
        assert float(row[13]) == out.p_l
        assert int(row[16]) == out.n_in_bl


def test_csv_byte_identical(tmp_path):
    plan, cfg, target = small_plan(), small_cfg(), small_target()
    paths = []
    for tag in ("a", "b"):
        outcomes = []
        estimate_outage(plan, cfg, target, 15, seed=43, collect=outcomes.append)
        p = tmp_path / f"trials_{tag}.csv"
        write_trials_csv(p, outcomes)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


GOLDEN = Path(__file__).parent / "data" / "golden_small_trials.csv"
INTEGER_COLUMNS = ["trial_index", *EVENT_NAMES, "composite", "n_in_Bl", "n_in_Be"]


def test_golden_trial_table(tmp_path):
    # random stream 2: the rows of 20 trials at seed 0 on the small plan.
    # Integer columns must match exactly; float columns to rtol 1e-5, since
    # float32 SIMD cos/pow may differ in the last ulp across CPUs.
    outcomes = []
    estimate_outage(small_plan(), small_cfg(), small_target(), 20, seed=0,
                    collect=outcomes.append)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, outcomes)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    with open(GOLDEN, newline="") as fh:
        want = list(csv.DictReader(fh))
    assert len(got) == len(want) == 20
    assert any(int(row["n_in_Be"]) for row in want)
    floats = [c for c in CSV_COLUMNS if c not in INTEGER_COLUMNS]
    for g, w in zip(got, want):
        assert [g[c] for c in INTEGER_COLUMNS] == [w[c] for c in INTEGER_COLUMNS]
        np.testing.assert_allclose([float(g[c]) for c in floats],
                                   [float(w[c]) for c in floats], rtol=1e-5)


# --- moment and bound verifiers --------------------------------------------

@pytest.mark.parametrize("n_r,mu", [(1, 0.5), (3, 0.5), (8, 1.0)])
def test_verify_moments_within_noise(n_r, mu):
    checks = verify_moments(mu, n_r, n_samples=100_000, seed=47)
    assert [c.name for c in checks] == ["mean_P_l", "var_P_l",
                                       "mean_P_e", "var_P_e"]
    for c in checks:
        assert abs(c.z_score) < 5


def test_verify_moments_deterministic():
    a = verify_moments(0.5, 2, 10_000, seed=53)
    b = verify_moments(0.5, 2, 10_000, seed=53)
    assert a == b


def test_verify_power_bounds_directions():
    plan = small_plan()
    cfg = small_cfg()
    checks = verify_power_bounds(plan, cfg, n_samples=20_000, seed=59)
    assert [c.direction for c in checks] == ["lower", "upper", "upper", "upper"]
    for c in checks:
        assert c.respected, f"{c.name}: estimate {c.estimate} vs bound {c.bound}"


def test_power_bounds_are_json_floats():
    checks = verify_power_bounds(small_plan(), small_cfg(), n_samples=200, seed=61)
    for c in checks:
        assert type(c.bound) is float, (c.name, type(c.bound))
        assert type(c.estimate) is float, (c.name, type(c.estimate))
    json.dumps([dataclasses.asdict(c) for c in checks])


def test_bound_check_semantics():
    from secbeam.montecarlo import BoundCheck
    assert BoundCheck("x", 1.0, 2.0, "lower").respected
    assert not BoundCheck("x", 1.0, 2.0, "upper").respected
