import csv
import dataclasses
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from secbeam import montecarlo
from secbeam.geometry import NetworkConfig
from secbeam.montecarlo import (CSV_COLUMNS, EVENT_NAMES, RunningMoments,
                                estimate_outage, run_trial,
                                sample_realization, verify_moments,
                                verify_power_bounds, wilson_interval,
                                write_trials_csv)
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


def chunk_draws(draw, rows, key, n_samples, seed):
    """The (P_l, P_e) samples ``montecarlo._chunk_moments`` reduces, joined:
    chunk c, ``rows`` samples or the rest, is
    ``draw(np.random.default_rng([seed, key, c]), m)``."""
    chunks = [draw(np.random.default_rng([seed, key, c]), min(rows, n_samples - lo))
              for c, lo in enumerate(range(0, n_samples, rows))]
    return tuple(np.concatenate(x) for x in zip(*chunks))


def bound_draws(plan, cfg, n_samples, seed):
    """The (P_l, P_e) samples ``verify_power_bounds`` reduces."""
    return chunk_draws(
        lambda rng, m: montecarlo._power_bounds_chunk(plan, cfg, rng, m),
        max(1, montecarlo.RELAY_PIECE // plan.n_r), 1, n_samples, seed)


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
    assert type(realization.n_relays) is int
    assert realization.n_relays == min(n_in_bl, plan.n_r)
    m = realization.n_eaves
    assert m > 0
    # the relays are carried as sums, never per relay or per
    # (eavesdropper, relay) pair: every field is a scalar or indexed by
    # eavesdropper, and every field is required
    fields = dataclasses.fields(realization)
    assert [f.name for f in fields] == [
        "relay_min_gain", "n_relays", "relay_gain_sum", "eaves_dist_tx",
        "eaves_h2_tx", "eaves_sum_var", "eaves_sum_power"]
    for f in fields:
        assert f.default is f.default_factory is dataclasses.MISSING, f.name
        value = getattr(realization, f.name)
        if isinstance(value, np.ndarray):
            assert value.shape == (m,) and value.dtype == np.float64, f.name
    assert np.all(realization.eaves_sum_var > 0)
    assert type(realization.relay_gain_sum) is float
    assert realization.relay_gain_sum > 0
    assert 0 < realization.relay_min_gain < math.inf


def test_sample_realization_skips_cross_arrays_without_eavesdroppers():
    realization, _ = sample_realization(small_plan(), small_cfg(lambda_e=0.0),
                                        np.random.default_rng(0))
    assert realization.n_eaves == 0
    assert realization.eaves_sum_var.shape == (0,)
    assert realization.eaves_sum_power.shape == (0,)


def test_trial_repeats_across_plans_pieces_and_threads(monkeypatch):
    # the kernel's scratch is kept per thread and follows RELAY_PIECE: trials
    # of two plans, with and without eavesdroppers, repeat after each other,
    # after RELAY_PIECE changes and on a second thread
    target = small_target()
    cases = [(plan, cfg, i) for plan in (small_plan(n_r=5), small_plan())
             for cfg in (small_cfg(), small_cfg(lambda_e=0.0)) for i in range(4)]

    def trials():
        return [run_trial(plan, cfg, target, i, 9) for plan, cfg, i in cases]

    whole = trials()  # each trial's relays in one piece
    assert trials() == whole
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 8)
    pieces = trials()  # 20 relays in pieces of 8, 8 and 4: other draws
    assert pieces != whole
    on_thread = []
    thread = threading.Thread(target=lambda: on_thread.append(trials()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and on_thread == [pieces]
    monkeypatch.undo()
    assert trials() == whole


def test_sample_realization_count_statistics():
    rng = np.random.default_rng(1)
    plan = small_plan()
    cfg = small_cfg()
    counts = [sample_realization(plan, cfg, rng)[1] for _ in range(2000)]
    lam = cfg.lambda_l * math.pi * plan.a_l ** 2
    se = math.sqrt(lam / len(counts))
    assert abs(np.mean(counts) - lam) < 5 * se


# --- full-process oracle ------------------------------------------------------
# The brute-force relay recruitment over a full Poisson process on the
# square, which the sampler's disc shortcut is tested against.

@dataclass(frozen=True)
class RelaySelection:
    """Outcome of relay recruitment: chosen indices, or a shortfall when the
    disc holds fewer than the requested count (``indices`` is None)."""

    indices: np.ndarray | None
    available: int

    @property
    def shortfall(self) -> bool:
        return self.indices is None


def select_relays(legit_points: np.ndarray, a_l: float, n_r: int,
                  rng: np.random.Generator) -> RelaySelection:
    """Recruit n_r relays uniformly at random among the legitimate points
    inside the disc of radius a_l around the transmitter (origin)."""
    pts = np.asarray(legit_points, dtype=float).reshape(-1, 2)
    inside = np.flatnonzero(np.hypot(pts[:, 0], pts[:, 1]) <= a_l)
    if len(inside) < n_r:
        return RelaySelection(indices=None, available=len(inside))
    chosen = rng.choice(inside, size=n_r, replace=False)
    return RelaySelection(indices=chosen, available=len(inside))


def sample_ppp(density: float, side: float, rng: np.random.Generator) -> np.ndarray:
    """Sample a homogeneous Poisson point process on the centered square:
    an (n, 2) array of positions, n Poisson with mean density*side**2."""
    if not (math.isfinite(density) and density >= 0):
        raise ValueError(f"density must be finite and >= 0, got {density}")
    if not (math.isfinite(side) and side > 0):
        raise ValueError(f"side must be finite and > 0, got {side}")
    n = rng.poisson(density * side * side)
    return (rng.random((n, 2)) - 0.5) * side


def test_disc_shortcut_matches_full_process_oracle():
    # oracle: the full Poisson process on the square, then recruitment from
    # the disc; the sampler draws the disc count and positions directly.
    # The relay field enters a trial only through the kernel's sums, so
    # those are compared: the stage-1 rate sum sum_i d_tx,i**gamma and the
    # gain sum S = sum_i h_i**2 d_rx,i**-gamma, over the oracle's recruited
    # points with h**2 ~ Exp(mean 2 mu) drawn in float64
    plan = small_plan(n_r=20)
    cfg = small_cfg(lambda_l=16.0, lambda_e=0.0, n_legit=256)  # side 4
    lam = cfg.lambda_l * math.pi * plan.a_l ** 2  # about 50 points
    n_seeds = 2000
    counts = {"oracle": [], "shortcut": []}
    rate = {"oracle": [], "shortcut": []}
    gain = {"oracle": [], "shortcut": []}
    none = np.empty((1, 0))
    for seed in range(n_seeds):
        rng = np.random.default_rng([seed, 0])
        pts = sample_ppp(cfg.lambda_l, cfg.side, rng)
        sel = select_relays(pts, plan.a_l, plan.n_r, rng)
        counts["oracle"].append(sel.available)
        if not sel.shortfall:
            x, y = pts[sel.indices].T
            h2 = rng.exponential(2.0 * cfg.mu, plan.n_r)
            rate["oracle"].append(np.sum(np.hypot(x, y) ** cfg.gamma))
            gain["oracle"].append(np.sum(h2 * np.hypot(x - cfg.d_tr, y) ** -cfg.gamma))
        realization, n_in_bl = sample_realization(
            plan, cfg, np.random.default_rng([seed, 1]))
        counts["shortcut"].append(n_in_bl)
        if n_in_bl >= plan.n_r:
            gain["shortcut"].append(realization.relay_gain_sum)
            rate["shortcut"].append(montecarlo._relay_field(
                np.random.default_rng([seed, 2]), 1, plan.n_r, plan.a_l, cfg,
                none, none, stage1=True)[0][0])
    # Poisson(lam): variance lam, fourth central moment lam*(1 + 3*lam)
    se_mean = math.sqrt(lam / n_seeds)
    se_var = math.sqrt((lam * (1 + 3 * lam) - lam * lam) / n_seeds)
    for c in counts.values():
        assert abs(np.mean(c) - lam) < 5 * se_mean
        assert abs(np.var(c, ddof=1) - lam) < 5 * se_var
    for sums in (rate, gain):
        _, p_value = stats.ks_2samp(sums["oracle"], sums["shortcut"])
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


def refuse_draws(monkeypatch):
    """Make a trial's generator and the relay kernel fail if reached."""
    def fail(*args):
        raise AssertionError("drew before refusing")
    monkeypatch.setattr(montecarlo, "_trial_rng", fail)
    monkeypatch.setattr(montecarlo, "_relay_field", fail)


@pytest.mark.parametrize("plan,cfg,reason", [
    (small_plan(mode="direct"), small_cfg(), "direct-mode plan"),
    # one legitimate node: a square of side 0.14 around a disc of diameter 2
    (small_plan(), small_cfg(n_legit=1), "relay disc .* network square"),
    # 1e32 eavesdroppers expected in the square, past numpy's largest
    # Poisson mean
    (small_plan(), small_cfg(lambda_e=1e30), "eavesdroppers, .* Poisson"),
], ids=["direct-mode", "disc-wider-than-square", "poisson-mean"])
def test_trials_refuse_before_any_draw(monkeypatch, plan, cfg, reason):
    refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=reason):
        run_trial(plan, cfg, small_target(), 0, 0)
    with pytest.raises(ValueError, match=reason):
        estimate_outage(plan, cfg, small_target(), 5, seed=0)


def test_power_bounds_refuse_a_direct_mode_plan_before_any_draw(monkeypatch):
    refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="direct-mode plan"):
        verify_power_bounds(small_plan(mode="direct"), small_cfg(), 10, 0)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_verifiers_refuse_fewer_than_two_samples_before_any_draw(
        monkeypatch, n_samples):
    # a sample variance needs two samples; both verifiers draw through the
    # chunk engine
    def fail(*args):
        raise AssertionError("drew before refusing")
    monkeypatch.setattr(montecarlo, "_chunk_moments", fail)
    with pytest.raises(ValueError, match="^n_samples must be >= 2, got "):
        verify_moments(0.5, 4, n_samples, 0)
    with pytest.raises(ValueError, match="^n_samples must be >= 2, got "):
        verify_power_bounds(small_plan(), small_cfg(), n_samples, 0)


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


def two_pass_moments(x):
    """n, mean and the sums of squared, cubed and fourth-power deviations,
    in float64 with exactly rounded sums: the reference for RunningMoments."""
    mean = math.fsum(x) / len(x)
    d = x - mean
    return [len(x), mean] + [math.fsum(d ** k) for k in (2, 3, 4)]


def moments_of(acc):
    return [acc.n, acc.mean, acc.m2, acc.m3, acc.m4]


@pytest.mark.parametrize("sizes", [
    [5000],
    [1, 1, 7, 300, 1, 2500, 1000, 189, 1000, 1],
    [1] * 5000,
], ids=["one", "unequal", "singles"])
def test_running_moments_of_merge_push_agree_with_two_pass(sizes):
    # offset, skewed data: 1e3 + Exp(1), whose m3 and m4 are far from 0;
    # chunks reduced with ``of`` (or pushed one by one) and merged in order
    x = 1e3 + np.random.default_rng(33).exponential(1.0, sum(sizes))
    want = two_pass_moments(x)
    merged, pushed = RunningMoments(), RunningMoments()
    lo = 0
    for size in sizes:
        chunk = x[lo:lo + size]
        lo += size
        merged.merge(RunningMoments.of(chunk))
        acc = RunningMoments()
        for v in chunk:
            acc.push(float(v))
        pushed.merge(acc)
    assert moments_of(merged) == pytest.approx(want, rel=1e-12)
    # ``push`` keeps n, the mean and m2 only
    assert moments_of(pushed)[:3] == pytest.approx(want[:3], rel=1e-12)


@pytest.mark.parametrize("value", [0.0, -0.0, 1e3 + 1 / 3, -2.5, 5e-324,
                                   1.7e308, math.nan, math.inf, -math.inf])
def test_running_moments_of_one_value_matches_the_array_path(value):
    # one value skips the array passes: bit for bit the two-pass steps on a
    # one-element array for a finite value, NaN moments for any other
    x = np.array([value])
    with np.errstate(invalid="ignore"):
        mean = float(x.mean())
        d = x - mean
        d2 = d * d
        want = [1, mean, float(d2.sum()), float((d * d2).sum()),
                float((d2 * d2).sum())]
    got = moments_of(RunningMoments.of(x))
    if math.isfinite(value):
        assert np.array(got[1:]).tobytes() == np.array(want[1:]).tobytes()
        assert got[0] == 1 and got[2:] == [0.0, 0.0, 0.0]
    else:
        assert got[0] == 1
        np.testing.assert_array_equal(got[1], want[1])  # NaN equals NaN here
        assert all(math.isnan(v) for v in want[2:] + got[2:])


def test_running_moments_merge_with_empty_is_a_copy():
    x = 1e3 + np.random.default_rng(34).exponential(1.0, 300)
    one = RunningMoments.of(x)
    acc = RunningMoments()
    acc.merge(one)
    acc.merge(RunningMoments())
    assert moments_of(acc) == moments_of(one)


def test_running_moments_push_keeps_welford_mean_and_m2():
    # the mean and m2 of ``push`` are those of the two-line Welford update,
    # bit for bit, so the simulate report does not move
    x = 1e3 + np.random.default_rng(35).exponential(1.0, 2000)
    acc = RunningMoments()
    n, mean, m2 = 0, 0.0, 0.0
    for v in map(float, x):
        acc.push(v)
        n += 1
        delta = v - mean
        mean += delta / n
        m2 += delta * (v - mean)
    assert (acc.n, acc.mean, acc.m2) == (n, mean, m2)


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


def assert_golden_trials(tmp_path):
    """The rows of 20 trials at seed 0 on the small plan against the golden
    table.  Integer columns must match exactly; float columns to rtol 1e-5,
    since float32 SIMD cos/pow may differ in the last ulp across CPUs."""
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


def test_golden_trial_table(tmp_path):
    # random stream 6
    assert_golden_trials(tmp_path)


def test_golden_trial_table_on_threads(tmp_path, monkeypatch):
    # windows of 7, 7 and 6 trials on 1, 2 and 3 threads
    monkeypatch.setattr(montecarlo, "WINDOW", 7)
    for n in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n: set(range(n)))
        assert_golden_trials(tmp_path)


# --- moment and bound verifiers --------------------------------------------

@pytest.mark.parametrize("n_r,mu", [(1, 0.5), (3, 0.5), (8, 1.0)])
def test_verify_moments_within_noise(n_r, mu):
    checks = verify_moments(mu, n_r, n_samples=100_000, seed=47)
    assert [c.name for c in checks] == ["mean_P_l", "var_P_l",
                                       "mean_P_e", "var_P_e"]
    for c in checks:
        assert c.side == "both"
        assert abs(c.z) < 5


@pytest.mark.parametrize("n_r", [1, 32])
def test_verify_moments_false_alarms_at_few_samples(n_r):
    # at 30 samples a correct sampler failed some check in 171 (n_r = 1)
    # and 35 (n_r = 32) of these 400 runs with plug-in standard errors;
    # those of the exact null law bound each check's false alarms by 1/25
    failed = [seed for seed in range(400)
              if any(c.failed for c in verify_moments(0.5, n_r, 30, seed))]
    assert failed == []


def test_verify_moments_deterministic():
    a = verify_moments(0.5, 2, 10_000, seed=53)
    b = verify_moments(0.5, 2, 10_000, seed=53)
    assert a == b


def test_verify_power_bounds_directions():
    plan = small_plan()
    cfg = small_cfg()
    checks = verify_power_bounds(plan, cfg, n_samples=20_000, seed=59)
    assert [c.side for c in checks] == ["lower", "upper", "upper", "upper"]
    for c in checks:
        # z >= 0: the estimate itself lies on the bound's side
        assert c.z >= 0, f"{c.name}: estimate {c.estimate} vs bound {c.reference}"


def test_verify_power_bounds_deterministic():
    plan, cfg = small_plan(), small_cfg()
    a = verify_power_bounds(plan, cfg, n_samples=500, seed=67)
    assert a == verify_power_bounds(plan, cfg, n_samples=500, seed=67)
    b = verify_power_bounds(plan, cfg, n_samples=500, seed=68)
    for x, y in zip(a, b):
        assert x.reference == y.reference
        assert x.estimate != y.estimate, x.name


def test_power_bounds_are_json_floats():
    checks = verify_power_bounds(small_plan(), small_cfg(), n_samples=200, seed=61)
    for c in checks:
        assert type(c.reference) is float, (c.name, type(c.reference))
        assert type(c.estimate) is float, (c.name, type(c.estimate))
    json.dumps([dataclasses.asdict(c) for c in checks])


def test_bound_check_semantics():
    # the one 5-SE gate: two-sided for an exact value, one-sided for a
    # bound, and z exactly at the gate fails
    from secbeam.montecarlo import Check
    for est, failed in ((0.0, True), (0.5, False), (1.5, False), (2.0, True)):
        assert Check("x", 1.0, est, 0.2, "both").failed is failed, est
    for est, failed in ((0.0, True), (0.5, False), (2.0, False)):
        assert Check("x", 1.0, est, 0.2, "lower").failed is failed, est
    for est, failed in ((2.0, True), (1.5, False), (0.0, False)):
        assert Check("x", 1.0, est, 0.2, "upper").failed is failed, est
    assert Check("x", 1.0, 0.0, 0.2, "both").z == -5.0
    assert Check("x", 1.0, 2.0, 0.2, "both").z == 5.0
    assert Check("x", 1.0, 0.0, 0.2, "lower").z == -5.0
    assert Check("x", 1.0, 2.0, 0.2, "upper").z == -5.0
    # a NaN z fails on every side
    for side in ("both", "lower", "upper"):
        assert Check("x", 1.0, math.nan, 1.0, side).failed, side
        assert Check("x", 1.0, math.nan, math.nan, side).failed, side


def test_bound_check_margin_in_standard_errors():
    from secbeam.montecarlo import Check
    assert Check("x", 1.0, 2.0, 0.5, "lower").z == 2.0
    assert Check("x", 1.0, 2.0, 0.5, "upper").z == -2.0
    # an upper bound met exactly with no spread: no gap, 0 SE
    assert Check("x", 1.0, 1.0, 0.0, "upper").z == 0.0
    assert not Check("x", 1.0, 1.0, 0.0, "upper").failed
    assert Check("x", 1.0, 0.5, 0.0, "lower").z == -math.inf
    assert Check("x", 1.0, 0.5, 0.0, "upper").z == math.inf
    assert math.isnan(Check("x", 1.0, math.nan, math.nan, "lower").z)
    assert math.isnan(Check("x", 1.0, math.nan, 1.0, "lower").z)


def test_moment_z_score_in_standard_errors():
    from secbeam.montecarlo import Check
    assert Check("x", 1.0, 2.0, 0.5, "both").z == 2.0
    # no spread: any gap is infinitely many SE, on every side
    assert Check("x", 1.0, 1.0, 0.0, "both").z == 0.0
    assert Check("x", 1.0, 2.0, 0.0, "both").z == math.inf
    assert Check("x", 1.0, 0.5, 0.0, "both").z == -math.inf
    assert Check("x", 1.0, 2.0, math.nan, "both").z == math.inf
    assert math.isnan(Check("x", 1.0, math.nan, math.nan, "both").z)
    assert math.isnan(Check("x", 1.0, math.nan, 1.0, "both").z)


def test_verify_power_bounds_do_not_depend_on_threads_or_batches(monkeypatch):
    # 3 samples per chunk of 64 relay elements; each chunk is reduced on
    # its own and merged in chunk order, so the checks are the same for 1,
    # 2 and 3 threads, and for windows of 2 chunks (6 samples)
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 64)
    plan, cfg = small_plan(), small_cfg()
    runs = []
    for n in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n: set(range(n)))
        runs.append(verify_power_bounds(plan, cfg, n_samples=200, seed=73))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    monkeypatch.setattr(montecarlo, "WINDOW", 2)
    assert verify_power_bounds(plan, cfg, n_samples=200, seed=73) == runs[0]


def test_verify_moments_do_not_depend_on_threads_or_windows(monkeypatch):
    # five whole chunks and a short one at the real chunk size: one window
    # on 1, 2 and 3 threads, then three windows of 2 chunks; the checks
    # (estimates, standard errors) are the same bit for bit
    n_samples = 5 * montecarlo.MOMENT_CHUNK + 7
    runs = []
    for n in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n: set(range(n)))
        runs.append(verify_moments(0.5, 32, n_samples, seed=79))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    monkeypatch.setattr(montecarlo, "WINDOW", 2)
    assert verify_moments(0.5, 32, n_samples, seed=79) == runs[0]


def test_power_bound_std_errors_match_moment_checks():
    from secbeam.montecarlo import _mean_check, _var_check
    plan, cfg = small_plan(), small_cfg()
    checks = verify_power_bounds(plan, cfg, n_samples=300, seed=71)
    p_l, p_e = map(RunningMoments.of, bound_draws(plan, cfg, 300, seed=71))
    want = [_mean_check("", 0.0, p_l, "lower"), _mean_check("", 0.0, p_e, "upper"),
            _var_check("", 0.0, p_l, "upper"), _var_check("", 0.0, p_e, "upper")]
    assert [c.std_err for c in checks] == [w.std_err for w in want]
    assert [c.estimate for c in checks] == [w.estimate for w in want]
