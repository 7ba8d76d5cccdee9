"""Distributional checks of the three samplers: trials (``run_trial``),
theorem-4 samples (``_power_bounds_chunk``) and the no-path-loss moments
of ``verify moments`` (``_sample_powers_nopath``), the last two drawn
chunk by chunk, as the verifiers' chunk engine (``_chunk_moments``) draws
them.

Each sampler has one reference, kept here verbatim from random stream 1,
which drew every per-relay link in float64 as a Rayleigh magnitude with a
uniform phase: ``trial_v1`` (with ``sample_realization_v1``), whose
stage-1 minimum runs over explicit per-relay gains and whose eavesdropper
powers are complex sums over relays; ``sample_power_bounds_v1``, with
per-relay complex eavesdropper fading; and ``sample_powers_nopath_v1``,
per-relay draws at unit distances.  The samplers draw the same laws
through sufficient statistics, conditional laws and float32 draws, so on
fixed seeds they agree with their references in distribution (two-sample
KS tests, and a two-proportion test of the E6 failure rate), not in
values.

The exact laws those reductions rest on are tested on their own: the
minimum of independent exponentials, the power of a weighted sum of
circular Gaussians, the float32 exponential, and the E6 failure
probability given the relay field.  Where values can be compared, float64
evaluations of a sampler's own draws check it: the kernel's relay sums, a
large trial, and trials without eavesdroppers.  The kernel's far-field
eavesdropper sums are held to their error bound against its exact sums, in
one row and in rows that mix near and far eavesdroppers, and trials and
theorem-4 estimates with and without them agree.  The chunk engine is
checked for both verifiers: each chunk's generator, and the same merged
moments for any thread count; the ordered map under it, which simulate's
trials run on too, for each index run once, the threads it starts and the
failures it passes on.
"""

import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from secbeam import montecarlo
from secbeam.montecarlo import (CSV_COLUMNS, RunningMoments,
                                _exponential_f32, _relay_draws, _relay_field,
                                _sample_powers_nopath, _trial_rng, draw_min_gain,
                                estimate_outage, run_trial, sample_realization)
from secbeam.beamform import received_powers

from test_montecarlo import (bound_draws, chunk_draws, small_cfg, small_plan,
                             small_target)

N_TRIALS = 4000
KS_FLOOR = 1e-3


# --- stream-1 oracle -------------------------------------------------------

def sample_realization_v1(plan, cfg, rng):
    """Stream-1 sampler: positions, magnitudes and phases of every link."""
    side = cfg.side
    n_in_bl = int(rng.poisson(cfg.lambda_l * math.pi * plan.a_l ** 2))
    k = min(n_in_bl, plan.n_r)
    radii = plan.a_l * np.sqrt(rng.random(k))
    angles = rng.random(k) * 2.0 * math.pi
    relay_x = radii * np.cos(angles)
    relay_y = radii * np.sin(angles)
    relay_h_tx = rng.rayleigh(math.sqrt(cfg.mu), k)

    n_e = int(rng.poisson(cfg.lambda_e * side * side))
    eaves_x = (rng.random(n_e) - 0.5) * side
    eaves_y = (rng.random(n_e) - 0.5) * side
    eaves_dist_tx = np.hypot(eaves_x, eaves_y)
    eaves_h_tx = rng.rayleigh(math.sqrt(cfg.mu), n_e)

    relay_dist_rx = np.hypot(relay_x - cfg.d_tr, relay_y)
    relay_h_rx = rng.rayleigh(math.sqrt(cfg.mu), k)
    relay_phase_rx = rng.random(k) * 2.0 * math.pi

    eaves_dist_relay = np.hypot(relay_x[None, :] - eaves_x[:, None],
                                relay_y[None, :] - eaves_y[:, None])
    eaves_h_relay = rng.rayleigh(math.sqrt(cfg.mu), (n_e, k))
    eaves_phase_relay = rng.random((n_e, k)) * 2.0 * math.pi
    return dict(relay_dist_tx=radii, relay_h_tx=relay_h_tx,
                relay_dist_rx=relay_dist_rx, relay_h_rx=relay_h_rx,
                relay_phase_rx=relay_phase_rx,
                eaves_dist_tx=eaves_dist_tx, eaves_h_tx=eaves_h_tx,
                eaves_dist_relay=eaves_dist_relay, eaves_h_relay=eaves_h_relay,
                eaves_phase_relay=eaves_phase_relay), n_in_bl


def trial_v1(plan, cfg, target, rng):
    """Stream-1 trial statistics with the stream-1 closed forms."""
    r, n_in_bl = sample_realization_v1(plan, cfg, rng)
    p_t, gamma = cfg.p_t, cfg.gamma
    n = len(r["relay_dist_tx"])
    if n:
        snr = p_t * r["relay_h_tx"] ** 2 * r["relay_dist_tx"] ** (-gamma)
        min_rate = math.log2(1.0 + float(snr.min()))
    else:
        min_rate = 0.0
    n_e = len(r["eaves_dist_tx"])
    if n_e:
        snr_e = p_t * r["eaves_h_tx"] ** 2 * r["eaves_dist_tx"] ** (-gamma)
        max_e1 = math.log2(1.0 + float(snr_e.max()))
    else:
        max_e1 = 0.0
    p_l = max_p_e = total = 0.0
    if n_in_bl >= plan.n_r:
        atten = r["relay_dist_rx"] ** (-gamma)
        total = float((atten * r["relay_h_rx"] ** 2 * p_t / n).sum())
        coherent = float((atten * r["relay_h_rx"] ** 2).sum()) / math.sqrt(n)
        p_l = coherent * coherent * p_t
        if n_e:
            amp = ((r["relay_dist_rx"] ** (-gamma / 2.0) * r["relay_h_rx"])[None, :]
                   * r["eaves_dist_relay"] ** (-gamma / 2.0) * r["eaves_h_relay"])
            z = (amp * np.exp(1j * (r["eaves_phase_relay"]
                                    - r["relay_phase_rx"][None, :]))
                 ).sum(axis=1) / math.sqrt(n)
            max_p_e = float(np.max(np.abs(z) ** 2 * p_t))
    e6 = math.log2(1.0 + max_p_e) <= target.kappa * target.secure_rate
    return {"min_relay_rate": min_rate, "max_eaves_rate_s1": max_e1,
            "P_l": p_l, "total_relay_power": total, "max_P_e": max_p_e,
            "n_in_Bl": n_in_bl, "E6": e6}


# --- two-sample tests ------------------------------------------------------

STATISTICS = ["min_relay_rate", "max_eaves_rate_s1", "P_l",
              "total_relay_power", "max_P_e", "n_in_Bl"]


@pytest.fixture(scope="module", params=[2.0, 3.0], ids=["gamma2", "gamma3"])
def both_streams(request):
    # mu != 0.5, so that a dropped or doubled 2*mu changes the law; at
    # gamma 3 the kernel takes relays 8 at a time, so the plan's 20 relays
    # span three pieces
    gamma = request.param
    plan, cfg, target = small_plan(), small_cfg(gamma=gamma, mu=0.8), small_target()
    seed = int(gamma)
    old = [trial_v1(plan, cfg, target, np.random.default_rng([seed, 10 ** 6 + i]))
           for i in range(N_TRIALS)]
    with pytest.MonkeyPatch.context() as mp:
        if gamma == 3.0:
            mp.setattr(montecarlo, "RELAY_PIECE", 8)
        new = [run_trial(plan, cfg, target, i, seed) for i in range(N_TRIALS)]
    columns_old = {s: np.array([t[s] for t in old]) for s in STATISTICS + ["E6"]}
    columns_new = {
        "min_relay_rate": np.array([o.min_relay_rate for o in new]),
        "max_eaves_rate_s1": np.array([o.max_eaves_rate_s1 for o in new]),
        "P_l": np.array([o.p_l for o in new]),
        "total_relay_power": np.array([o.total_relay_power for o in new]),
        "max_P_e": np.array([o.max_p_e for o in new]),
        "n_in_Bl": np.array([o.n_in_bl for o in new]),
        "E6": np.array([o.e6 for o in new]),
    }
    return columns_old, columns_new


@pytest.mark.parametrize("statistic", STATISTICS)
def test_stream_matches_stream_1_in_distribution(both_streams, statistic):
    old, new = both_streams
    # eavesdroppers are present in nearly every trial (mean count 5)
    assert np.mean(new["max_P_e"] > 0) > 0.9
    _, p_value = stats.ks_2samp(old[statistic], new[statistic])
    assert p_value > KS_FLOOR, (statistic, p_value)


def test_e6_rate_matches_stream_1(both_streams):
    # max_eaves_rate_s2 = log2(1 + max_P_e) is a monotone function of a
    # column tested above; the E6 flag thresholds it
    old, new = both_streams
    fail_old = np.mean(~old["E6"])
    fail_new = np.mean(~new["E6"])
    assert fail_old > 0.01
    pooled = (fail_old + fail_new) / 2
    se = math.sqrt(max(pooled * (1 - pooled), 1.0 / N_TRIALS) * 2 / N_TRIALS)
    assert abs(fail_new - fail_old) < 5 * se, (fail_old, fail_new)


# --- lower-variance E6 estimate -----------------------------------------------

def test_e6_estimate_given_field_agrees_with_indicator():
    # a dense eavesdropper field (mean count 50) so that E6 fails often
    n = 2000
    outcomes = []
    report = estimate_outage(small_plan(), small_cfg(lambda_e=0.5), small_target(),
                             n, seed=631, collect=outcomes.append)
    rate = report.event_outage["E6"].outage
    assert 0.05 < rate < 0.5
    # paired per-trial differences between the flag and its conditional mean
    diff = np.array([(not o.e6) - o.e6_outage_given_field for o in outcomes])
    assert abs(diff.mean()) < 5 * diff.std(ddof=1) / math.sqrt(n)
    assert report.e6_outage_given_field == pytest.approx(
        np.mean([o.e6_outage_given_field for o in outcomes]))
    assert report.e6_outage_given_field_se < math.sqrt(rate * (1 - rate) / n)


def test_e6_estimate_given_field_zero_without_beamforming():
    # a short relay disc skips stage 2: the flag holds and the estimate is 0
    out = run_trial(small_plan(n_r=10_000), small_cfg(), small_target(), 0, 5)
    assert not out.e1 and out.e6 and out.e6_outage_given_field == 0.0


# --- stage-1 identity ------------------------------------------------------

@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_drawn_minimum_matches_explicit_minimum(gamma):
    # fixed geometry: the exponential-minimum draw against the minimum of
    # explicit per-relay gains h_i^2 d_i^-gamma, h_i^2 ~ Exp(mean 2 mu)
    mu = 0.5
    d = np.random.default_rng(1).uniform(0.1, 1.0, 25)
    n = 20_000
    rng = np.random.default_rng([int(gamma), 2])
    rate = float(np.sum(d ** gamma))
    drawn = np.array([draw_min_gain(rate, mu, rng) for _ in range(n)])
    explicit = (rng.exponential(2.0 * mu, (n, len(d))) * d ** -gamma).min(axis=1)
    _, p_value = stats.ks_2samp(drawn, explicit)
    assert p_value > KS_FLOOR
    exact_mean = 2.0 * mu / float(np.sum(d ** gamma))
    assert abs(drawn.mean() - exact_mean) < 5 * exact_mean / math.sqrt(n)


def test_drawn_minimum_over_no_relays_is_infinite():
    rng = np.random.default_rng(0)
    assert draw_min_gain(0.0, 0.5, rng) == math.inf


# --- precision -------------------------------------------------------------

def kernel_draws(rng, k, mu, piece):
    """The float32 (u, turn, h**2) a one-row ``_relay_field`` call on
    ``rng`` draws for k relays in pieces of ``piece``, concatenated."""
    parts = [_relay_draws(rng, (min(piece, k - start),), mu)
             for start in range(0, k, piece)]
    return [np.concatenate(v) for v in zip(*parts)]


def test_float32_field_with_float64_reductions():
    # a large relay field: the powers from the float32 per-relay terms
    # agree with a float64 evaluation of the same draws to well under 1e-5
    plan = small_plan(n_r=100_000, a_l=1.0)
    cfg = small_cfg(lambda_l=40_000.0, n_legit=4_000_000)  # side 10
    r, n_in_bl = sample_realization(plan, cfg, np.random.default_rng(5))
    assert n_in_bl >= plan.n_r and r.n_eaves
    p = received_powers(r, cfg.p_t)
    # replay the trial's draws: the counts, the eavesdroppers, the relays
    rng = np.random.default_rng(5)
    assert rng.poisson(cfg.lambda_l * math.pi * plan.a_l ** 2) == n_in_bl
    assert rng.poisson(cfg.lambda_e * cfg.side ** 2) == r.n_eaves
    rng.random(2 * r.n_eaves)
    rng.standard_exponential(r.n_eaves)
    u, turn, h2 = (v.astype(np.float64) for v in kernel_draws(
        rng, r.n_relays, cfg.mu, montecarlo.RELAY_PIECE))
    ang = 2.0 * math.pi * turn
    d2_rx = (np.sqrt(u) * np.cos(ang) - cfg.d_tr) ** 2 + u * np.sin(ang) ** 2
    s = math.fsum(h2 / d2_rx)
    assert p.p_l == pytest.approx(s * s / r.n_relays, rel=1e-6)
    assert p.total == pytest.approx(s / r.n_relays, rel=1e-6)
    np.testing.assert_allclose(p.p_e, r.eaves_sum_power * cfg.p_t / r.n_relays,
                               rtol=1e-15)


INTEGER_COLUMNS = ["trial_index", "E1", "E2", "E3", "E4", "E5", "E6", "E7",
                   "composite", "n_in_Bl", "n_in_Be"]


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_trial_without_eavesdroppers_replays_its_draws(gamma, monkeypatch):
    # with no eavesdropper a trial draws the counts, the relays (three
    # kernel pieces of 8, 8 and 4), then the stage-1 exponential; its CSV
    # row against a float64 evaluation of those draws, exact in the
    # integer columns
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 8)
    plan, target = small_plan(), small_target()
    cfg = small_cfg(gamma=gamma, mu=0.8, lambda_e=0.0)
    rate_s, p_t, mu = target.secure_rate, cfg.p_t, cfg.mu
    for i in range(60):
        rng = _trial_rng(23, i)
        n_in_bl = int(rng.poisson(cfg.lambda_l * math.pi * plan.a_l ** 2))
        assert rng.poisson(0.0) == 0
        k = min(n_in_bl, plan.n_r)
        u, turn, h2 = (v.astype(np.float64) for v in kernel_draws(rng, k, mu, 8))
        r = plan.a_l * np.sqrt(u)
        ang = 2.0 * math.pi * turn
        s = math.fsum(h2 * ((r * np.cos(ang) - cfg.d_tr) ** 2
                            + (r * np.sin(ang)) ** 2) ** (-gamma / 2))
        min_gain = 2.0 * mu * rng.standard_exponential() / math.fsum(r ** gamma)
        min_rate = math.log2(1.0 + p_t * min_gain)
        e1 = n_in_bl >= plan.n_r
        p_l, total = (p_t * s * s / k, p_t * s / k) if e1 else (0.0, 0.0)
        rate_l = math.log2(1.0 + p_l) if e1 else 0.0
        want = dict(zip(CSV_COLUMNS, [
            i, int(e1), 1, int(min_rate >= rate_s * (1.0 + target.rho)), 1,
            int(e1 and rate_l >= (1.0 + target.kappa) * rate_s), 1, 1,
            int(e1 and min_rate >= rate_s and rate_l >= rate_s),
            min_rate, 0.0, rate_l, 0.0, p_l, 0.0, total, n_in_bl, 0]))
        got = dict(zip(CSV_COLUMNS, run_trial(plan, cfg, target, i, 23).csv_row()))
        assert [got[c] for c in INTEGER_COLUMNS] == [want[c] for c in INTEGER_COLUMNS]
        for c in CSV_COLUMNS:
            if c not in INTEGER_COLUMNS:
                assert float(got[c]) == pytest.approx(want[c], rel=1e-6), c


def float64_field(rng, k, a_l, cfg, piece):
    """The radii, positions and gains of the float32 draws of a one-row
    ``_relay_field`` call on ``rng``, evaluated in float64."""
    u, turn, h2 = (v.astype(np.float64) for v in kernel_draws(rng, k, cfg.mu, piece))
    r = a_l * np.sqrt(u)
    ang = 2.0 * math.pi * turn
    x, y = r * np.cos(ang), r * np.sin(ang)
    return r, x, y, h2 * ((x - cfg.d_tr) ** 2 + y ** 2) ** (-cfg.gamma / 2)


def eaves_sums_fsum(x, y, gain, ex, ey, gamma):
    """T_j = sum_i g_i d_ij**-gamma, summed exactly, for each eavesdropper."""
    return [math.fsum(gain * ((x - float(a)) ** 2 + (y - float(b)) ** 2)
                      ** (-gamma / 2)) for a, b in zip(ex, ey)]


def gain_sum_error(gamma, b):
    """The relative error the ``_relay_field`` docstring allows S at
    a_l = b*d_tr: gamma/2 times that of d_rx**2, (3 + 30*b)/(1 - b)**2
    units of 2**-24, and 3 units more."""
    return (gamma / 2.0 * (3.0 + 30.0 * b) / (1.0 - b) ** 2 + 3.0) * 2.0 ** -24


@pytest.mark.parametrize("gamma, a_l", [
    pytest.param(2.0, 1.2, id="2.0"), pytest.param(3.0, 1.2, id="3.0"),
    pytest.param(2.0, 0.49 * 5.0, id="2.0-edge"),
    pytest.param(4.0, 0.49 * 5.0, id="4.0-edge")])
def test_relay_sums_float64_over_float32_field(gamma, a_l, monkeypatch):
    # the kernel's sums (rate, S and the eavesdropper sums T_j) against a
    # float64 evaluation of the same float32 draws, summed exactly (fsum);
    # 100 003 relays walk pieces of 2**15 and a shorter last one.  At the
    # edge a_l = 0.49*d_tr, near the largest ratio a plan reaches (0.493),
    # the law of cosines cancels most, and S still holds its docstring bound.
    # Eavesdroppers lie outside the relay disc, as the protected disc keeps
    # them in a plan.  A trial passes their coordinates in float64 and a
    # theorem-4 chunk in float32, and the kernel's distances take that dtype
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 1 << 15)
    cfg, k = small_cfg(gamma=gamma), 100_003
    seeds = np.random.default_rng(int(gamma))
    radius = a_l * seeds.uniform(1.25, 5.0, 7)
    phase = seeds.uniform(0.0, 2.0 * math.pi, 7)
    r, x, y, gain = float64_field(np.random.default_rng([int(gamma), 1]), k,
                                  a_l, cfg, 1 << 15)
    sums = []
    for dtype in (np.float64, np.float32):
        ex, ey = (v.astype(dtype) for v in (radius * np.cos(phase),
                                            radius * np.sin(phase)))
        rate, s, t = _relay_field(np.random.default_rng([int(gamma), 1]), 1, k,
                                  a_l, cfg, ex[None, :], ey[None, :], True)
        want = eaves_sums_fsum(x, y, gain, ex, ey, gamma)
        assert t.shape == (1, 7) and rate.shape == s.shape == (1,)
        np.testing.assert_allclose(t[0], want, rtol=1e-5)
        assert s[0] == pytest.approx(math.fsum(gain),
                                     rel=gain_sum_error(gamma, a_l / cfg.d_tr))
        assert rate[0] == pytest.approx(math.fsum(r ** gamma), rel=1e-5)
        sums.append((rate[0], s[0]))
    # without eavesdroppers: the same draws, the same rate and S bit for
    # bit, no T_j
    none = np.empty((1, 0))
    rate0, s0, t0 = _relay_field(np.random.default_rng([int(gamma), 1]), 1, k,
                                 a_l, cfg, none, none, True)
    assert t0.shape == (1, 0)
    assert sums == [(rate0[0], s0[0])] * 2


# --- far-field eavesdropper sums -----------------------------------------------

def far_radius(a_l, gamma):
    """The distance from the transmitter beyond which an eavesdropper's sum
    takes the far-field expansion."""
    return a_l / math.sqrt(montecarlo._far_field_q2(gamma))


def field_sums(monkeypatch, m, k, a_l, cfg, ex, ey, exact=False):
    """``_relay_field`` on fixed draws; with ``exact``, no eavesdropper
    takes the expansion."""
    with monkeypatch.context() as mp:
        if exact:
            mp.setattr(montecarlo, "FAR_FIELD_ERROR", 0.0)
        return _relay_field(np.random.default_rng([int(cfg.gamma), 7]), m, k,
                            a_l, cfg, ex, ey, False)


def eavesdropper_ring(a_l, gamma):
    """Eavesdroppers 1e-4 inside and outside the far radius at three
    angles, and in the corners of a square of side 17; whether each takes
    the expansion."""
    r_far = far_radius(a_l, gamma)
    phase = np.array([0.3, 2.0, 4.4])
    radius = np.concatenate([np.full(3, r_far * (1 - 1e-4)),
                             np.full(3, r_far * (1 + 1e-4)),
                             np.full(2, 8.5 * math.sqrt(2.0))])
    phase = np.concatenate([phase, phase, [math.pi / 4, 5 * math.pi / 4]])
    far = np.array([False] * 3 + [True] * 5)
    return radius * np.cos(phase), radius * np.sin(phase), far


@pytest.mark.parametrize("gamma", [2.0, 3.0, 4.0])
def test_far_field_sums_within_their_bound_of_the_exact_sums(
        gamma, monkeypatch, reference_plan):
    # at the reference a_l, 1000 relays in pieces of 300: the first-order
    # term is then a few 1e-6 of T_j near the far radius, so a dropped term
    # or factor gamma moves T_j by far more than the bound, 2**-24.  S does
    # not change, nor without eavesdroppers, and near eavesdroppers keep
    # the exact sum bit for bit
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 300)
    cfg, a_l, k = small_cfg(gamma=gamma), reference_plan.a_l, 1000
    assert far_radius(a_l, gamma) < 8.5  # inside a square of side 17
    ex, ey, far = eavesdropper_ring(a_l, gamma)
    got = field_sums(monkeypatch, 1, k, a_l, cfg, ex[None, :], ey[None, :])
    want = field_sums(monkeypatch, 1, k, a_l, cfg, ex[None, :], ey[None, :],
                      exact=True)
    none = np.empty((1, 0))
    assert got[1][0] == want[1][0] == field_sums(monkeypatch, 1, k, a_l, cfg,
                                                 none, none)[1][0]
    t, t_exact = got[2][0], want[2][0]
    assert (t[~far] == t_exact[~far]).all()
    err = np.abs(t[far] / t_exact[far] - 1.0)
    assert (err <= montecarlo.FAR_FIELD_ERROR).all(), err
    assert (err > 0).all()  # the expansion ran


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("gamma", [2.0, 3.0, 4.0])
def test_far_field_sums_match_float64_evaluation(gamma, dtype, monkeypatch,
                                                 reference_plan):
    # the kernel's T_j, near or far, against a float64 evaluation of the
    # same float32 draws, summed exactly (fsum); 20 000 relays in one piece
    cfg, a_l, k = small_cfg(gamma=gamma), reference_plan.a_l, 20_000
    ex, ey = (v.astype(dtype) for v in eavesdropper_ring(a_l, gamma)[:2])
    _, x, y, gain = float64_field(np.random.default_rng([int(gamma), 7]), k,
                                  a_l, cfg, montecarlo.RELAY_PIECE)
    want = eaves_sums_fsum(x, y, gain, ex, ey, gamma)
    _, _, t = field_sums(monkeypatch, 1, k, a_l, cfg, ex[None, :], ey[None, :])
    np.testing.assert_allclose(t[0], want, rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_far_field_rows_mix_near_and_far(dtype, monkeypatch, reference_plan):
    # a theorem-4 layout: 5 rows of 400 relays, side by side in pieces of
    # 1000 elements, 200 relays a row; column 0 is far in every row, column
    # 1 near in rows 1 and 3 only, so the exact pass runs over column 1 and
    # its far rows then take the expansion with their own S, G_x and G_y.
    # Without eavesdroppers the rows have the same S bit for bit
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 1000)
    cfg, a_l = small_cfg(gamma=3.0), reference_plan.a_l
    r_far = far_radius(a_l, cfg.gamma)
    radius = np.array([[3.0, r_far * 1.01], [5.0, r_far * 0.99],
                       [8.0, 12.0], [2 * r_far, 0.5 * r_far], [4.0, 1.2 * r_far]])
    phase = np.random.default_rng(3).uniform(0, 2 * math.pi, radius.shape)
    ex, ey = ((radius * f(phase)).astype(dtype) for f in (np.cos, np.sin))
    far = radius > r_far
    _, s, t = field_sums(monkeypatch, 5, 400, a_l, cfg, ex, ey)
    _, s_exact, t_exact = field_sums(monkeypatch, 5, 400, a_l, cfg, ex, ey,
                                     exact=True)
    none = np.empty((5, 0), dtype)
    _, s_none, _ = field_sums(monkeypatch, 5, 400, a_l, cfg, none, none)
    assert (s == s_exact).all() and (s == s_none).all() and len(np.unique(s)) == 5
    assert (t[~far] == t_exact[~far]).all()
    # float32 distances give the exact pass about 1e-7 of its own
    rtol = montecarlo.FAR_FIELD_ERROR if dtype is np.float64 else 1e-6
    np.testing.assert_allclose(t[far], t_exact[far], rtol=rtol)


@pytest.fixture(scope="module")
def eaves_plan(reference_plan, reference_config):
    """The reference plan at 20x lambda_e_max in the side-20 square: about
    2.2 eavesdroppers per trial, nearly all beyond the far radius (1.7)."""
    return reference_plan, dataclasses.replace(
        reference_config, lambda_e=20.0 * reference_plan.lambda_e_max)


def test_far_field_keeps_trial_outputs(monkeypatch, eaves_plan, reference_target):
    # 200 trials with and without the expansion: integer CSV columns equal,
    # float columns within 1e-6, and some max_P_e changed, so the expansion
    # ran
    plan, cfg = eaves_plan
    rows = {}
    for exact in (False, True):
        with monkeypatch.context() as mp:
            if exact:
                mp.setattr(montecarlo, "FAR_FIELD_ERROR", 0.0)
            out = []
            estimate_outage(plan, cfg, reference_target, 200, 2525,
                            collect=out.append)
            rows[exact] = [dict(zip(CSV_COLUMNS, o.csv_row())) for o in out]
    floats = [c for c in CSV_COLUMNS if c not in INTEGER_COLUMNS]
    assert len(rows[False]) == len(rows[True]) == 200
    assert sum(float(row["max_P_e"]) > 0 for row in rows[True]) > 100
    for got, want in zip(rows[False], rows[True]):
        assert [got[c] for c in INTEGER_COLUMNS] == [want[c] for c in INTEGER_COLUMNS]
        np.testing.assert_allclose([float(got[c]) for c in floats],
                                   [float(want[c]) for c in floats], rtol=1e-6)
    assert any(g["max_P_e"] != w["max_P_e"] for g, w in zip(rows[False], rows[True]))


def test_far_field_keeps_power_bound_estimates(monkeypatch, reference_plan,
                                               reference_config):
    # every theorem-4 eavesdropper lies outside the protected disc, far
    # beyond the far radius: 200 samples with and without the expansion
    plan, cfg = reference_plan, reference_config
    assert plan.a_e > far_radius(plan.a_l, cfg.gamma)
    got = montecarlo.verify_power_bounds(plan, cfg, 200, 77)
    monkeypatch.setattr(montecarlo, "FAR_FIELD_ERROR", 0.0)
    want = montecarlo.verify_power_bounds(plan, cfg, 200, 77)
    for g, w in zip(got, want):
        assert g.name == w.name and g.reference == w.reference
        assert g.estimate == pytest.approx(w.estimate, rel=1e-6)
        assert g.std_err == pytest.approx(w.std_err, rel=1e-6)
    assert [g.estimate for g in got if "P_e" in g.name] != [
        w.estimate for w in want if "P_e" in w.name]


# --- memory -------------------------------------------------------------------

def trial_peak_bytes(plan, cfg, target, trial_index, seed):
    tracemalloc.start()
    try:
        run_trial(plan, cfg, target, trial_index, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trial_memory_does_not_grow_with_eavesdroppers():
    # 2**16 relays: one trial with about 16 eavesdroppers peaks within 1.5x
    # of one with a single eavesdropper (per-pair arrays would add 16 x 2**16
    # float64 and complex values)
    plan, target = small_plan(n_r=1 << 16, a_l=1.0), small_target()
    peaks = {}
    for want, lambda_e in [(1, 0.01), (16, 0.16)]:
        cfg = small_cfg(lambda_l=30_000.0, lambda_e=lambda_e, n_legit=3_000_000)
        index = next(i for i in range(200) if sample_realization(
            plan, cfg, _trial_rng(3, i))[0].n_eaves == want)
        peaks[want] = trial_peak_bytes(plan, cfg, target, index, 3)
    assert peaks[16] < 1.5 * peaks[1], peaks


# --- theorem-4 bound sampler ------------------------------------------------

def sample_power_bounds_v1(plan, cfg, n_samples, rng, chunk_elems=1 << 22):
    """Theorem-4 sampler with per-relay complex eavesdropper fading."""
    g = np.float32(cfg.gamma)
    side = max(cfg.side, 2.0 * plan.a_e * 1.05)  # square must contain the disc
    n_r = plan.n_r
    f32 = np.float32
    tau = f32(2.0 * math.pi)
    two_mu = f32(2.0 * cfg.mu)
    p_l = np.empty(n_samples)
    p_e = np.empty(n_samples)
    rows = max(1, chunk_elems // n_r)
    done = 0
    while done < n_samples:
        m = min(rows, n_samples - done)
        shape = (m, n_r)
        r = rng.random(shape, dtype=f32)
        np.sqrt(r, out=r)
        r *= f32(plan.a_l)
        ang = rng.random(shape, dtype=f32)
        ang *= tau
        x = np.cos(ang)
        x *= r
        y = np.sin(ang, out=ang)
        y *= r
        dx = x - f32(cfg.d_tr)
        d_rx2 = dx * dx
        d_rx2 += y * y
        # h^2 ~ Exponential(2 mu) via inverse transform; log1p keeps u=0 safe
        h2 = rng.random(shape, dtype=f32)
        np.negative(h2, out=h2)
        np.log1p(h2, out=h2)
        h2 *= -two_mu
        gain = d_rx2 ** (-g / 2)
        gain *= h2
        s = gain.sum(axis=1, dtype=np.float64)
        p_l[done:done + m] = s * s / n_r
        # one eavesdropper per realization, uniform outside the disc
        ex = np.empty(m)
        ey = np.empty(m)
        need = np.arange(m)
        while len(need):
            cx = (rng.random(len(need)) - 0.5) * side
            cy = (rng.random(len(need)) - 0.5) * side
            ok = np.hypot(cx, cy) > plan.a_e
            ex[need[ok]] = cx[ok]
            ey[need[ok]] = cy[ok]
            need = need[~ok]
        dex = x - ex[:, None].astype(f32)
        d_e2 = dex * dex
        dey = y - ey[:, None].astype(f32)
        d_e2 += dey * dey
        # relay->eavesdropper Rayleigh magnitude, inverse transform again
        he = rng.random(shape, dtype=f32)
        np.negative(he, out=he)
        np.log1p(he, out=he)
        he *= -two_mu
        np.sqrt(he, out=he)
        d_e2 *= d_rx2
        amp = d_e2 ** (-g / 4)
        np.sqrt(h2, out=h2)
        amp *= h2
        amp *= he
        dth = rng.random(shape, dtype=f32)
        dth *= tau
        cre = np.cos(dth)
        cre *= amp
        sim = np.sin(dth, out=dth)
        sim *= amp
        zre = cre.sum(axis=1, dtype=np.float64)
        zim = sim.sum(axis=1, dtype=np.float64)
        p_e[done:done + m] = (zre * zre + zim * zim) / n_r
        done += m
    return p_l, p_e


@pytest.fixture(scope="module",
                params=[(1, 2.0, None), (16, 2.0, None), (1, 3.0, None),
                        (16, 3.0, None), (300, 2.0, 64), (300, 3.0, 64)],
                ids=["nr1-gamma2", "nr16-gamma2", "nr1-gamma3", "nr16-gamma3",
                     "nr300-gamma2-pieces", "nr300-gamma3-pieces"])
def both_bound_samplers(request):
    # mu != 0.5, so that a dropped or doubled 2*mu changes the law, and a
    # relay disc half as wide as d_tr, so that the relay geometry does too;
    # with a piece of 64 relay elements, n_r = 300 takes the path that
    # walks one sample's relays in pieces (four of 64 and one of 44)
    n_r, gamma, piece = request.param
    plan, cfg = small_plan(n_r=n_r, a_l=2.5), small_cfg(gamma=gamma, mu=0.8)
    old = sample_power_bounds_v1(plan, cfg, N_TRIALS,
                                 np.random.default_rng([n_r, int(gamma), 71]))
    with pytest.MonkeyPatch.context() as mp:
        if piece is not None:
            mp.setattr(montecarlo, "RELAY_PIECE", piece)
        new = bound_draws(plan, cfg, N_TRIALS, seed=7300 + 10 * n_r + int(gamma))
    return old, new


@pytest.mark.parametrize("power", ["P_l", "P_e"])
def test_bound_sampler_matches_per_relay_fading(both_bound_samplers, power):
    old, new = both_bound_samplers
    k = ["P_l", "P_e"].index(power)
    _, p_value = stats.ks_2samp(old[k], new[k])
    assert p_value > KS_FLOOR, (power, p_value)


# --- the chunk engine of both verifiers, and its ordered map ---------------

def nopath_draws(mu, n_r, n_samples, seed):
    """The (P_l, P_e) samples ``verify_moments`` reduces, at ``mu``."""
    return chunk_draws(lambda rng, m: _sample_powers_nopath(mu, n_r, m, rng),
                       montecarlo.MOMENT_CHUNK, 0, n_samples, seed)


@pytest.fixture(params=["bounds-rows", "bounds-pieces", "nopath"])
def engine(request, monkeypatch):
    """One verifier on the chunk engine, with small chunks: theorem-4
    chunks of 64 relay elements, 3 samples of 20 relays or one sample of
    300 relays walked in 5 pieces; verify-moments chunks of 3 samples, so
    that a window holds several.  ``draws(n, seed)`` are the samples
    ``verify(n, seed)`` reduces; chunk c holds ``rows`` of them, drawn by
    ``chunk(np.random.default_rng([seed, key, c]), m)``; ``name`` is the
    module global that ``chunk`` calls."""
    if request.param == "nopath":
        monkeypatch.setattr(montecarlo, "MOMENT_CHUNK", 3)
        return SimpleNamespace(
            draws=lambda n, seed: nopath_draws(0.7, 5, n, seed),
            verify=lambda n, seed: montecarlo.verify_moments(0.7, 5, n, seed),
            chunk=lambda rng, m: _sample_powers_nopath(0.7, 5, m, rng),
            rows=3, key=0, name="_sample_powers_nopath")
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 64)
    n_r = 20 if request.param == "bounds-rows" else 300
    plan, cfg = small_plan(n_r=n_r, a_l=2.5), small_cfg(gamma=3.0, mu=0.8)
    return SimpleNamespace(
        draws=lambda n, seed: bound_draws(plan, cfg, n, seed),
        verify=lambda n, seed: montecarlo.verify_power_bounds(plan, cfg, n, seed),
        chunk=lambda rng, m: montecarlo._power_bounds_chunk(plan, cfg, rng, m),
        rows=max(1, 64 // n_r), key=1, name="_power_bounds_chunk")


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        CountingThread.started += 1
        super().start()


def moments_state(acc):
    """The count and sums of a RunningMoments, to compare bit for bit."""
    return tuple(getattr(acc, name) for name in acc.__slots__)


def test_chunk_samples_do_not_depend_on_thread_count(monkeypatch, engine):
    # 200 samples in 67 or 200 chunks, so in 2 or 4 windows of at most
    # WINDOW chunks, each on its own threads; more threads than cores
    # and a short switch interval: a chunk taken twice or skipped, or merged
    # out of order, would change the count or the sums
    windows = math.ceil(math.ceil(200 / engine.rows) / montecarlo.WINDOW)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = []
        for n in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=n: set(range(n)))
            CountingThread.started = 0
            runs.append([moments_state(acc) for acc in montecarlo._chunk_moments(
                engine.chunk, engine.rows, engine.key, 200, 41)])
            assert CountingThread.started == (n - 1) * windows
    finally:
        sys.setswitchinterval(interval)
    assert runs[0][0][0] == runs[0][1][0] == 200
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_chunk_c_draws_from_its_own_generator(engine):
    # 10 samples in chunks of 3, 3, 3 and 1, or of one each: the engine
    # merges, in chunk order, the moments of chunk c as drawn from its own
    # generator, and the verifier reduces exactly these draws
    want = RunningMoments(), RunningMoments()
    for c, lo in enumerate(range(0, 10, engine.rows)):
        draws = engine.chunk(np.random.default_rng([53, engine.key, c]),
                             min(engine.rows, 10 - lo))
        for acc, x in zip(want, draws):
            acc.merge(RunningMoments.of(x))
    got = montecarlo._chunk_moments(engine.chunk, engine.rows, engine.key, 10, 53)
    assert list(map(moments_state, got)) == list(map(moments_state, want))
    p_l, p_e = engine.draws(10, 53)
    assert len(np.unique(p_l)) == 10 and len(np.unique(p_e)) == 10
    accs = {"P_l": RunningMoments.of(p_l), "P_e": RunningMoments.of(p_e)}
    for check in engine.verify(10, 53):
        acc = accs["P_l" if "P_l" in check.name else "P_e"]
        want = acc.mean if check.name.startswith("mean") else acc.variance()
        assert check.estimate == pytest.approx(want, rel=1e-12)


def test_chunk_engine_uses_no_more_threads_than_chunks(monkeypatch, engine):
    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    CountingThread.started = 0
    engine.verify(3 * engine.rows, 43)  # three chunks in one window
    assert CountingThread.started == 2


def test_verify_moments_runs_on_every_usable_cpu(monkeypatch):
    # four chunks of MOMENT_CHUNK samples make one window, which two usable
    # CPUs share: the calling thread and one helper
    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    CountingThread.started = 0
    montecarlo.verify_moments(0.5, 32, 4 * montecarlo.MOMENT_CHUNK, 59)
    assert CountingThread.started == 1


def test_chunk_engine_raises_what_a_thread_raised(monkeypatch, engine):
    def chunk(*args):
        raise MemoryError("chunk")

    monkeypatch.setattr(montecarlo, engine.name, chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    before = threading.active_count()
    with pytest.raises(MemoryError, match="chunk"):
        engine.verify(100, 47)
    assert threading.active_count() == before


def test_ordered_map_runs_each_index_once(monkeypatch):
    # 500 tiny calls in windows of 64 (the last of 52), so the threads
    # mostly take indices, on up to more threads than cores and at a short
    # switch interval: an index handed out twice or skipped shows in the
    # count of calls per index; every 50th call sleeps, so on threads later
    # calls end first, and values yielded as they end would be out of order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=n: set(range(n)))
            calls = []

            def fn(i):
                calls.append(i)
                if i % 50 == 0:
                    time.sleep(0.001)
                return -i

            got = list(montecarlo._ordered_map(fn, 500))
            assert Counter(calls) == Counter(range(500))
            assert got == [-i for i in range(500)]
    finally:
        sys.setswitchinterval(interval)


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9})
    assert montecarlo.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert montecarlo.usable_cpus() == (os.cpu_count() or 1)


def test_trials_start_no_more_threads_than_trials(monkeypatch):
    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    for n_trials, started in ((1, 0), (3, 2)):
        CountingThread.started = 0
        estimate_outage(small_plan(), small_cfg(), small_target(), n_trials, 3)
        assert CountingThread.started == started


def test_failed_trial_keeps_the_serial_prefix(monkeypatch):
    # windows of 4 trials on 3 threads; trials 5 and up raise, trial 5
    # last of its window: collect has trials 0-4, trial 5's exception
    # propagates, and no thread is left running
    monkeypatch.setattr(montecarlo, "WINDOW", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    plan, cfg, target = small_plan(), small_cfg(), small_target()

    def failing(plan, cfg, target, i, seed):
        if i == 5:
            time.sleep(0.05)
        if i >= 5:
            raise MemoryError(f"trial {i}")
        return run_trial(plan, cfg, target, i, seed)

    monkeypatch.setattr(montecarlo, "run_trial", failing)
    before = threading.active_count()
    outcomes = []
    with pytest.raises(MemoryError, match="^trial 5$"):
        estimate_outage(plan, cfg, target, 12, 37, collect=outcomes.append)
    assert threading.active_count() == before
    assert outcomes == [run_trial(plan, cfg, target, i, 37) for i in range(5)]


@pytest.mark.parametrize("mu", [0.5, 1.3])
def test_weighted_circular_gaussian_sum_is_exponential(mu):
    # for fixed weights c_i and w_i = h_i e^{j theta_i} i.i.d. CN(0, 2 mu),
    # |sum_i c_i w_i|^2 / sum_i c_i^2 is exponential with mean 2 mu
    c = np.random.default_rng(3).uniform(0.05, 2.0, 12)
    n = 20_000
    rng = np.random.default_rng([int(10 * mu), 79])
    w = (rng.rayleigh(math.sqrt(mu), (n, len(c)))
         * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (n, len(c)))))
    ratio = np.abs(w @ c) ** 2 / np.sum(c * c)
    _, p_value = stats.kstest(ratio, stats.expon(scale=2.0 * mu).cdf)
    assert p_value > KS_FLOOR
    assert abs(ratio.mean() - 2.0 * mu) < 5 * 2.0 * mu / math.sqrt(n)


@pytest.mark.parametrize("mean", [0.3, 2.6])
def test_exponential_f32_is_exponential(mean):
    x = _exponential_f32(np.random.default_rng([int(10 * mean), 83]), (20_000,), mean)
    assert x.dtype == np.float32
    _, p_value = stats.kstest(x.astype(np.float64), stats.expon(scale=mean).cdf)
    assert p_value > KS_FLOOR
    assert x.max() <= 23 * math.log(2) * mean * (1 + 1e-6)


# --- no-path-loss moments sampler -------------------------------------------

def sample_powers_nopath_v1(mu: float, n_r: int, n_samples: int,
                            rng: np.random.Generator, chunk: int = 1 << 22):
    """Monte Carlo draws of P_l and P_e with unit distances and p_t = 1."""
    p_l = np.empty(n_samples)
    p_e = np.empty(n_samples)
    done = 0
    rows = max(1, chunk // max(n_r, 1))
    while done < n_samples:
        m = min(rows, n_samples - done)
        h2 = rng.exponential(2.0 * mu, (m, n_r))
        p_l[done:done + m] = h2.sum(axis=1) ** 2 / n_r
        hl = rng.rayleigh(math.sqrt(mu), (m, n_r))
        he = rng.rayleigh(math.sqrt(mu), (m, n_r))
        dth = rng.random((m, n_r)) * 2.0 * math.pi
        z = (hl * he * np.exp(1j * dth)).sum(axis=1) / math.sqrt(n_r)
        p_e[done:done + m] = np.abs(z) ** 2
        done += m
    return p_l, p_e


@pytest.mark.parametrize("n_r", [1, 3, 16])
@pytest.mark.parametrize("mu", [0.5, 1.3])
def test_nopath_sampler_matches_per_relay_draws(monkeypatch, n_r, mu):
    # the draws of verify moments in chunks of 300 samples, so the 4000
    # draws cross 13 chunk boundaries
    monkeypatch.setattr(montecarlo, "MOMENT_CHUNK", 300)
    old = sample_powers_nopath_v1(mu, n_r, N_TRIALS,
                                  np.random.default_rng([n_r, int(10 * mu), 89]))
    new = nopath_draws(mu, n_r, N_TRIALS, 7050 + 100 * n_r + int(10 * mu))
    for power, a, b in zip(["P_l", "P_e"], old, new):
        assert len(b) == N_TRIALS
        _, p_value = stats.ks_2samp(a, b)
        assert p_value > KS_FLOOR, (power, p_value)


# --- verifier memory ----------------------------------------------------------

def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_moments_memory_does_not_grow_with_samples(monkeypatch):
    # 2**20 samples held at once would take 16 MiB, 16x the 2**16 run.  On
    # one thread the peak is one chunk's arrays at any sample count.  On two
    # it also depends on whether the threads' arrays coincide, which no
    # sample count fixes (0.66 to 1.08 MB from 2**16 to 2**21 samples), so
    # there each thread is held to the factor of one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    small = peak_bytes(montecarlo.verify_moments, 0.5, 32, 1 << 16, 3)
    large = peak_bytes(montecarlo.verify_moments, 0.5, 32, 1 << 20, 3)
    assert large < 1.1 * small, (small, large)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    large = peak_bytes(montecarlo.verify_moments, 0.5, 32, 1 << 20, 3)
    assert large < 2 * 1.1 * small, (small, large)


def test_verify_power_bounds_memory_does_not_grow_with_samples(monkeypatch):
    # on two threads, warmed: the calling thread makes its kernel buffer
    # (3.5 MiB) on first use and keeps it, so a cold small run holds it on
    # top of the helper thread's, 9 MB against a warm run's 5.4 MB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    plan, cfg = small_plan(), small_cfg()
    montecarlo.verify_power_bounds(plan, cfg, 2, 3)
    small = peak_bytes(montecarlo.verify_power_bounds, plan, cfg, 1 << 16, 3)
    large = peak_bytes(montecarlo.verify_power_bounds, plan, cfg, 1 << 20, 3)
    assert large < 1.1 * small, (small, large)
    # a piece below n_r = 20 makes every chunk one sample, as at the
    # reference plan: a window holds at most WINDOW chunks' moments,
    # about 25 KiB, and the peak varies by a few KiB from run to run; a
    # window of every chunk would hold 0.7 MiB at 2**11 samples
    monkeypatch.setattr(montecarlo, "RELAY_PIECE", 16)
    small = peak_bytes(montecarlo.verify_power_bounds, plan, cfg, 1 << 8, 3)
    large = peak_bytes(montecarlo.verify_power_bounds, plan, cfg, 1 << 11, 3)
    assert large < 1.5 * small, (small, large)
