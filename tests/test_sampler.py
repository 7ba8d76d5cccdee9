"""Distributional checks of the trial sampler (random stream 2).

The stream-1 sampler and its closed forms are kept here verbatim as the
oracle: every per-relay link drawn in float64 as a Rayleigh magnitude with
a uniform phase, the stage-1 minimum taken over explicit per-relay gains.
Stream 2 draws the same law through sufficient statistics, so on fixed
seeds the two must agree in distribution, not in values.
"""

import math

import numpy as np
import pytest
from scipy import stats

from secbeam.montecarlo import draw_min_gain, run_trial, sample_realization
from secbeam.beamform import received_powers

from test_montecarlo import small_cfg, small_plan, small_target

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
    return {"min_relay_rate": min_rate, "max_eaves_rate_s1": max_e1,
            "P_l": p_l, "total_relay_power": total, "max_P_e": max_p_e,
            "n_in_Bl": n_in_bl}


# --- two-sample tests ------------------------------------------------------

STATISTICS = ["min_relay_rate", "max_eaves_rate_s1", "P_l",
              "total_relay_power", "max_P_e", "n_in_Bl"]


@pytest.fixture(scope="module", params=[2.0, 3.0], ids=["gamma2", "gamma3"])
def both_streams(request):
    gamma = request.param
    plan, cfg, target = small_plan(), small_cfg(gamma=gamma), small_target()
    seed = int(gamma)
    old = [trial_v1(plan, cfg, target, np.random.default_rng([seed, 10 ** 6 + i]))
           for i in range(N_TRIALS)]
    new = [run_trial(plan, cfg, target, i, seed) for i in range(N_TRIALS)]
    columns_old = {s: np.array([t[s] for t in old]) for s in STATISTICS}
    columns_new = {
        "min_relay_rate": np.array([o.min_relay_rate for o in new]),
        "max_eaves_rate_s1": np.array([o.max_eaves_rate_s1 for o in new]),
        "P_l": np.array([o.p_l for o in new]),
        "total_relay_power": np.array([o.total_relay_power for o in new]),
        "max_P_e": np.array([o.max_p_e for o in new]),
        "n_in_Bl": np.array([o.n_in_bl for o in new]),
    }
    return columns_old, columns_new


@pytest.mark.parametrize("statistic", STATISTICS)
def test_stream_matches_stream_1_in_distribution(both_streams, statistic):
    old, new = both_streams
    # eavesdroppers are present in nearly every trial (mean count 5)
    assert np.mean(new["max_P_e"] > 0) > 0.9
    _, p_value = stats.ks_2samp(old[statistic], new[statistic])
    assert p_value > KS_FLOOR, (statistic, p_value)


# --- stage-1 identity ------------------------------------------------------

@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_drawn_minimum_matches_explicit_minimum(gamma):
    # fixed geometry: the exponential-minimum draw against the minimum of
    # explicit per-relay gains h_i^2 d_i^-gamma, h_i^2 ~ Exp(mean 2 mu)
    mu = 0.5
    d = np.random.default_rng(1).uniform(0.1, 1.0, 25)
    n = 20_000
    rng = np.random.default_rng([int(gamma), 2])
    drawn = np.array([draw_min_gain(d ** 2, gamma, mu, rng) for _ in range(n)])
    explicit = (rng.exponential(2.0 * mu, (n, len(d))) * d ** -gamma).min(axis=1)
    _, p_value = stats.ks_2samp(drawn, explicit)
    assert p_value > KS_FLOOR
    exact_mean = 2.0 * mu / float(np.sum(d ** gamma))
    assert abs(drawn.mean() - exact_mean) < 5 * exact_mean / math.sqrt(n)


def test_drawn_minimum_over_no_relays_is_infinite():
    rng = np.random.default_rng(0)
    assert draw_min_gain(np.empty(0, dtype=np.float32), 2.0, 0.5, rng) == math.inf


# --- precision -------------------------------------------------------------

def test_float32_field_with_float64_reductions():
    # a large relay field: the powers from the float32 per-relay arrays
    # agree with a float64 evaluation of the same arrays to well under 1e-5
    plan = small_plan(n_r=100_000, a_l=1.0)
    cfg = small_cfg(lambda_l=40_000.0, n_legit=4_000_000)  # side 10
    r, n_in_bl = sample_realization(plan, cfg, np.random.default_rng(5))
    assert n_in_bl >= plan.n_r and r.n_eaves
    p = received_powers(r, cfg.p_t, cfg.gamma)
    gain = r.relay_h2_rx.astype(np.float64) / r.relay_d2_rx.astype(np.float64)
    s = math.fsum(gain)
    assert p.p_l == pytest.approx(s * s / r.n_relays, rel=1e-6)
    assert p.total == pytest.approx(s / r.n_relays, rel=1e-6)
    z = (np.sqrt(gain)[None, :] / np.sqrt(r.eaves_d2_relay)
         * r.eaves_fading_relay.astype(np.complex128)).sum(axis=1)
    np.testing.assert_allclose(p.p_e, np.abs(z) ** 2 / r.n_relays, rtol=1e-5)
