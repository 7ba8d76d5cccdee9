"""Distributional checks of the trial sampler (random stream 3), of the
theorem-4 bound sampler and of the no-path-loss moments sampler.

The stream-1 sampler and its closed forms are kept here verbatim as the
oracle: every per-relay link drawn in float64 as a Rayleigh magnitude with
a uniform phase, the stage-1 minimum taken over explicit per-relay gains.
Stream 3 draws the same law through sufficient statistics and float32
draws from one uniform source, so on fixed seeds the two must agree in
distribution, not in values.  Likewise the theorem-4 sampler that drew
every relay->eavesdropper fading and phase is kept as the oracle of the one
that draws P_e from its conditional law, and the per-relay no-path-loss
sampler as the oracle of the one that draws only the gain sum.
"""

import math

import numpy as np
import pytest
from scipy import stats

from secbeam.montecarlo import (_exponential_f32, _sample_power_bounds,
                                _sample_powers_nopath, draw_min_gain, run_trial,
                                sample_realization)
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


@pytest.fixture(scope="module", params=[(1, 2.0), (16, 2.0), (1, 3.0), (16, 3.0)],
                ids=["nr1-gamma2", "nr16-gamma2", "nr1-gamma3", "nr16-gamma3"])
def both_bound_samplers(request):
    # mu != 0.5, so that a dropped or doubled 2*mu changes the law, and a
    # relay disc half as wide as d_tr, so that the relay geometry does too
    n_r, gamma = request.param
    plan, cfg = small_plan(n_r=n_r, a_l=2.5), small_cfg(gamma=gamma, mu=0.8)
    old = sample_power_bounds_v1(plan, cfg, N_TRIALS,
                                 np.random.default_rng([n_r, int(gamma), 71]))
    new = _sample_power_bounds(plan, cfg, N_TRIALS,
                               np.random.default_rng([n_r, int(gamma), 73]))
    return old, new


@pytest.mark.parametrize("power", ["P_l", "P_e"])
def test_bound_sampler_matches_per_relay_fading(both_bound_samplers, power):
    old, new = both_bound_samplers
    k = ["P_l", "P_e"].index(power)
    _, p_value = stats.ks_2samp(old[k], new[k])
    assert p_value > KS_FLOOR, (power, p_value)


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
def test_nopath_sampler_matches_per_relay_draws(n_r, mu):
    seed = [n_r, int(10 * mu)]
    old = sample_powers_nopath_v1(mu, n_r, N_TRIALS, np.random.default_rng([*seed, 89]))
    new = _sample_powers_nopath(mu, n_r, N_TRIALS, np.random.default_rng([*seed, 97]))
    for power, a, b in zip(["P_l", "P_e"], old, new):
        _, p_value = stats.ks_2samp(a, b)
        assert p_value > KS_FLOOR, (power, p_value)
