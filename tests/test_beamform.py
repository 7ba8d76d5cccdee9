import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secbeam.beamform import (NetworkRealization, received_powers,
                              select_relays, stage1_rates, stage2_rates)
from secbeam.moments import mean_pl_nopath, mean_pe_nopath


def random_channels(n_relays, n_eaves, rng, mu=0.5):
    """Raw links with positive random distances, Rayleigh magnitudes and
    uniform phases: transmitter links (d_tx, h_tx), receiver links
    (d_rx, h_rx, theta), transmitter->eavesdropper links (e_tx, eh_tx) and
    relay->eavesdropper links (d_e, h_e, phi)."""
    scale = math.sqrt(mu)
    return SimpleNamespace(
        d_tx=rng.uniform(0.5, 2.0, n_relays),
        h_tx=rng.rayleigh(scale, n_relays),
        d_rx=rng.uniform(0.5, 2.0, n_relays),
        h_rx=rng.rayleigh(scale, n_relays),
        theta=rng.uniform(0, 2 * math.pi, n_relays),
        e_tx=rng.uniform(0.5, 2.0, n_eaves),
        eh_tx=rng.rayleigh(scale, n_eaves),
        d_e=rng.uniform(0.5, 2.0, (n_eaves, n_relays)),
        h_e=rng.rayleigh(scale, (n_eaves, n_relays)),
        phi=rng.uniform(0, 2 * math.pi, (n_eaves, n_relays)),
    )


def realization_of(ch, gamma=2.0):
    """The realization the sampler would store for these raw links: squared
    distances and magnitudes, the worst stage-1 relay gain, and each
    eavesdropper link's fading times its relay's weight phase."""
    return NetworkRealization(
        relay_d2_tx=ch.d_tx ** 2,
        relay_min_gain=float(np.min(ch.h_tx ** 2 * ch.d_tx ** -gamma,
                                    initial=np.inf)),
        relay_d2_rx=ch.d_rx ** 2,
        relay_h2_rx=ch.h_rx ** 2,
        eaves_dist_tx=ch.e_tx,
        eaves_h2_tx=ch.eh_tx ** 2,
        eaves_d2_relay=ch.d_e ** 2,
        eaves_fading_relay=ch.h_e * np.exp(1j * (ch.phi - ch.theta[None, :])),
    )


def conjugate_weights(ch, gamma):
    """Oracle weights w_i = d_i^{-gamma/2} h_i e^{-j theta_i} / sqrt(n_r),
    the conjugate of each relay's channel to the receiver."""
    return (ch.d_rx ** (-gamma / 2.0) * ch.h_rx
            * np.exp(-1j * ch.theta)) / math.sqrt(len(ch.d_rx))


def complex_channel_powers(ch, p_t, gamma):
    """Raw complex-arithmetic oracle for the stage-2 powers.

    Builds the actual channel gains g_i = d_i^{-gamma/2} h_i e^{j theta_i},
    the conjugate weights, and evaluates |sum w_i g_i|^2 * p_t directly.
    """
    w = conjugate_weights(ch, gamma)
    g_rx = ch.d_rx ** (-gamma / 2.0) * ch.h_rx * np.exp(1j * ch.theta)
    p_l = abs(np.dot(w, g_rx)) ** 2 * p_t
    g_e = ch.d_e ** (-gamma / 2.0) * ch.h_e * np.exp(1j * ch.phi)
    p_e = np.abs(g_e @ w) ** 2 * p_t
    per_relay = np.abs(w) ** 2 * p_t
    return p_l, p_e, per_relay


# --- relay recruitment -----------------------------------------------------

def test_select_relays_shortfall():
    pts = np.array([[0.1, 0.0], [5.0, 5.0]])
    sel = select_relays(pts, 1.0, 3, np.random.default_rng(0))
    assert sel.shortfall
    assert sel.available == 1
    assert sel.indices is None


def test_select_relays_exact_fill():
    pts = np.array([[0.1, 0.0], [0.0, 0.2], [3.0, 0.0]])
    sel = select_relays(pts, 1.0, 2, np.random.default_rng(0))
    assert not sel.shortfall
    assert sorted(sel.indices) == [0, 1]


def test_select_relays_boundary_counts():
    pts = np.array([[1.0, 0.0]])
    sel = select_relays(pts, 1.0, 1, np.random.default_rng(0))
    assert not sel.shortfall


def test_select_relays_no_duplicates():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (50, 2))
    inside = np.flatnonzero(np.hypot(pts[:, 0], pts[:, 1]) <= 0.9)
    sel = select_relays(pts, 0.9, min(10, len(inside)), rng)
    assert len(set(sel.indices.tolist())) == len(sel.indices)
    assert set(sel.indices.tolist()) <= set(inside.tolist())


def test_select_relays_uniform():
    # each of 5 candidates should appear in a size-2 draw w.p. 2/5
    pts = np.array([[0.1 * k, 0.0] for k in range(5)])
    rng = np.random.default_rng(2)
    n = 4000
    hits = np.zeros(5)
    for _ in range(n):
        sel = select_relays(pts, 1.0, 2, rng)
        hits[sel.indices] += 1
    freq = hits / n
    se = math.sqrt(0.4 * 0.6 / n)
    assert np.all(np.abs(freq - 0.4) < 5 * se)


# --- stage 1 ---------------------------------------------------------------

def test_stage1_rates_hand_case():
    # relays at distances 1 and 2 with magnitudes 1 and 2: gains 1 and 1
    r = NetworkRealization(
        relay_d2_tx=np.array([1.0, 4.0]),
        relay_min_gain=1.0,
        relay_d2_rx=np.ones(2),
        relay_h2_rx=np.ones(2),
        eaves_dist_tx=np.array([1.0]),
        eaves_h2_tx=np.array([3.0]),
        eaves_d2_relay=np.ones((1, 2)),
        eaves_fading_relay=np.ones((1, 2), dtype=complex),
    )
    min_rate, max_rate, violated = stage1_rates(r, 1.0, 2.0, 0.5)
    # relay SNRs: 1 and 1, eavesdropper SNR: 3
    assert min_rate == pytest.approx(1.0)
    assert max_rate == pytest.approx(2.0)
    assert violated is False
    _, _, violated = stage1_rates(r, 1.0, 2.0, 1.0)
    assert violated is True


def test_stage1_rates_empty_sets():
    r = realization_of(random_channels(0, 0, np.random.default_rng(0)))
    min_rate, max_rate, violated = stage1_rates(r, 1.0, 2.0, 1.0)
    assert min_rate == 0.0
    assert max_rate == 0.0
    assert violated is False


def test_stage1_min_is_worst_relay():
    rng = np.random.default_rng(3)
    ch = random_channels(20, 5, rng)
    r = realization_of(ch)
    min_rate, max_rate, _ = stage1_rates(r, 2.0, 2.0, 0.1)
    rates = np.log2(1 + 2.0 * ch.h_tx ** 2 * ch.d_tx ** -2.0)
    assert min_rate == pytest.approx(rates.min())
    rates_e = np.log2(1 + 2.0 * ch.eh_tx ** 2 * ch.e_tx ** -2.0)
    assert max_rate == pytest.approx(rates_e.max())


# --- weights ---------------------------------------------------------------

def test_weights_align_channel_phase():
    # the oracle's conjugate weights co-phase: w_i * g_i is real positive
    # for every relay
    rng = np.random.default_rng(4)
    ch = random_channels(10, 0, rng)
    w = conjugate_weights(ch, 2.0)
    g = ch.d_rx ** -1.0 * ch.h_rx * np.exp(1j * ch.theta)
    prod = w * g
    assert np.all(prod.real > 0)
    assert np.allclose(prod.imag, 0.0, atol=1e-12)


# --- stage-2 powers --------------------------------------------------------

def test_received_powers_single_relay_hand_case():
    r = NetworkRealization(
        relay_d2_tx=np.array([1.0]),
        relay_min_gain=1.0,
        relay_d2_rx=np.array([4.0]),
        relay_h2_rx=np.array([9.0]),
        eaves_dist_tx=np.array([1.0]),
        eaves_h2_tx=np.array([1.0]),
        eaves_d2_relay=np.array([[16.0]]),
        eaves_fading_relay=np.array([[2.0 * np.exp(1j * (1.9 - 0.7))]]),
    )
    p = received_powers(r, 2.0, 2.0)
    # coherent amplitude: 2^-2 * 9 = 2.25, squared times p_t
    assert p.p_l == pytest.approx(2.25 ** 2 * 2.0)
    # cross amplitude magnitude: (1/2)*(1/4)*3*2 = 0.75 (phase drops in | |)
    assert p.p_e[0] == pytest.approx(0.75 ** 2 * 2.0)
    assert p.per_relay[0] == pytest.approx(2.0 ** -2 * 9.0 * 2.0)
    assert p.total == pytest.approx(p.per_relay.sum())


@pytest.mark.parametrize("n_relays,n_eaves", [(1, 1), (3, 2), (17, 5)])
def test_closed_form_matches_complex_oracle(n_relays, n_eaves):
    rng = np.random.default_rng(10 + n_relays)
    for _ in range(50):
        ch = random_channels(n_relays, n_eaves, rng)
        p = received_powers(realization_of(ch), 1.7, 2.0)
        p_l, p_e, per_relay = complex_channel_powers(ch, 1.7, 2.0)
        assert p.p_l == pytest.approx(p_l, rel=1e-12)
        np.testing.assert_allclose(p.p_e, p_e, rtol=1e-12)
        np.testing.assert_allclose(p.per_relay, per_relay, rtol=1e-12)


def test_p_l_invariant_to_receiver_phases():
    # the conjugate weights cancel the receiver-link phases exactly: the
    # raw oracle gives the same P_l for any phases, and the realization,
    # which stores no receiver-link phase, gives that value
    rng = np.random.default_rng(11)
    ch = random_channels(8, 0, rng)
    base = received_powers(realization_of(ch), 1.0, 2.0).p_l
    for _ in range(3):
        turned = SimpleNamespace(**{**vars(ch),
                                    "theta": rng.uniform(0, 2 * math.pi, 8)})
        assert complex_channel_powers(turned, 1.0, 2.0)[0] == pytest.approx(base)


def test_coherent_gain_grows_linearly():
    # with unit distances, E{P_l} = (n_r-1)E^2{H^2} + E{H^4} while E{P_e}
    # stays flat; check the sampled means against both closed forms
    rng = np.random.default_rng(12)
    n_samples = 20_000
    for n_r in (4, 16, 64):
        acc_l = np.empty(n_samples)
        acc_e = np.empty(n_samples)
        for s in range(n_samples):
            theta = rng.uniform(0, 2 * math.pi, n_r)
            r = NetworkRealization(
                relay_d2_tx=np.ones(n_r),
                relay_min_gain=1.0,
                relay_d2_rx=np.ones(n_r),
                relay_h2_rx=rng.rayleigh(math.sqrt(0.5), n_r) ** 2,
                eaves_dist_tx=np.ones(1),
                eaves_h2_tx=np.ones(1),
                eaves_d2_relay=np.ones((1, n_r)),
                eaves_fading_relay=(
                    rng.rayleigh(math.sqrt(0.5), (1, n_r))
                    * np.exp(1j * (rng.uniform(0, 2 * math.pi, (1, n_r)) - theta))),
            )
            p = received_powers(r, 1.0, 2.0)
            acc_l[s] = p.p_l
            acc_e[s] = p.p_e[0]
        se_l = acc_l.std(ddof=1) / math.sqrt(n_samples)
        assert abs(acc_l.mean() - mean_pl_nopath(n_r, 0.5)) < 5 * se_l
        se_e = acc_e.std(ddof=1) / math.sqrt(n_samples)
        assert abs(acc_e.mean() - mean_pe_nopath(0.5)) < 5 * se_e


def test_total_power_identity():
    # sum of per-relay transmit powers equals sum |w_i|^2 * p_t
    rng = np.random.default_rng(13)
    ch = random_channels(12, 3, rng)
    p = received_powers(realization_of(ch), 3.0, 2.0)
    w = conjugate_weights(ch, 2.0)
    assert p.total == pytest.approx(float((np.abs(w) ** 2).sum()) * 3.0, rel=1e-12)


def test_received_powers_rejects_bad_distance():
    rng = np.random.default_rng(14)
    r = realization_of(random_channels(3, 1, rng))
    bad = dataclasses.replace(r, relay_d2_rx=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        received_powers(bad, 1.0, 2.0)
    bad = dataclasses.replace(r, eaves_d2_relay=np.array([[1.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        received_powers(bad, 1.0, 2.0)


# --- stage-2 rates ---------------------------------------------------------

def test_stage2_rates_values():
    legit, eaves = stage2_rates(3.0, np.array([1.0, 0.5]))
    assert legit == pytest.approx(2.0)
    assert eaves == pytest.approx(1.0)
    legit, eaves = stage2_rates(0.0, np.empty(0))
    assert legit == 0.0
    assert eaves == 0.0
    with pytest.raises(ValueError):
        stage2_rates(-1.0, np.empty(0))


@settings(max_examples=50, deadline=None)
@given(n_relays=st.integers(min_value=1, max_value=6),
       n_eaves=st.integers(min_value=0, max_value=4),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_powers_nonnegative_property(n_relays, n_eaves, seed):
    ch = random_channels(n_relays, n_eaves, np.random.default_rng(seed))
    p = received_powers(realization_of(ch), 1.0, 2.0)
    assert p.p_l >= 0
    assert np.all(p.p_e >= 0)
    assert np.all(p.per_relay >= 0)
    assert p.total >= 0
