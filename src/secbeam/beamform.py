"""One realization of the two-stage scheme: wiretap broadcast from the
transmitter to the recruited relays, then conjugate-weighted distributed
retransmission toward the receiver.

All per-relay quantities live in flat numpy arrays indexed by relay, and
per-eavesdropper quantities in arrays indexed by eavesdropper; the rate and
power formulas below are the closed-form sums, checked elsewhere against a
raw complex-arithmetic expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RelaySelection:
    """Outcome of relay recruitment: chosen indices, or a shortfall when the
    disc holds fewer than the requested count (``indices`` is None)."""

    indices: np.ndarray | None
    available: int

    @property
    def shortfall(self) -> bool:
        return self.indices is None


@dataclass(frozen=True)
class NetworkRealization:
    """Sampled geometry and fading for one trial, reduced to what the two
    stages read.

    Distances and fading powers are stored squared: ``*_d2_*`` are squared
    distances and ``*_h2_*`` squared fading magnitudes ``h**2``.

    Stage 1 needs only the worst relay, so the realization carries
    ``relay_min_gain = min_i h_tx,i**2 * d_tx,i**-gamma`` itself (drawn under
    the configuration's path-loss exponent) next to the squared
    transmitter->relay distances ``relay_d2_tx``.  Stage 2 reads the
    relay->receiver links.  Eavesdropper j receives the relay sum
    z_j = sum_i sqrt(g_i) d_ij**(-gamma/2) c_ij, where g_i is relay i's
    receiver gain and c_ij = h_ij e^{j(phi_ij - theta_i)} its link fading
    times the phase of its conjugate weight.  Given the relay field and all
    positions, z_j is CN(0, 2*mu * sum_i g_i d_ij**-gamma).  A sampled
    realization carries that variance, ``eaves_sum_var``, and the drawn
    power ``eaves_sum_power = |z_j|**2``, both under the configuration's
    path-loss exponent and fading parameter.  A realization built from
    explicit links carries ``eaves_d2_relay`` and ``eaves_fading_relay``
    instead, and ``received_powers`` evaluates z_j from them.  Shapes:
    relay arrays (n,), eavesdropper arrays (m,), link arrays (m, n).
    """

    relay_d2_tx: np.ndarray
    relay_min_gain: float
    relay_d2_rx: np.ndarray
    relay_h2_rx: np.ndarray
    eaves_dist_tx: np.ndarray
    eaves_h2_tx: np.ndarray
    eaves_sum_var: np.ndarray | None = None
    eaves_sum_power: np.ndarray | None = None
    eaves_d2_relay: np.ndarray | None = None
    eaves_fading_relay: np.ndarray | None = None

    @property
    def n_relays(self) -> int:
        return len(self.relay_d2_rx)

    @property
    def n_eaves(self) -> int:
        return len(self.eaves_dist_tx)


@dataclass(frozen=True)
class ReceivedPowers:
    p_l: float
    p_e: np.ndarray
    total: float


def select_relays(legit_points: np.ndarray, a_l: float, n_r: int,
                  rng: np.random.Generator) -> RelaySelection:
    """Recruit n_r relays uniformly at random among the legitimate points
    inside the disc of radius a_l around the transmitter (origin).

    This is the brute-force recruitment over a full point process; the
    trial sampler draws the disc directly and is tested against it.
    """
    pts = np.asarray(legit_points, dtype=float).reshape(-1, 2)
    inside = np.flatnonzero(np.hypot(pts[:, 0], pts[:, 1]) <= a_l)
    if len(inside) < n_r:
        return RelaySelection(indices=None, available=len(inside))
    chosen = rng.choice(inside, size=n_r, replace=False)
    return RelaySelection(indices=chosen, available=len(inside))


def stage1_rates(realization: NetworkRealization, p_t: float, gamma: float,
                 a_e: float) -> tuple[float, float, bool]:
    """Worst relay rate, best eavesdropper rate and the disc-violation flag
    for the broadcast stage.

    The worst relay rate reads the realization's minimum relay gain.  The
    eavesdropper maximum runs over every sampled eavesdropper, inside or
    outside the protected disc; the flag reports whether any lies inside so
    the two failure modes can be scored separately.  Empty extrema are 0.
    """
    r = realization
    min_rate = math.log2(1.0 + p_t * r.relay_min_gain) if r.n_relays else 0.0
    if r.n_eaves == 0:
        max_rate = 0.0
        violated = False
    else:
        snr_e = p_t * r.eaves_h2_tx * r.eaves_dist_tx ** (-gamma)
        max_rate = math.log2(1.0 + float(snr_e.max()))
        violated = bool(np.any(r.eaves_dist_tx <= a_e))
    return min_rate, max_rate, violated


def received_powers(realization: NetworkRealization, p_t: float,
                    gamma: float) -> ReceivedPowers:
    """Received powers of the beamforming stage from the closed-form sums.

    With g_i = d_i**(-gamma) h_i**2 the relay->receiver gain of relay i,
    S = sum_i g_i and z_j eavesdropper j's relay sum (see
    ``NetworkRealization``):

    P_l   = p_t * S**2 / n_r
    P_e_j = p_t * |z_j|**2 / n_r
    total = sum_i p_t * g_i / n_r = p_t * S / n_r

    |z_j|**2 is the realization's drawn ``eaves_sum_power`` or, for a
    realization of explicit links,
    |sum_i sqrt(g_i) d_ij**(-gamma/2) c_ij|**2.  Per-relay terms keep the
    realization's precision; S and the eavesdropper sums are accumulated in
    double precision.
    """
    r = realization
    links = r.eaves_fading_relay is not None
    if np.any(r.relay_d2_rx <= 0) or (
            links and r.n_eaves and np.any(r.eaves_d2_relay <= 0)):
        raise ValueError("distances must be positive")
    scale = p_t / r.n_relays
    gain = r.relay_d2_rx ** (-gamma / 2.0)
    gain *= r.relay_h2_rx
    s = float(gain.sum(dtype=np.float64))
    if not r.n_eaves:
        p_e = np.empty(0)
    elif not links:
        p_e = r.eaves_sum_power * scale
    else:
        amp = r.eaves_d2_relay ** (-gamma / 4.0)
        amp *= np.sqrt(gain)
        z = np.einsum("ij,ij->i", amp, r.eaves_fading_relay)
        p_e = (z.real ** 2 + z.imag ** 2) * scale
    return ReceivedPowers(p_l=s * s * scale, p_e=p_e, total=s * scale)


def stage2_rates(p_l: float, p_e: np.ndarray) -> tuple[float, float]:
    """Receiver rate log2(1 + P_l) and best eavesdropper rate (0 if none)."""
    if p_l < 0 or (len(p_e) and np.any(np.asarray(p_e) < 0)):
        raise ValueError("powers must be nonnegative")
    legit = math.log2(1.0 + p_l)
    eaves = math.log2(1.0 + float(np.max(p_e))) if len(p_e) else 0.0
    return legit, eaves
