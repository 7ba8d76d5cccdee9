"""One realization of the two-stage scheme: wiretap broadcast from the
transmitter to the recruited relays, then conjugate-weighted distributed
retransmission toward the receiver.

A sampled realization carries sums over its relays and arrays indexed by
eavesdropper; one built from explicit links carries per-relay and
per-link arrays too.  The rate and power formulas below are the
closed-form sums, checked elsewhere against a raw complex-arithmetic
expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkRealization:
    """Sampled geometry and fading for one trial, reduced to what the two
    stages read.

    Distances and fading powers are stored squared: ``*_d2_*`` are squared
    distances and ``*_h2_*`` squared fading magnitudes ``h**2``.

    Stage 1 needs only the worst relay, so the realization carries
    ``relay_min_gain = min_i h_tx,i**2 * d_tx,i**-gamma`` itself (drawn under
    the configuration's path-loss exponent).  Stage 2 reads the
    relay->receiver gains g_i = h_i**2 * d_rx,i**-gamma.  Eavesdropper j
    receives the relay sum z_j = sum_i sqrt(g_i) d_ij**(-gamma/2) c_ij, where
    c_ij = h_ij e^{j(phi_ij - theta_i)} is its link fading times the phase
    of relay i's conjugate weight.  Given the relay field and all
    positions, z_j is CN(0, 2*mu * sum_i g_i d_ij**-gamma).

    A sampled realization carries no per-relay array: the relay count
    ``relay_count``, the gain sum ``relay_gain_sum`` = sum_i g_i, and per
    eavesdropper that variance, ``eaves_sum_var``, and the drawn power
    ``eaves_sum_power = |z_j|**2``, all under the configuration's path-loss
    exponent and fading parameter.  A realization built from explicit links
    carries the relay arrays ``relay_d2_rx`` and ``relay_h2_rx`` (and,
    unread, ``relay_d2_tx``), with ``eaves_d2_relay`` and
    ``eaves_fading_relay``, and ``received_powers`` evaluates the sums from
    them.  Shapes: relay arrays (n,), eavesdropper arrays (m,), link arrays
    (m, n).
    """

    relay_min_gain: float
    eaves_dist_tx: np.ndarray
    eaves_h2_tx: np.ndarray
    relay_count: int | None = None
    relay_gain_sum: float | None = None
    eaves_sum_var: np.ndarray | None = None
    eaves_sum_power: np.ndarray | None = None
    relay_d2_tx: np.ndarray | None = None
    relay_d2_rx: np.ndarray | None = None
    relay_h2_rx: np.ndarray | None = None
    eaves_d2_relay: np.ndarray | None = None
    eaves_fading_relay: np.ndarray | None = None

    @property
    def n_relays(self) -> int:
        if self.relay_d2_rx is None:
            return self.relay_count
        return len(self.relay_d2_rx)

    @property
    def n_eaves(self) -> int:
        return len(self.eaves_dist_tx)


@dataclass(frozen=True)
class ReceivedPowers:
    p_l: float
    p_e: np.ndarray
    total: float


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

    A sampled realization gives S and |z_j|**2 (``eaves_sum_power``); for a
    realization of explicit links they are evaluated here, |z_j|**2 as
    |sum_i sqrt(g_i) d_ij**(-gamma/2) c_ij|**2.  Per-relay terms keep the
    realization's precision; S and the eavesdropper sums are accumulated in
    double precision.
    """
    r = realization
    scale = p_t / r.n_relays
    if r.relay_gain_sum is not None:
        s = r.relay_gain_sum
        p_e = r.eaves_sum_power * scale
    else:
        if np.any(r.relay_d2_rx <= 0) or (
                r.n_eaves and np.any(r.eaves_d2_relay <= 0)):
            raise ValueError("distances must be positive")
        gain = r.relay_d2_rx ** (-gamma / 2.0)
        gain *= r.relay_h2_rx
        s = float(gain.sum(dtype=np.float64))
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
