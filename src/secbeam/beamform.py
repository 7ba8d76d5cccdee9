"""One realization of the two-stage scheme: wiretap broadcast from the
transmitter to the recruited relays, then conjugate-weighted distributed
retransmission toward the receiver.

A realization carries sums over its relays and arrays indexed by
eavesdropper.  The rate and power formulas below are the closed-form sums,
checked elsewhere against a raw complex-arithmetic expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkRealization:
    """Sampled geometry and fading for one trial, reduced to what the two
    stages read.

    Stage 1 needs only the worst relay, so the realization carries
    ``relay_min_gain = min_i h_tx,i**2 * d_tx,i**-gamma`` itself (drawn under
    the configuration's path-loss exponent), and per eavesdropper its
    distance ``eaves_dist_tx`` and squared fading ``eaves_h2_tx`` from the
    transmitter.  Stage 2 reads the relay->receiver gains
    g_i = h_i**2 * d_rx,i**-gamma.  Eavesdropper j receives the relay sum
    z_j = sum_i sqrt(g_i) d_ij**(-gamma/2) c_ij, where
    c_ij = h_ij e^{j(phi_ij - theta_i)} is its link fading times the phase
    of relay i's conjugate weight.  Given the relay field and all
    positions, z_j is CN(0, 2*mu * sum_i g_i d_ij**-gamma).

    Legitimate nodes know only their own links, so no per-relay array is
    carried: the relay count ``n_relays``, the gain sum ``relay_gain_sum`` =
    sum_i g_i, and per eavesdropper that variance, ``eaves_sum_var``, and
    the power ``eaves_sum_power = |z_j|**2``, all under the configuration's
    path-loss exponent and fading parameter.  Eavesdropper arrays have shape
    (m,).
    """

    relay_min_gain: float
    n_relays: int
    relay_gain_sum: float
    eaves_dist_tx: np.ndarray
    eaves_h2_tx: np.ndarray
    eaves_sum_var: np.ndarray
    eaves_sum_power: np.ndarray

    @property
    def n_eaves(self) -> int:
        return len(self.eaves_dist_tx)


@dataclass(frozen=True)
class ReceivedPowers:
    p_l: float
    p_e: np.ndarray
    total: float


def stage1_rates(realization: NetworkRealization, p_t: float,
                 gamma: float) -> tuple[float, float]:
    """Worst relay rate and best eavesdropper rate of the broadcast stage.

    The worst relay rate reads the realization's minimum relay gain.  The
    eavesdropper maximum runs over every sampled eavesdropper, inside or
    outside the protected disc; whether any lies inside is E2's, scored by
    the trial from the eavesdropper distances.  Empty extrema are 0.
    """
    r = realization
    min_rate = math.log2(1.0 + p_t * r.relay_min_gain) if r.n_relays else 0.0
    if r.n_eaves == 0:
        return min_rate, 0.0
    snr_e = p_t * r.eaves_h2_tx * r.eaves_dist_tx ** (-gamma)
    return min_rate, math.log2(1.0 + float(snr_e.max()))


def received_powers(realization: NetworkRealization,
                    p_t: float) -> ReceivedPowers:
    """Received powers of the beamforming stage from the closed-form sums.

    With g_i = d_i**(-gamma) h_i**2 the relay->receiver gain of relay i,
    S = sum_i g_i and z_j eavesdropper j's relay sum (see
    ``NetworkRealization``):

    P_l   = p_t * S**2 / n_r
    P_e_j = p_t * |z_j|**2 / n_r
    total = sum_i p_t * g_i / n_r = p_t * S / n_r
    """
    r = realization
    scale = p_t / r.n_relays
    s = r.relay_gain_sum
    return ReceivedPowers(p_l=s * s * scale, p_e=r.eaves_sum_power * scale,
                          total=s * scale)


def stage2_rates(p_l: float, p_e: np.ndarray) -> tuple[float, float]:
    """Receiver rate log2(1 + P_l) and best eavesdropper rate (0 if none)."""
    if p_l < 0 or (len(p_e) and np.any(np.asarray(p_e) < 0)):
        raise ValueError("powers must be nonnegative")
    legit = math.log2(1.0 + p_l)
    eaves = math.log2(1.0 + float(np.max(p_e))) if len(p_e) else 0.0
    return legit, eaves
