"""One realization of the two-stage scheme: wiretap broadcast from the
transmitter to the recruited relays, then conjugate-weighted distributed
retransmission toward the receiver.

All per-link quantities live in flat numpy arrays indexed by relay (and by
eavesdropper x relay for the stage-2 cross channels); the rate and power
formulas below are the closed-form sums, checked elsewhere against a raw
complex-arithmetic expansion.
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
    """Sampled geometry and fading for one trial.

    Stage-1 arrays describe transmitter->relay and transmitter->eavesdropper
    links; stage-2 arrays describe relay->receiver and relay->eavesdropper
    links.  Shapes: relay arrays (n,), eavesdropper arrays (m,), cross
    arrays (m, n).
    """

    relay_dist_tx: np.ndarray
    relay_h_tx: np.ndarray
    relay_dist_rx: np.ndarray
    relay_h_rx: np.ndarray
    relay_phase_rx: np.ndarray
    eaves_dist_tx: np.ndarray
    eaves_h_tx: np.ndarray
    eaves_dist_relay: np.ndarray
    eaves_h_relay: np.ndarray
    eaves_phase_relay: np.ndarray

    @property
    def n_relays(self) -> int:
        return len(self.relay_dist_tx)

    @property
    def n_eaves(self) -> int:
        return len(self.eaves_dist_tx)


@dataclass(frozen=True)
class ReceivedPowers:
    p_l: float
    p_e: np.ndarray
    per_relay: np.ndarray
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

    The eavesdropper maximum runs over every sampled eavesdropper, inside or
    outside the protected disc; the flag reports whether any lies inside so
    the two failure modes can be scored separately.  Empty maxima are 0.
    """
    r = realization
    if r.n_relays == 0:
        min_rate = 0.0
    else:
        snr = p_t * r.relay_h_tx ** 2 * r.relay_dist_tx ** (-gamma)
        min_rate = math.log2(1.0 + float(snr.min()))
    if r.n_eaves == 0:
        max_rate = 0.0
        violated = False
    else:
        snr_e = p_t * r.eaves_h_tx ** 2 * r.eaves_dist_tx ** (-gamma)
        max_rate = math.log2(1.0 + float(snr_e.max()))
        violated = bool(np.any(r.eaves_dist_tx <= a_e))
    return min_rate, max_rate, violated


def received_powers(realization: NetworkRealization, p_t: float,
                    gamma: float) -> ReceivedPowers:
    """Received powers of the beamforming stage from the closed-form sums.

    P_l   = ((1/sqrt(n_r)) * sum_i d_i**(-gamma) h_i**2)**2 * p_t
    P_e_j = |(1/sqrt(n_r)) * sum_i d_i**(-gamma/2) d_ij**(-gamma/2) h_i h_ij
              e^{j(theta_ij - theta_i)}|**2 * p_t
    P_i   = d_i**(-gamma) h_i**2 * p_t / n_r
    """
    r = realization
    if np.any(r.relay_dist_rx <= 0) or (r.n_eaves and np.any(r.eaves_dist_relay <= 0)):
        raise ValueError("distances must be positive")
    n_r = r.n_relays
    atten = r.relay_dist_rx ** (-gamma)
    per_relay = atten * r.relay_h_rx ** 2 * p_t / n_r
    coherent = float((atten * r.relay_h_rx ** 2).sum()) / math.sqrt(n_r)
    p_l = coherent * coherent * p_t
    if r.n_eaves:
        amp = ((r.relay_dist_rx ** (-gamma / 2.0) * r.relay_h_rx)[None, :]
               * r.eaves_dist_relay ** (-gamma / 2.0) * r.eaves_h_relay)
        z = (amp * np.exp(1j * (r.eaves_phase_relay - r.relay_phase_rx[None, :]))
             ).sum(axis=1) / math.sqrt(n_r)
        p_e = np.abs(z) ** 2 * p_t
    else:
        p_e = np.empty(0)
    return ReceivedPowers(p_l=p_l, p_e=p_e, per_relay=per_relay,
                          total=float(per_relay.sum()))


def stage2_rates(p_l: float, p_e: np.ndarray) -> tuple[float, float]:
    """Receiver rate log2(1 + P_l) and best eavesdropper rate (0 if none)."""
    if p_l < 0 or (len(p_e) and np.any(np.asarray(p_e) < 0)):
        raise ValueError("powers must be nonnegative")
    legit = math.log2(1.0 + p_l)
    eaves = math.log2(1.0 + float(np.max(p_e))) if len(p_e) else 0.0
    return legit, eaves
