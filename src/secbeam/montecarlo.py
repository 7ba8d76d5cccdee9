"""Trial orchestration: sample network realizations under a plan, score the
seven outage sub-events and the end-to-end secrecy condition, and aggregate
empirical outage rates with confidence intervals.

Per-trial randomness is derived from (master seed, trial index) through
numpy's SeedSequence so trials are order-independent and the whole report is
bit-reproducible for a given seed and trial count.  ``STREAM_VERSION`` names
what a seed draws; it changes whenever the sampler draws differently.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import NetworkConfig
from .planner import Plan, SecrecyTarget, field_values
from . import beamform
from . import moments

CSV_COLUMNS = [
    "trial_index", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "composite",
    "min_relay_rate", "max_eaves_rate_s1", "rate_l_s2", "max_eaves_rate_s2",
    "P_l", "max_P_e", "total_relay_power", "n_in_Bl", "n_in_Be",
]

EVENT_NAMES = ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]

#: version of the per-trial random stream: 1 drew every per-relay link in
#: float64, 2 sufficient statistics, 3 those from one uniform source, 4 each
#: eavesdropper's stage-2 power from its conditional law; 5: theorem-4
#: samples from per-chunk generators; trial draws as in 4; 6: a trial's
#: eavesdroppers before its relays, and its relays in pieces; 7: ``verify
#: moments`` samples from per-chunk generators
STREAM_VERSION = 7


@dataclass(frozen=True)
class TrialOutcome:
    """Flags and diagnostics of one simulated transmission attempt.

    E1: enough legitimate nodes in the relay disc.
    E2: no eavesdropper in the protected disc.
    E3: worst relay rate meets the stage-1 threshold.
    E4: best eavesdropper stage-1 rate below its threshold.
    E5: receiver stage-2 rate meets its threshold.
    E6: best eavesdropper stage-2 rate below its threshold.
    E7: sampled eavesdropper count within the planned cap.

    ``e6_outage_given_field`` is the probability that E6 fails given the
    trial's relay field and positions (0 when E1 fails); its mean over
    trials estimates the E6 outage with less variance than the flag.  It is
    not a CSV column.
    """

    trial_index: int
    e1: bool
    e2: bool
    e3: bool
    e4: bool
    e5: bool
    e6: bool
    e7: bool
    composite: bool
    min_relay_rate: float
    max_eaves_rate_s1: float
    rate_l_s2: float
    max_eaves_rate_s2: float
    p_l: float
    max_p_e: float
    total_relay_power: float
    n_in_bl: int
    n_in_be: int
    e6_outage_given_field: float

    def flags(self):
        return (self.e1, self.e2, self.e3, self.e4, self.e5, self.e6, self.e7)

    def csv_row(self):
        return [self.trial_index,
                *(int(f) for f in self.flags()), int(self.composite),
                repr(self.min_relay_rate), repr(self.max_eaves_rate_s1),
                repr(self.rate_l_s2), repr(self.max_eaves_rate_s2),
                repr(self.p_l), repr(self.max_p_e),
                repr(self.total_relay_power), self.n_in_bl, self.n_in_be]


@dataclass(frozen=True)
class EventStats:
    outage: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class OutageReport:
    """Aggregated empirical outage rates with 95% Wilson intervals, and
    the mean of the trials' E6 failure probabilities given their relay
    fields, a lower-variance E6 estimate, with its standard error."""

    n_trials: int
    seed: int
    event_outage: dict
    composite: EventStats
    e6_outage_given_field: float
    e6_outage_given_field_se: float
    mean_p_l: float
    var_p_l: float
    mean_max_p_e: float
    var_max_p_e: float
    mean_total_relay_power: float

    def to_dict(self) -> dict:
        doc = field_values(self)
        doc["event_outage"] = {k: field_values(v) for k, v in self.event_outage.items()}
        doc["composite"] = field_values(self.composite)
        doc["interval_method"] = "wilson-95"
        return doc


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Two-sided Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial_index])


def draw_min_gain(rate: float, mu: float, rng: np.random.Generator) -> float:
    """Draw min_i h_i**2 * d_i**-gamma over relays with rate sum
    ``rate`` = sum_i d_i**gamma, h_i**2 i.i.d. exponential with mean 2*mu.

    Given the distances the terms are independent exponentials with rates
    d_i**gamma / (2*mu), so their minimum is exponential with the summed
    rate: 2*mu * Exp(1) / sum_i d_i**gamma, drawn exactly with one variate.
    The minimum over no relays (rate 0) is +inf.
    """
    gain = 2.0 * mu * rng.standard_exponential()
    return gain / rate if rate > 0 else math.inf


def _uniform_f32(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """Float32 uniforms on [0, 1), multiples of 2**-23: the one source of
    every float32 draw.  Each raw 64-bit word gives two values, the top 23
    bits of a 32-bit half as the mantissa of a float in [1, 2), minus 1.
    With ``out``, a float32 array of ``shape``, the values go there and the
    raw words are freed on return."""
    n = math.prod(shape)
    u = rng.bit_generator.random_raw((n + 1) // 2).view(np.uint32)[:n]
    u >>= 9
    u |= np.uint32(0x3F800000)
    f = u.view(np.float32).reshape(shape)
    return np.subtract(f, np.float32(1.0), out=f if out is None else out)


def _exponential_f32(rng: np.random.Generator, shape, mean: float,
                     out=None) -> np.ndarray:
    """Float32 exponentials, -mean * log1p(-U) on ``_uniform_f32`` draws.
    As U <= 1 - 2**-23, values stop at 23*ln 2 (about 15.9) means, a tail
    an exact exponential exceeds with probability 2**-23 (1.2e-7)."""
    x = _uniform_f32(rng, shape, out)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= -np.float32(mean)
    return x


def _relay_draws(rng: np.random.Generator, shape, mu: float, out=None):
    """Per-relay float32 draws, in this order: u = (r/a_l)**2 of a relay
    uniform in a disc, its polar angle in turns, and the receiver-link power
    h**2 ~ Exp(mean 2*mu).  Returns (u, turn, h2), the arrays of ``out``
    when given, three float32 arrays of ``shape``."""
    u, turn, h2 = (None, None, None) if out is None else out
    return (_uniform_f32(rng, shape, u), _uniform_f32(rng, shape, turn),
            _exponential_f32(rng, shape, 2.0 * mu, h2))


#: relay elements (rows x relays) per piece of ``_relay_field``: a whole
#: trial at the reference plan (n_r = 110446) is one piece, and a piece's
#: float32 slots (2.5 MiB) stay in cache between the kernel's passes
RELAY_PIECE = 1 << 17

#: float32 slots per piece element in a kernel buffer: five float32 rows,
#: and two more for eavesdropper distances in float64
KERNEL_SLOTS = 7

#: each thread's ``_relay_buffer``
_scratch = threading.local()


def _relay_buffer() -> np.ndarray:
    """This thread's scratch for ``_relay_field`` pieces of RELAY_PIECE
    elements, made on first use and again when KERNEL_SLOTS * RELAY_PIECE
    changes, and reused across calls: a fresh buffer per trial makes the C
    heap grow and shrink by megabytes, and each trial then takes a page
    fault per 4 KiB it touches.  Each thread has its own, so simulate trials
    and theorem-4 chunks on ``_ordered_map`` threads fill theirs side by
    side: one buffer (3.5 MiB at the default sizes) per thread."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or len(buf) != KERNEL_SLOTS * RELAY_PIECE:
        buf = _scratch.buf = np.empty(KERNEL_SLOTS * RELAY_PIECE, dtype=np.float32)
    return buf


def _neg_power(a: np.ndarray, e: float, out=None) -> np.ndarray:
    """a**e for e < 0; for e == -1 by reciprocal, in a quarter (float32) to
    a half (float64) of the time of power."""
    if e == -1.0:
        return np.reciprocal(a, out=out)
    return np.power(a, a.dtype.type(e), out=out)


#: relative error the far-field expansion of ``_relay_field`` may make in an
#: eavesdropper's sum T_j: 2**-24, half the float32 epsilon, below the
#: precision of the float32 per-relay values the sum is made of
FAR_FIELD_ERROR = float(np.finfo(np.float32).eps) / 2


def _far_field_q2(gamma: float) -> float:
    """q**2 for a q = a_l / rho up to which the far-field expansion of
    ``_relay_field`` keeps its relative error bound
    E(q) = c * q**2 / h(q) within FAR_FIELD_ERROR, where
    c = gamma*(gamma + 1)/2 and h(q) = (1 - q)**(gamma + 2) / (1 + q)**gamma
    falls with q.  From q0 = sqrt(FAR_FIELD_ERROR / c), the value
    q = q0 * sqrt(h(q0)) <= q0 has E(q) = FAR_FIELD_ERROR * h(q0) / h(q),
    at most FAR_FIELD_ERROR.  About 1 / 7097**2 at gamma 2; 0 when
    FAR_FIELD_ERROR is 0, so that no eavesdropper takes the expansion."""
    q0_2 = FAR_FIELD_ERROR / (gamma * (gamma + 1.0) / 2.0)
    q0 = math.sqrt(q0_2)
    return q0_2 * (1.0 - q0) ** (gamma + 2.0) / (1.0 + q0) ** gamma


def _relay_field(rng: np.random.Generator, m: int, k: int, a_l: float,
                 cfg: NetworkConfig, ex: np.ndarray, ey: np.ndarray,
                 stage1: bool):
    """The relay-field kernel: draw m rows of k relays, uniform in the disc
    of radius a_l around the transmitter, with receiver-link powers h**2
    (``_relay_draws``), and reduce each row to its sums.

    Returns (rate, s, t), float64: per row the stage-1 rate sum
    sum_i d_tx,i**gamma (zeros unless ``stage1``), the gain sum
    S = sum_i g_i with g_i = h_i**2 * d_rx,i**-gamma, and
    t[:, j] = sum_i g_i * d_ij**-gamma for the eavesdroppers at
    (ex[:, j], ey[:, j]), arrays of shape (m, n_e).

    The relays are drawn and reduced in pieces of RELAY_PIECE elements, the
    rows side by side, in this thread's float32 scratch (``_relay_buffer``),
    so memory does not grow with k.  Without eavesdroppers a relay takes one
    transcendental, sin(theta/2), and the law of cosines written without
    cancellation, (d_tr - r)**2 + 4*d_tr*r*sin(theta/2)**2; with them two,
    cos(theta) and sin(theta) for its position (x, y), and
    d_rx**2 = (x - d_tr)**2 + y**2.

    A far eavesdropper, at rho = |(ex, ey)| with q = a_l / rho small
    (``_far_field_q2``), takes T_j from a first-order multipole expansion
    about the disc centre, the transmitter:
    T_j = rho**-gamma * (S + gamma * (ex*G_x + ey*G_y) / rho**2), with
    G_x = sum_i g_i x_i and G_y = sum_i g_i y_i, two more sums per row.
    Every other eavesdropper takes the exact sum, one pass of squared
    distances and powers over its row's relays; with m > 1 rows, a column
    with a near eavesdropper in some row is summed exactly in every row,
    and its far rows then take the expansion.

    The expansion's error: with relay i at the complex position p_i and
    the eavesdropper at e, z_i = p_i / e has |z_i| <= q < 1 and
    d_ij**-gamma = rho**-gamma * |1 - z_i|**-gamma.  With
    (1 - z)**(-gamma/2) = sum_k c_k z**k, all c_k >= 0 and c_1 = gamma/2,
    |1 - z|**-gamma = sum_(k,l) c_k c_l z**k conj(z)**l
    = 1 + gamma*Re(z) + R, where Re(z_i) = (ex*x_i + ey*y_i) / rho**2 and
    |R| <= sum_(k+l>=2) c_k c_l q**(k+l) = (1 - q)**-gamma - 1 - gamma*q,
    which is at most gamma*(gamma + 1)/2 * q**2 * (1 - q)**(-gamma - 2)
    (Taylor's remainder).  So the expansion is off by at most
    rho**-gamma * S times that, and as T_j >= S * (rho + a_l)**-gamma its
    relative error is at most E(q) of ``_far_field_q2``, about
    gamma*(gamma + 1)/2 * q**2, kept within FAR_FIELD_ERROR (2**-24).  At
    gamma 2 that takes rho >= 7097 * a_l.  The first-order term is at most
    gamma*q*(1 + q)**gamma of T_j (5e-4 at most), so G_x and G_y are summed
    in float32 (pairwise, about 1e-6 relative), which moves T_j by
    below 1e-9.

    Precision: per-relay values (u, angle, h**2, positions, squared
    receiver distances, gains) are float32, about 1e-7 relative each; every
    sum over relays is float64 except G_x and G_y.  The relay->eavesdropper
    squared distances and their powers take the dtype of ``ex``.
    """
    f32 = np.float32
    e = -cfg.gamma / 2.0
    n_e = ex.shape[1]
    buf = _relay_buffer()
    piece = len(buf) // KERNEL_SLOTS
    q = ex.dtype.itemsize // 4  # float32 slots per eavesdropper distance
    rate, s, t = np.zeros(m), np.zeros(m), np.zeros((m, n_e))
    far = None  # (rows, columns) of the eavesdroppers taking the expansion
    if n_e:
        ex64, ey64 = ex.astype(np.float64), ey.astype(np.float64)
        rho2 = ex64 * ex64 + ey64 * ey64
        is_far = rho2 * _far_field_q2(cfg.gamma) > a_l * a_l
        near = np.flatnonzero(~is_far.all(axis=0))
        if is_far.any():
            far = np.nonzero(is_far)
            gx, gy = np.zeros(m), np.zeros(m)
    width = max(1, min(k, piece // m))
    for start in range(0, k, width):
        n = m * min(width, k - start)
        g, x, y, r, d2 = (buf[i * piece:i * piece + n].reshape(m, -1)
                          for i in range(5))
        _relay_draws(rng, g.shape, cfg.mu, out=(r, y, g))  # u, turn, h**2
        if stage1:  # d_tx**gamma = a_l**gamma * u**(gamma/2)
            u_power = r if cfg.gamma == 2.0 else np.power(
                r, f32(cfg.gamma / 2.0), out=d2)
            rate += u_power.sum(axis=1, dtype=np.float64)
        np.sqrt(r, out=r)
        r *= f32(a_l)
        if n_e:
            y *= f32(2.0 * math.pi)
            np.cos(y, out=x)
            x *= r
            np.sin(y, out=y)
            y *= r
            np.subtract(x, f32(cfg.d_tr), out=d2)
            d2 *= d2
            np.multiply(y, y, out=r)  # r is free: reuse it as scratch
            d2 += r
        else:
            y *= f32(math.pi)
            np.sin(y, out=y)
            y *= y
            y *= r
            y *= f32(4.0 * cfg.d_tr)
            np.subtract(r, f32(cfg.d_tr), out=d2)
            d2 *= d2
            d2 += y
        g *= _neg_power(d2, e, out=d2)
        s += g.sum(axis=1, dtype=np.float64)
        if not n_e:
            continue
        if far is not None:  # r is free: the products g*x and g*y go there
            gx += np.multiply(g, x, out=r).sum(axis=1)
            gy += np.multiply(g, y, out=r).sum(axis=1)
        # the slots of r and d2 are free: squared distances go there, with
        # room beyond for float64
        d, dy = (buf[i * piece:i * piece + q * n].view(ex.dtype).reshape(m, -1)
                 for i in (3, 3 + q))
        for j in near:
            np.subtract(x, ex[:, j:j + 1], out=d)
            d *= d
            np.subtract(y, ey[:, j:j + 1], out=dy)
            dy *= dy
            d += dy
            _neg_power(d, e, out=d)
            d *= g
            t[:, j] += d.sum(axis=1, dtype=np.float64)
    rate *= a_l ** cfg.gamma
    if far is not None:
        row, rho2 = far[0], rho2[far]
        t[far] = rho2 ** e * (s[row] + cfg.gamma * (ex64[far] * gx[row]
                                                    + ey64[far] * gy[row]) / rho2)
    return rate, s, t


#: largest Poisson mean numpy's Generator.poisson accepts
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def expected_counts(plan: Plan, cfg: NetworkConfig) -> tuple[float, float]:
    """The Poisson means of a trial's two counts: legitimate nodes in the
    relay disc, lambda_l*pi*a_l**2, and eavesdroppers in the square,
    lambda_e*side**2."""
    side = cfg.side
    return cfg.lambda_l * math.pi * plan.a_l ** 2, cfg.lambda_e * side * side


def check_runnable(plan: Plan, cfg: NetworkConfig | None = None) -> None:
    """Raise ValueError, naming the reason, when runs of ``plan`` cannot
    draw: a direct-mode plan has no relay to beamform; and, for the trials
    of ``cfg`` (None: a run that draws no trial network), a relay disc wider
    than the network square, or a trial's Poisson means above
    POISSON_MEAN_MAX, the largest numpy's sampler takes (NaN too)."""
    if plan.mode != "beamforming":
        raise ValueError("no relay beamforms in a direct-mode plan: the "
                         "receiver is within 2*a_l of the transmitter")
    if cfg is None:
        return
    if 2.0 * plan.a_l > cfg.side:
        raise ValueError(f"the relay disc (diameter {2.0 * plan.a_l:.6g}) does "
                         f"not fit inside the network square (side {cfg.side:.6g})")
    mean_bl, mean_e = expected_counts(plan, cfg)
    if not (mean_bl <= POISSON_MEAN_MAX and mean_e <= POISSON_MEAN_MAX):
        raise ValueError(f"a trial expects {mean_bl:.6g} nodes in the relay disc "
                         f"and {mean_e:.6g} eavesdroppers, and a Poisson count "
                         f"takes means up to {POISSON_MEAN_MAX:.6g}")


def sample_realization(plan: Plan, cfg: NetworkConfig,
                       rng: np.random.Generator):
    """Sample one trial's geometry and fading, reduced to the sums the two
    stages read.

    Legitimate nodes are sampled restricted to the relay disc: nodes outside
    it enter no statistic, and conditioning a homogeneous Poisson process on
    the disc gives a Poisson count with i.i.d. uniform positions.
    Eavesdroppers are sampled on the full square, with their stage-1 link
    powers, before the relays.  The relays go through ``_relay_field`` as
    one row, so a trial holds one piece of relays whatever the relay count.
    Its rate sum gives the stage-1 minimum, drawn exactly by
    ``draw_min_gain``.  Each eavesdropper's stage-2 relay sum is drawn last,
    from its exact conditional law: the combined fadings
    h_ij e^{j(phi_ij - theta_i)} are i.i.d. CN(0, 2*mu) over (i, j) and
    independent of the receiver links (rotating i.i.d. circular Gaussians by
    the common phase theta_i leaves them i.i.d.), so given the relay field
    and all positions the sums are independent over j and CN(0, 2*mu*T_j),
    T_j = sum_i g_i d_ij**-gamma.  Its power |z_j|**2 is 2*mu*T_j times one
    Exp(1).

    Precision: as in ``_relay_field``, with the relay->eavesdropper
    distances in float64, since an eavesdropper can sit arbitrarily close to
    a relay; the exponentials are float64 too.  An eavesdropper at 7097 or
    more relay-disc radii from the transmitter (at gamma 2; more at larger
    gamma) takes T_j from ``_relay_field``'s far-field expansion, within
    2**-24 relative of the exact sum, and every other one the exact sum.

    Returns (realization, n_in_bl) where the realization carries
    min(n_in_bl, n_r) relays (all available nodes when short).  The plan
    and network are taken as runnable (``check_runnable``).
    """
    side = cfg.side
    mean_bl, mean_e = expected_counts(plan, cfg)
    n_in_bl = int(rng.poisson(mean_bl))
    n_e = int(rng.poisson(mean_e))
    k = min(n_in_bl, plan.n_r)

    eaves_x = (rng.random(n_e) - 0.5) * side
    eaves_y = (rng.random(n_e) - 0.5) * side
    eaves_h2_tx = rng.standard_exponential(n_e) * (2.0 * cfg.mu)
    rate, s, t = _relay_field(
        rng, 1, k, plan.a_l, cfg, eaves_x[None, :], eaves_y[None, :], stage1=True)
    min_gain = draw_min_gain(float(rate[0]), cfg.mu, rng)
    sum_var = t[0]
    sum_var *= 2.0 * cfg.mu
    sum_power = rng.standard_exponential(n_e)
    sum_power *= sum_var

    realization = beamform.NetworkRealization(
        relay_min_gain=min_gain, n_relays=k, relay_gain_sum=float(s[0]),
        eaves_dist_tx=np.hypot(eaves_x, eaves_y), eaves_h2_tx=eaves_h2_tx,
        eaves_sum_var=sum_var, eaves_sum_power=sum_power)
    return realization, n_in_bl


def _e6_outage_given_field(sum_var: np.ndarray, p_t: float, n_relays: int,
                          threshold: float) -> float:
    """P(max_j P_e,j > threshold) given the relay field and all positions.
    Given those, the P_e,j = p_t * |z_j|**2 / n_relays are independent
    exponentials with means p_t * sum_var_j / n_relays, so the probability
    is 1 - prod_j (1 - exp(-threshold * n_relays / (p_t * sum_var_j)))."""
    tail = np.exp(-threshold * n_relays / (p_t * sum_var))
    return -math.expm1(float(np.sum(np.log1p(-tail))))


def run_trial(plan: Plan, cfg: NetworkConfig, target: SecrecyTarget,
              trial_index: int, seed: int) -> TrialOutcome:
    """Score one independent transmission attempt.

    Deterministic in (seed, trial_index).  When the relay disc falls short,
    stage-1 statistics still use the available nodes for diagnostics, the
    beamforming stage is skipped (its rates and powers report 0), and the
    composite flag is false.  Raises ValueError before any draw when the
    trial cannot run (``check_runnable``).
    """
    check_runnable(plan, cfg)
    rng = _trial_rng(seed, trial_index)
    realization, n_in_bl = sample_realization(plan, cfg, rng)
    e1 = n_in_bl >= plan.n_r

    min_rate, max_e1, disc_violated = beamform.stage1_rates(
        realization, cfg.p_t, cfg.gamma, plan.a_e)
    rate_s1 = target.secure_rate * (1.0 + target.rho)
    e2 = not disc_violated
    e3 = min_rate >= rate_s1
    e4 = max_e1 <= target.rho * target.secure_rate
    e7 = realization.n_eaves <= plan.n_e_max

    if e1:
        powers = beamform.received_powers(realization, cfg.p_t)
        rate_l, max_e2 = beamform.stage2_rates(powers.p_l, powers.p_e)
        p_l = powers.p_l
        max_p_e = float(np.max(powers.p_e)) if realization.n_eaves else 0.0
        total_power = powers.total
        e5 = rate_l >= (1.0 + target.kappa) * target.secure_rate
        e6 = max_e2 <= target.kappa * target.secure_rate
        e6_given_field = _e6_outage_given_field(
            realization.eaves_sum_var, cfg.p_t, realization.n_relays,
            2.0 ** (target.kappa * target.secure_rate) - 1.0)
        composite = (min_rate - max_e1 >= target.secure_rate
                     and rate_l - max_e2 >= target.secure_rate)
    else:
        rate_l = max_e2 = p_l = max_p_e = total_power = 0.0
        e5 = False
        e6 = True
        e6_given_field = 0.0
        composite = False

    return TrialOutcome(
        trial_index=trial_index, e1=e1, e2=e2, e3=e3, e4=e4, e5=e5, e6=e6,
        e7=e7, composite=composite, min_relay_rate=min_rate,
        max_eaves_rate_s1=max_e1, rate_l_s2=rate_l, max_eaves_rate_s2=max_e2,
        p_l=p_l, max_p_e=max_p_e, total_relay_power=total_power,
        n_in_bl=n_in_bl, n_in_be=int(np.sum(realization.eaves_dist_tx <= plan.a_e)),
        e6_outage_given_field=e6_given_field)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: calls per window of ``_ordered_map``, for trials and verifier chunks
#: alike: a window's values are held until they are consumed in order, so
#: memory does not grow with the number of calls
WINDOW = 64


def workers(n: int) -> int:
    """The threads ``_ordered_map(fn, n)`` runs a window on: the calling
    thread and one per further usable CPU, never more than the window's
    calls, so a window of one call starts no thread."""
    return min(usable_cpus(), n, WINDOW)


def _ordered_map(fn, n: int):
    """Yield fn(0), ..., fn(n - 1), in that order.

    The calls run WINDOW at a time, each window on ``workers`` threads: the
    calling thread plus ``threading.Thread``s, each taking the next index as
    it gets free.  Every thread of a window has ended before the window's
    first value is yielded, so memory holds one window of values.  Once a
    call has raised, no further index is handed out; the values below the
    lowest failing index are yielded, then its exception is raised here."""
    for lo in range(0, n, WINDOW):
        hi = min(lo + WINDOW, n)
        results = [None] * (hi - lo)
        indices = iter(range(lo, hi))  # next() is atomic under the GIL
        errors = {}  # failing index -> its exception

        def work():
            for i in indices:
                try:
                    results[i - lo] = fn(i)
                except BaseException as exc:  # re-raised on the calling thread
                    errors[i] = exc
                if errors:
                    return

        threads = [threading.Thread(target=work)
                   for _ in range(workers(hi - lo) - 1)]
        for t in threads:
            t.start()
        work()
        for t in threads:
            t.join()
        failed = min(errors, default=hi)
        yield from results[:failed - lo]
        if errors:
            raise errors[failed]


class RunningMoments:
    """Count, mean and sums of squared, cubed and fourth-power deviations
    (m2, m3, m4) of a stream of floats, in O(1) memory.

    ``push`` adds one value to n, the mean and m2 (Welford), and leaves m3
    and m4 alone: they are kept by ``of`` and ``merge`` only.  ``of``
    reduces an array in two passes; ``merge`` adds another accumulator with
    the exact pairwise update (Chan, Golub & LeVeque 1979; Pebay 2008,
    SAND2008-6212), so chunks reduced on their own and merged in order give
    the moments of the whole stream."""

    __slots__ = ("n", "mean", "m2", "m3", "m4")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @classmethod
    def of(cls, x: np.ndarray) -> "RunningMoments":
        """The moments of a non-empty float64 array: its mean, then the
        deviations d and their squares d2, with m4 = sum(d2 * d2).  One
        value takes the same steps on Python floats, with no array pass:
        its mean is a sum from 0.0 (so -0.0 gives 0.0), and d is 0, or NaN
        when the value is not finite."""
        acc = cls()
        if len(x) == 1:
            acc.n = 1
            acc.mean = 0.0 + float(x[0])
            d = acc.mean - acc.mean
            acc.m2 = d * d
            acc.m3 = d * acc.m2
            acc.m4 = acc.m2 * acc.m2
            return acc
        acc.n = len(x)
        acc.mean = float(x.mean())
        d = x - acc.mean
        d2 = d * d
        acc.m2 = float(d2.sum())
        d *= d2
        acc.m3 = float(d.sum())
        d2 *= d2
        acc.m4 = float(d2.sum())
        return acc

    def merge(self, other: "RunningMoments") -> None:
        """Add the values ``other`` has seen, as if pushed after ours."""
        na, nb = self.n, other.n
        if nb == 0:
            return
        if na == 0:
            for name in self.__slots__:
                setattr(self, name, getattr(other, name))
            return
        n = na + nb
        delta = other.mean - self.mean
        delta_n = delta / n
        m2a, m3a = self.m2, self.m3
        self.mean += delta_n * nb
        self.m4 += (other.m4
                    + delta * delta_n ** 3 * na * nb * (na * na - na * nb + nb * nb)
                    + 6.0 * delta_n * delta_n * (na * na * other.m2 + nb * nb * m2a)
                    + 4.0 * delta_n * (na * other.m3 - nb * m3a))
        self.m3 += (other.m3 + delta * delta_n * delta_n * na * nb * (na - nb)
                    + 3.0 * delta_n * (na * other.m2 - nb * m2a))
        self.m2 += other.m2 + delta * delta_n * na * nb
        self.n = n

    def variance(self) -> float:
        """Unbiased sample variance; 0 for fewer than two values."""
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0


def estimate_outage(plan: Plan, cfg: NetworkConfig, target: SecrecyTarget,
                    n_trials: int, seed: int,
                    collect=None) -> OutageReport:
    """Run n_trials independent trials and aggregate.

    The trials run WINDOW at a time on the calling thread plus one
    thread per further usable CPU (``_ordered_map``), and each window's
    outcomes are consumed in trial order on the calling thread.  ``collect``,
    if given, receives every TrialOutcome in that order (e.g.
    ``csv_row_writer``); aggregation keeps running counts and moments only.
    So the report and the rows are those of a serial run whatever the thread
    count, and memory does not grow with n_trials: one window of outcomes,
    and one kernel buffer per thread (``_relay_buffer``).  When a trial
    raises, ``collect`` has received every trial before it, and the
    exception propagates; a plan that cannot run (``check_runnable``)
    raises ValueError before any draw.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    ok_counts = [0] * len(EVENT_NAMES)
    composite_ok = 0
    p_l = RunningMoments()
    max_p_e = RunningMoments()
    total_power = RunningMoments()
    e6_given_field = RunningMoments()

    def trial(i):
        return run_trial(plan, cfg, target, i, seed)

    for out in _ordered_map(trial, n_trials):
        for j, ok in enumerate(out.flags()):
            ok_counts[j] += ok
        composite_ok += out.composite
        p_l.push(out.p_l)
        max_p_e.push(out.max_p_e)
        total_power.push(out.total_relay_power)
        e6_given_field.push(out.e6_outage_given_field)
        if collect is not None:
            collect(out)

    def stats(ok: int) -> EventStats:
        fails = n_trials - ok
        lo, hi = wilson_interval(fails, n_trials)
        return EventStats(fails / n_trials, lo, hi)

    return OutageReport(
        n_trials=n_trials, seed=seed,
        event_outage={name: stats(ok_counts[i])
                      for i, name in enumerate(EVENT_NAMES)},
        composite=stats(composite_ok),
        e6_outage_given_field=e6_given_field.mean,
        e6_outage_given_field_se=math.sqrt(e6_given_field.variance() / n_trials),
        mean_p_l=p_l.mean, var_p_l=p_l.variance(),
        mean_max_p_e=max_p_e.mean, var_max_p_e=max_p_e.variance(),
        mean_total_relay_power=total_power.mean)


def csv_row_writer(fh):
    """Write the header to the open text file ``fh`` and return a callback
    that writes one TrialOutcome as a row, for streaming trials to CSV."""
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    return lambda out: writer.writerow(out.csv_row())


def write_trials_csv(path, outcomes) -> None:
    """Write per-trial rows in the fixed column order."""
    with open(path, "w", newline="") as fh:
        write_row = csv_row_writer(fh)
        for out in outcomes:
            write_row(out)


# ---------------------------------------------------------------------------
# Moment and bound verifiers
# ---------------------------------------------------------------------------

#: standard errors beyond which a ``Check`` fails
Z_GATE = 5.0


@dataclass(frozen=True)
class Check:
    """A sampled moment against a reference: an exact value (``side``
    "both"), a lower bound ("lower") or an upper bound ("upper").

    ``z`` is the signed distance in standard errors, positive on the
    respected side (above an exact value); with no positive standard error
    it is 0 at no gap and otherwise infinitely many, and it is NaN for a NaN
    gap.  ``failed`` is the one gate: ``|z| >= Z_GATE`` two-sided,
    ``z <= -Z_GATE`` one-sided, and a NaN z fails."""

    name: str
    reference: float
    estimate: float
    std_err: float
    side: str

    @property
    def z(self) -> float:
        gap = (self.reference - self.estimate if self.side == "upper"
               else self.estimate - self.reference)
        if math.isnan(gap):
            return math.nan
        if not self.std_err > 0:
            return math.copysign(math.inf, gap) if gap else 0.0
        return gap / self.std_err

    @property
    def failed(self) -> bool:
        return not (abs(self.z) if self.side == "both" else -self.z) < Z_GATE


def _sample_powers_nopath(mu: float, n_r: int, n_samples: int,
                          rng: np.random.Generator):
    """Draws of P_l and P_e with unit distances and p_t = 1, two float64
    values per sample and none per relay.  With S = sum_i h_l,i**2, which is
    Gamma(n_r, scale 2*mu), P_l = S**2 / n_r; given the h_l,i the sum
    sum_i h_l,i h_e,i e^{j theta_i} is CN(0, 2*mu*S), so
    P_e = 2*mu * Exp(1) * S / n_r."""
    s = rng.gamma(n_r, 2.0 * mu, n_samples)
    p_e = rng.standard_exponential(n_samples)
    p_e *= (2.0 * mu / n_r) * s
    return s * s / n_r, p_e


# the sample mean or variance of ``acc`` against ``reference``, with its
# plug-in standard error
def _mean_check(name: str, reference: float, acc: RunningMoments,
                side: str) -> Check:
    return Check(name, reference, acc.mean,
                 math.sqrt(acc.m2 / (acc.n - 1) / acc.n), side)


def _var_check(name: str, reference: float, acc: RunningMoments,
               side: str) -> Check:
    s2 = acc.m2 / (acc.n - 1)
    se = math.sqrt(max(acc.m4 / acc.n - s2 * s2, 0.0) / acc.n)
    return Check(name, reference, s2, se, side)

#: samples per chunk of ``verify_moments``: a chunk's arrays (128 KiB each)
#: stay in cache between the sampler and the moments
MOMENT_CHUNK = 1 << 14


def _chunk_moments(draw, rows: int, key: int, n_samples: int, seed: int):
    """RunningMoments of P_l and of P_e over the n_samples a seed draws.

    The samples fall into chunks of ``rows`` samples, fewer in the last, and
    chunk c is ``draw(np.random.default_rng([seed, key, c]), m)`` for its m
    samples, reduced where it is drawn (``RunningMoments.of``).  The chunks
    run WINDOW at a time on ``_ordered_map``'s threads, and their moments
    are merged in chunk order, so the result depends on rows, n_samples and
    the seed alone, not on the threads or the window, and memory holds one
    window of accumulators and a chunk's arrays per thread whatever
    n_samples."""
    def chunk(c):
        x_l, x_e = draw(np.random.default_rng([seed, key, c]),
                        min(rows, n_samples - c * rows))
        return RunningMoments.of(x_l), RunningMoments.of(x_e)

    p_l, p_e = RunningMoments(), RunningMoments()
    for c_l, c_e in _ordered_map(chunk, -(-n_samples // rows)):
        p_l.merge(c_l)
        p_e.merge(c_e)
    return p_l, p_e


def verify_moments(mu: float, n_r: int, n_samples: int,
                   seed: int) -> list[Check]:
    """Compare sampled mean/variance of the no-path-loss received powers
    against the exact closed forms; z-scores should sit within noise.
    The samples are drawn by ``_sample_powers_nopath`` in chunks of
    MOMENT_CHUNK from the generators of key 0 and reduced chunk by chunk
    (``_chunk_moments``), so memory does not grow with n_samples.

    The standard errors are those of the exact null law, not plug-in
    ones, which are far too small for the heavy-tailed P_l at few samples:
    sqrt(var/N) for a mean of N samples, and for the unbiased sample
    variance sqrt(mu4/N - var**2*(N - 3)/(N*(N - 1))), with the closed-form
    variance and fourth central moment (``moments.mu4_pl_nopath``).  By
    Chebyshev a correct sampler then fails each check with probability at
    most 1/Z_GATE**2, at any N.

    P_l and P_e scale as (2*mu)**2, so they are drawn and reduced in that
    unit, as at mu = 1/2, and the closed forms at mu = 1/2, the estimates
    and their standard errors are scaled to mu: the fourth powers of the
    samples, and every term of the closed forms, then stay in the float
    range at every mu whose closed forms do.  Raises ValueError, before any
    draw, when n_samples < 2 (no sample variance), when mu is not positive
    and finite, or when a scaled closed form is not a finite positive normal
    float: a subnormal one has lost digits, and so would the z-scores
    against it."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    try:
        unit = (2.0 * mu) ** 2
    except OverflowError:
        unit = math.inf
    n = n_samples
    var_l, var_e = moments.var_pl_nopath(n_r, 0.5), moments.var_pe_nopath(n_r, 0.5)

    def var_se(mu4, var):
        return math.sqrt(mu4 / n - var * var * (n - 3) / (n * (n - 1)))

    # (name, closed form, standard error, scale) in units of 2*mu
    forms = [("mean_P_l", moments.mean_pl_nopath(n_r, 0.5), math.sqrt(var_l / n), unit),
             ("var_P_l", var_l, var_se(moments.mu4_pl_nopath(n_r), var_l), unit * unit),
             ("mean_P_e", moments.mean_pe_nopath(0.5), math.sqrt(var_e / n), unit),
             ("var_P_e", var_e, var_se(moments.mu4_pe_nopath(n_r), var_e), unit * unit)]
    for name, closed, _, scale in forms:
        # the smallest positive normal float; NaN fails too
        if not np.finfo(float).tiny <= closed * scale < math.inf:
            raise ValueError(f"the closed form of {name} at mu={mu}, n_r={n_r} "
                             f"is {closed * scale:.6g}, not a finite positive "
                             "normal float")
    p_l, p_e = _chunk_moments(
        lambda rng, m: _sample_powers_nopath(0.5, n_r, m, rng),
        MOMENT_CHUNK, 0, n_samples, seed)
    estimates = (p_l.mean, p_l.variance(), p_e.mean, p_e.variance())
    return [Check(name, closed * scale, estimate * scale, se * scale, "both")
            for (name, closed, se, scale), estimate in zip(forms, estimates)]


def _power_bounds_chunk(plan: Plan, cfg: NetworkConfig,
                        rng: np.random.Generator, m: int):
    """(P_l, P_e), normalized by p_t and p_t**2, of m theorem-4 samples
    drawn from ``rng``: first m eavesdropper positions, uniform on the
    square but outside the protected disc, then m rows of n_r relays
    uniform in the relay disc (``_relay_field``), then m exponentials.
    A row's field gives S = sum_i g_i and P_l = S**2 / n_r; given it and the
    eavesdropper's distances d_e,i, its received sum is CN(0, 2*mu*T),
    T = sum_i g_i * d_e,i**-gamma, so P_e = 2*mu * Exp(1) * T / n_r exactly,
    with no per-relay eavesdropper fading or phase.

    Precision: as in ``_relay_field``, with the relay->eavesdropper
    distances in float32 too, far below the gaps of the bounds; the final
    exponential is float64.
    """
    side = max(cfg.side, 2.0 * plan.a_e * 1.05)  # square must contain the disc
    # one eavesdropper per sample, uniform outside the disc
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
    f32 = np.float32
    _, s, t = _relay_field(rng, m, plan.n_r, plan.a_l, cfg,
                           ex[:, None].astype(f32), ey[:, None].astype(f32),
                           stage1=False)
    p_e = rng.standard_exponential(m)
    p_e *= (2.0 * cfg.mu / plan.n_r) * t[:, 0]
    return s * s / plan.n_r, p_e


def verify_power_bounds(plan: Plan, cfg: NetworkConfig, n_samples: int,
                        seed: int) -> list[Check]:
    """Check the four distance-envelope moment bounds against the sampled
    mean/variance of P_l and P_e and their SEs.  The samples are drawn by
    ``_power_bounds_chunk`` in chunks of RELAY_PIECE relay elements
    (RELAY_PIECE // n_r samples, at least one) from the generators of key 1,
    and reduced chunk by chunk (``_chunk_moments``), so memory does not grow
    with n_samples.  Raises ValueError before any draw when n_samples < 2,
    for a direct-mode plan (``check_runnable``), or when the plan's geometry
    leaves the bounds undefined (``moments.power_moment_bounds``)."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    check_runnable(plan)
    b = moments.power_moment_bounds(cfg.gamma, cfg.d_tr, plan.eta, plan.nu,
                                    plan.n_r, plan.a_l, plan.a_e)
    p_l, p_e = _chunk_moments(
        lambda rng, m: _power_bounds_chunk(plan, cfg, rng, m),
        max(1, RELAY_PIECE // plan.n_r), 1, n_samples, seed)
    return [
        _mean_check("mean_P_l_lower", b.mean_pl_lower, p_l, "lower"),
        _mean_check("mean_P_e_upper", b.mean_pe_upper, p_e, "upper"),
        _var_check("var_P_l_upper", b.var_pl_upper, p_l, "upper"),
        _var_check("var_P_e_upper", b.var_pe_upper, p_e, "upper"),
    ]
