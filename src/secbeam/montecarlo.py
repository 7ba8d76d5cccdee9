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
    fault per 4 KiB it touches.  Each thread has its own, so theorem-4
    chunks fill theirs side by side."""
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
    cos(theta) and sin(theta) for its position, and
    d_rx**2 = (x - d_tr)**2 + y**2.

    Precision: per-relay values (u, angle, h**2, positions, squared
    receiver distances, gains) are float32, about 1e-7 relative each; every
    sum over relays is float64.  The relay->eavesdropper squared distances
    and their powers take the dtype of ``ex``.
    """
    f32 = np.float32
    e = -cfg.gamma / 2.0
    n_e = ex.shape[1]
    buf = _relay_buffer()
    piece = len(buf) // KERNEL_SLOTS
    q = ex.dtype.itemsize // 4  # float32 slots per eavesdropper distance
    rate, s, t = np.zeros(m), np.zeros(m), np.zeros((m, n_e))
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
        # the slots of r and d2 are free: squared distances go there, with
        # room beyond for float64
        d, dy = (buf[i * piece:i * piece + q * n].view(ex.dtype).reshape(m, -1)
                 for i in (3, 3 + q))
        for j in range(n_e):
            np.subtract(x, ex[:, j:j + 1], out=d)
            d *= d
            np.subtract(y, ey[:, j:j + 1], out=dy)
            dy *= dy
            d += dy
            _neg_power(d, e, out=d)
            d *= g
            t[:, j] += d.sum(axis=1, dtype=np.float64)
    rate *= a_l ** cfg.gamma
    return rate, s, t


#: largest Poisson mean numpy's Generator.poisson accepts
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def expected_counts(plan: Plan, cfg: NetworkConfig) -> tuple[float, float]:
    """The Poisson means of a trial's two counts: legitimate nodes in the
    relay disc, lambda_l*pi*a_l**2, and eavesdroppers in the square,
    lambda_e*side**2."""
    side = cfg.side
    return cfg.lambda_l * math.pi * plan.a_l ** 2, cfg.lambda_e * side * side


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
    a relay; the exponentials are float64 too.

    Returns (realization, n_in_bl) where the realization carries
    min(n_in_bl, n_r) relays (all available nodes when short).
    """
    side = cfg.side
    if 2.0 * plan.a_l > side:
        raise ValueError("relay disc does not fit inside the network square")
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
    composite flag is false.
    """
    if plan.mode != "beamforming":
        raise ValueError("run_trial requires a beamforming-mode plan")
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
        deviations d and their squares d2, with m4 = sum(d2 * d2)."""
        acc = cls()
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

    ``collect``, if given, receives every TrialOutcome as it finishes (e.g.
    ``csv_row_writer``); aggregation keeps running counts and moments only,
    so memory does not grow with n_trials.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    ok_counts = [0] * len(EVENT_NAMES)
    composite_ok = 0
    p_l = RunningMoments()
    max_p_e = RunningMoments()
    total_power = RunningMoments()
    e6_given_field = RunningMoments()
    for i in range(n_trials):
        out = run_trial(plan, cfg, target, i, seed)
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

@dataclass(frozen=True)
class MomentCheck:
    name: str
    closed_form: float
    estimate: float
    std_err: float

    @property
    def z_score(self) -> float:
        gap = self.estimate - self.closed_form
        if not self.std_err > 0:  # as BoundCheck.margin_se
            return 0.0 if gap == 0 else math.copysign(math.inf, gap)
        return gap / self.std_err


@dataclass(frozen=True)
class BoundCheck:
    """A sampled moment against a one-sided bound.  ``margin_se`` is the
    signed distance in standard errors, positive on the respected side."""

    name: str
    bound: float
    estimate: float
    direction: str  # "lower" or "upper"
    std_err: float = 0.0

    @property
    def respected(self) -> bool:
        if self.direction == "lower":
            return self.estimate >= self.bound
        return self.estimate <= self.bound

    @property
    def margin_se(self) -> float:
        if not self.std_err > 0:
            return math.inf if self.respected else -math.inf
        gap = self.estimate - self.bound
        return (gap if self.direction == "lower" else -gap) / self.std_err


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


def _mean_check(name: str, closed: float, acc: RunningMoments) -> MomentCheck:
    return MomentCheck(name, closed, acc.mean,
                       math.sqrt(acc.m2 / (acc.n - 1) / acc.n))


def _var_check(name: str, closed: float, acc: RunningMoments) -> MomentCheck:
    s2 = acc.m2 / (acc.n - 1)
    se = math.sqrt(max(acc.m4 / acc.n - s2 * s2, 0.0) / acc.n)
    return MomentCheck(name, closed, s2, se)


#: samples per chunk of ``verify_moments``: a chunk's arrays (128 KiB each)
#: stay in cache between the sampler and the moments
MOMENT_CHUNK = 1 << 14

#: samples per window of ``_chunk_moments``, rounded down to whole chunks
#: (at least one): as MOMENT_CHUNK, so a verify-moments window is one chunk,
#: drawn on the calling thread; the reference plan's is 2**14 one-sample
#: chunks
MOMENT_WINDOW = 1 << 14


def _chunk_draws(draw, rows: int, key: int, n_samples: int, seed: int,
                 lo: int = 0, hi: int | None = None):
    """Samples lo to hi (n_samples by default) of the n_samples a seed
    draws, as (P_l, P_e) arrays; lo is the first sample of a chunk, and hi
    the first of another or n_samples.

    The samples fall into chunks of ``rows`` samples, fewer in the last, and
    chunk c is ``draw(np.random.default_rng([seed, key, c]), m)`` for its m
    samples, so the layout and every value depend on rows, n_samples and
    the seed alone.  The chunks run on one thread per usable CPU (the
    calling thread among them), never more than there are chunks: the
    result is the same for any number of threads."""
    hi = n_samples if hi is None else hi
    first, n_chunks = lo // rows, -(-hi // rows)
    if n_chunks - first == 1:  # no threads, and no copy to fault pages in
        return draw(np.random.default_rng([seed, key, first]), hi - lo)
    p_l = np.empty(hi - lo)
    p_e = np.empty(hi - lo)
    lock = threading.Lock()
    taken = [first]  # next chunk to hand out
    errors = []      # exceptions raised in any thread; they stop the others

    def work():
        try:
            while not errors:
                with lock:
                    c = taken[0]
                    taken[0] += 1
                if c >= n_chunks:
                    return
                a, b = c * rows, min((c + 1) * rows, n_samples)
                p_l[a - lo:b - lo], p_e[a - lo:b - lo] = draw(
                    np.random.default_rng([seed, key, c]), b - a)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    n_threads = min(len(os.sched_getaffinity(0)), n_chunks - first)
    threads = [threading.Thread(target=work) for _ in range(n_threads - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return p_l, p_e


def _chunk_moments(draw, rows: int, key: int, n_samples: int, seed: int):
    """RunningMoments of P_l and of P_e over the samples of ``_chunk_draws``,
    drawn a window of whole chunks at a time (MOMENT_WINDOW samples, at
    least one chunk), each window reduced on its own (``RunningMoments.of``)
    and merged in order, so memory does not grow with n_samples.  The
    windows depend on rows and n_samples alone."""
    window = rows * max(1, MOMENT_WINDOW // rows)
    p_l, p_e = RunningMoments(), RunningMoments()
    for lo in range(0, n_samples, window):
        x_l, x_e = _chunk_draws(draw, rows, key, n_samples, seed, lo,
                                min(lo + window, n_samples))
        p_l.merge(RunningMoments.of(x_l))
        p_e.merge(RunningMoments.of(x_e))
        del x_l, x_e  # free this window before the next one is drawn
    return p_l, p_e


def verify_moments(mu: float, n_r: int, n_samples: int,
                   seed: int) -> list[MomentCheck]:
    """Compare sampled mean/variance of the no-path-loss received powers
    against the exact closed forms; z-scores should sit within noise.
    The samples are drawn by ``_sample_powers_nopath`` in chunks of
    MOMENT_CHUNK from the generators of key 0 (``_chunk_draws``) and
    reduced a window at a time (``_chunk_moments``), so memory does not
    grow with n_samples.

    P_l and P_e scale as (2*mu)**2, so they are drawn, reduced and compared
    in that unit, as at mu = 1/2, and only the checks are scaled back: the
    fourth powers of the samples then stay in the float range at every mu
    whose closed forms do."""
    p_l, p_e = _chunk_moments(
        lambda rng, m: _sample_powers_nopath(0.5, n_r, m, rng),
        MOMENT_CHUNK, 0, n_samples, seed)
    unit = (2.0 * mu) ** 2
    checks = [
        (_mean_check("mean_P_l", moments.mean_pl_nopath(n_r, 0.5), p_l), unit),
        (_var_check("var_P_l", moments.var_pl_nopath(n_r, 0.5), p_l), unit * unit),
        (_mean_check("mean_P_e", moments.mean_pe_nopath(0.5), p_e), unit),
        (_var_check("var_P_e", moments.var_pe_nopath(n_r, 0.5), p_e), unit * unit),
    ]
    return [MomentCheck(c.name, c.closed_form * scale, c.estimate * scale,
                        c.std_err * scale) for c, scale in checks]


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
                        seed: int) -> list[BoundCheck]:
    """Check the four distance-envelope moment bounds against the sampled
    mean/variance of P_l and P_e and their SEs.  The samples are drawn by
    ``_power_bounds_chunk`` in chunks of RELAY_PIECE relay elements
    (RELAY_PIECE // n_r samples, at least one) from the generators of key 1
    (``_chunk_draws``), and reduced a window at a time
    (``_chunk_moments``), so memory does not grow with n_samples."""
    b = moments.power_moment_bounds(cfg.gamma, cfg.d_tr, plan.eta, plan.nu,
                                    plan.n_r, plan.a_l, plan.a_e)
    p_l, p_e = _chunk_moments(
        lambda rng, m: _power_bounds_chunk(plan, cfg, rng, m),
        max(1, RELAY_PIECE // plan.n_r), 1, n_samples, seed)
    checks = [
        _mean_check("mean_P_l_lower", b.mean_pl_lower, p_l),
        _mean_check("mean_P_e_upper", b.mean_pe_upper, p_e),
        _var_check("var_P_l_upper", b.var_pl_upper, p_l),
        _var_check("var_P_e_upper", b.var_pe_upper, p_e),
    ]
    # each name ends in its direction, "lower" or "upper"
    return [BoundCheck(c.name, c.closed_form, c.estimate,
                       c.name.rsplit("_", 1)[1], c.std_err) for c in checks]
