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
from dataclasses import dataclass, asdict

import numpy as np

from .geometry import NetworkConfig
from .planner import Plan, SecrecyTarget
from . import beamform
from . import moments

CSV_COLUMNS = [
    "trial_index", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "composite",
    "min_relay_rate", "max_eaves_rate_s1", "rate_l_s2", "max_eaves_rate_s2",
    "P_l", "max_P_e", "total_relay_power", "n_in_Bl", "n_in_Be",
]

EVENT_NAMES = ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]

#: version of the per-trial random stream: 1 drew every per-relay link in
#: float64; 2 draws the sufficient statistics of ``sample_realization``
STREAM_VERSION = 2


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
    """Aggregated empirical outage rates with 95% Wilson intervals."""

    n_trials: int
    seed: int
    event_outage: dict
    composite: EventStats
    mean_p_l: float
    var_p_l: float
    mean_max_p_e: float
    var_max_p_e: float
    mean_total_relay_power: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["event_outage"] = {k: asdict(v) for k, v in self.event_outage.items()}
        doc["composite"] = asdict(self.composite)
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


def draw_min_gain(d2_tx: np.ndarray, gamma: float, mu: float,
                  rng: np.random.Generator) -> float:
    """Draw min_i h_i**2 * d_i**-gamma over relays at squared distances
    ``d2_tx`` from the transmitter, h_i**2 i.i.d. exponential with mean 2*mu.

    Given the distances the terms are independent exponentials with rates
    d_i**gamma / (2*mu), so their minimum is exponential with the summed
    rate: 2*mu * Exp(1) / sum_i d_i**gamma, drawn exactly with one variate.
    The minimum over no relays is +inf.
    """
    rate = float(np.sum(d2_tx ** (gamma / 2.0), dtype=np.float64))
    gain = 2.0 * mu * rng.standard_exponential()
    return gain / rate if rate > 0 else math.inf


def sample_realization(plan: Plan, cfg: NetworkConfig,
                       rng: np.random.Generator):
    """Sample one trial's geometry and fading, drawing only what the two
    stages read.

    Legitimate nodes are sampled restricted to the relay disc: nodes outside
    it enter no statistic, and conditioning a homogeneous Poisson process on
    the disc gives a Poisson count with i.i.d. uniform positions.  Per relay
    this draws u = (r/a_l)**2 uniform, the polar angle theta and the
    receiver-link power h**2 ~ Exp(mean 2*mu); the squared receiver distance
    comes from the law of cosines written without cancellation,
    (d_tr - r)**2 + 4*d_tr*r*sin(theta/2)**2.  The stage-1 minimum is drawn
    exactly by ``draw_min_gain``.  Eavesdroppers are sampled on the full
    square.  Only when there are some are the relay positions and the
    relay->eavesdropper arrays built.  Each combined fading
    h_ij e^{j(phi_ij - theta_i)} is circular Gaussian CN(0, 2*mu), i.i.d.
    over (i, j) and independent of the receiver links: rotating i.i.d.
    circular Gaussians by the common phase theta_i leaves them i.i.d.  So no
    receiver-link phase is drawn; the combined fading is drawn in polar
    form, magnitude sqrt(2*mu*Exp(1)) and a uniform phase, which costs
    numpy less than two float32 normals.

    Precision: per-relay values (u, angle, h**2, squared distances, the
    combined fading) are float32, about 1e-7 relative each; every reduction
    over relays is float64.  Relay->eavesdropper distances are float64,
    since an eavesdropper can sit arbitrarily close to a relay.

    Returns (realization, n_in_bl) where the realization carries
    min(n_in_bl, n_r) relays (all available nodes when short).
    """
    side = cfg.side
    if 2.0 * plan.a_l > side:
        raise ValueError("relay disc does not fit inside the network square")
    f32 = np.float32
    n_in_bl = int(rng.poisson(cfg.lambda_l * math.pi * plan.a_l ** 2))
    n_e = int(rng.poisson(cfg.lambda_e * side * side))
    k = min(n_in_bl, plan.n_r)

    d2_tx = rng.random(k, dtype=f32)
    d2_tx *= f32(plan.a_l ** 2)
    turn = rng.random(k, dtype=f32)  # theta / (2*pi)
    h2_rx = rng.standard_exponential(k, dtype=f32)
    h2_rx *= f32(2.0 * cfg.mu)
    min_gain = draw_min_gain(d2_tx, cfg.gamma, cfg.mu, rng)

    r = np.sqrt(d2_tx)
    # d_rx**2 = (d_tr - r)**2 + 4*d_tr*r*sin(theta/2)**2
    sin2 = turn * f32(math.pi)
    np.sin(sin2, out=sin2)
    sin2 *= sin2
    sin2 *= r
    sin2 *= f32(4.0 * cfg.d_tr)
    d2_rx = r - f32(cfg.d_tr)
    d2_rx *= d2_rx
    d2_rx += sin2

    eaves_x = (rng.random(n_e) - 0.5) * side
    eaves_y = (rng.random(n_e) - 0.5) * side
    eaves_h2_tx = rng.standard_exponential(n_e) * (2.0 * cfg.mu)
    if n_e:
        angle = turn * f32(2.0 * math.pi)
        x = np.cos(angle)
        x *= r
        y = np.sin(angle, out=angle)
        y *= r
        # float32 positions, float64 differences
        d2_cross = x - eaves_x[:, None]
        d2_cross *= d2_cross
        dy = y - eaves_y[:, None]
        dy *= dy
        d2_cross += dy
        magnitude = rng.standard_exponential((n_e, k), dtype=f32)
        magnitude *= f32(2.0 * cfg.mu)
        np.sqrt(magnitude, out=magnitude)
        phase = rng.random((n_e, k), dtype=f32)
        phase *= f32(2.0 * math.pi)
        fading = np.empty((n_e, k), dtype=np.complex64)
        np.cos(phase, out=fading.real)
        np.sin(phase, out=fading.imag)
        fading *= magnitude
    else:
        d2_cross = np.empty((0, k))
        fading = np.empty((0, k), dtype=np.complex64)

    realization = beamform.NetworkRealization(
        relay_d2_tx=d2_tx, relay_min_gain=min_gain,
        relay_d2_rx=d2_rx, relay_h2_rx=h2_rx,
        eaves_dist_tx=np.hypot(eaves_x, eaves_y), eaves_h2_tx=eaves_h2_tx,
        eaves_d2_relay=d2_cross, eaves_fading_relay=fading)
    return realization, n_in_bl


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
        powers = beamform.received_powers(realization, cfg.p_t, cfg.gamma)
        rate_l, max_e2 = beamform.stage2_rates(powers.p_l, powers.p_e)
        p_l = powers.p_l
        max_p_e = float(np.max(powers.p_e)) if realization.n_eaves else 0.0
        total_power = powers.total
        e5 = rate_l >= (1.0 + target.kappa) * target.secure_rate
        e6 = max_e2 <= target.kappa * target.secure_rate
        composite = (min_rate - max_e1 >= target.secure_rate
                     and rate_l - max_e2 >= target.secure_rate)
    else:
        rate_l = max_e2 = p_l = max_p_e = total_power = 0.0
        e5 = False
        e6 = True
        composite = False

    return TrialOutcome(
        trial_index=trial_index, e1=e1, e2=e2, e3=e3, e4=e4, e5=e5, e6=e6,
        e7=e7, composite=composite, min_relay_rate=min_rate,
        max_eaves_rate_s1=max_e1, rate_l_s2=rate_l, max_eaves_rate_s2=max_e2,
        p_l=p_l, max_p_e=max_p_e, total_relay_power=total_power,
        n_in_bl=n_in_bl, n_in_be=int(np.sum(realization.eaves_dist_tx <= plan.a_e)))


class RunningMoments:
    """Count, mean and sum of squared deviations of a stream of floats,
    updated one value at a time (Welford), in O(1) memory."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

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
    for i in range(n_trials):
        out = run_trial(plan, cfg, target, i, seed)
        for j, ok in enumerate(out.flags()):
            ok_counts[j] += ok
        composite_ok += out.composite
        p_l.push(out.p_l)
        max_p_e.push(out.max_p_e)
        total_power.push(out.total_relay_power)
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
        return (self.estimate - self.closed_form) / self.std_err


@dataclass(frozen=True)
class BoundCheck:
    name: str
    bound: float
    estimate: float
    direction: str  # "lower" or "upper"

    @property
    def respected(self) -> bool:
        if self.direction == "lower":
            return self.estimate >= self.bound
        return self.estimate <= self.bound


def _sample_powers_nopath(mu: float, n_r: int, n_samples: int,
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


def _mean_check(name: str, closed: float, x: np.ndarray) -> MomentCheck:
    return MomentCheck(name, closed, float(x.mean()),
                       float(x.std(ddof=1) / math.sqrt(len(x))))


def _var_check(name: str, closed: float, x: np.ndarray) -> MomentCheck:
    dev = x - x.mean()
    s2 = float((dev * dev).sum() / (len(x) - 1))
    m4 = float((dev ** 4).mean())
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / len(x))
    return MomentCheck(name, closed, s2, se)


def verify_moments(mu: float, n_r: int, n_samples: int,
                   seed: int) -> list[MomentCheck]:
    """Compare sampled mean/variance of the no-path-loss received powers
    against the exact closed forms; z-scores should sit within noise."""
    rng = np.random.default_rng([seed, 0])
    p_l, p_e = _sample_powers_nopath(mu, n_r, n_samples, rng)
    return [
        _mean_check("mean_P_l", moments.mean_pl_nopath(n_r, mu), p_l),
        _var_check("var_P_l", moments.var_pl_nopath(n_r, mu), p_l),
        _mean_check("mean_P_e", moments.mean_pe_nopath(mu), p_e),
        _var_check("var_P_e", moments.var_pe_nopath(n_r, mu), p_e),
    ]


def verify_power_bounds(plan: Plan, cfg: NetworkConfig, n_samples: int,
                        seed: int, chunk_elems: int = 1 << 22) -> list[BoundCheck]:
    """Check the four distance-envelope moment bounds by direct sampling.

    Relays are drawn uniform in the relay disc, one eavesdropper uniform on
    the square but outside the protected disc, fading Rayleigh; the sampled
    mean/variance of P_l and P_e are compared against the bounds (direction
    only, normalized by p_t and p_t**2).

    The per-relay intermediates are single precision with double-precision
    reductions: at the planned relay counts the realization arrays dominate
    the runtime, and the float32 quantization (about 1e-7 relative per
    element, averaging out across relays) sits orders of magnitude below the
    gaps of the bounds being checked.  The bounds themselves are computed
    in double precision from the plan and the configuration.
    """
    rng = np.random.default_rng([seed, 1])
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
    b = moments.power_moment_bounds(cfg.gamma, cfg.d_tr, plan.eta, plan.nu,
                                    n_r, plan.a_l, plan.a_e)
    return [
        BoundCheck("mean_P_l_lower", b.mean_pl_lower, float(p_l.mean()), "lower"),
        BoundCheck("mean_P_e_upper", b.mean_pe_upper, float(p_e.mean()), "upper"),
        BoundCheck("var_P_l_upper", b.var_pl_upper, float(p_l.var(ddof=1)), "upper"),
        BoundCheck("var_P_e_upper", b.var_pe_upper, float(p_e.var(ddof=1)), "upper"),
    ]
