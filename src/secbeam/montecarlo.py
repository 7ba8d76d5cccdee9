"""Trial orchestration: sample network realizations under a plan, score the
seven outage sub-events and the end-to-end secrecy condition, and aggregate
empirical outage rates with confidence intervals.

Per-trial randomness is derived from (master seed, trial index) through
numpy's SeedSequence so trials are order-independent and the whole report is
bit-reproducible for a given seed and trial count.
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


def sample_realization(plan: Plan, cfg: NetworkConfig,
                       rng: np.random.Generator):
    """Sample one trial's geometry and fading.

    Legitimate nodes are sampled restricted to the relay disc: nodes outside
    it enter no statistic, and conditioning a homogeneous Poisson process on
    the disc gives a Poisson count with i.i.d. uniform positions, which is
    exactly what is drawn here.  Eavesdroppers are sampled on the full
    square.  Returns (realization, n_in_bl) where the realization carries
    min(n_in_bl, n_r) relays (all available nodes when short).
    """
    side = cfg.side
    if 2.0 * plan.a_l > side:
        raise ValueError("relay disc does not fit inside the network square")
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

    realization = beamform.NetworkRealization(
        relay_dist_tx=radii, relay_h_tx=relay_h_tx,
        relay_dist_rx=relay_dist_rx, relay_h_rx=relay_h_rx,
        relay_phase_rx=relay_phase_rx,
        eaves_dist_tx=eaves_dist_tx, eaves_h_tx=eaves_h_tx,
        eaves_dist_relay=eaves_dist_relay, eaves_h_relay=eaves_h_relay,
        eaves_phase_relay=eaves_phase_relay)
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


def estimate_outage(plan: Plan, cfg: NetworkConfig, target: SecrecyTarget,
                    n_trials: int, seed: int,
                    collect=None) -> OutageReport:
    """Run n_trials independent trials and aggregate.

    ``collect``, if given, receives every TrialOutcome (e.g. a CSV writer
    callback); aggregation itself is an order-independent reduction.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    ok_counts = np.zeros(7, dtype=int)
    composite_ok = 0
    p_l = np.empty(n_trials)
    max_p_e = np.empty(n_trials)
    total_power = np.empty(n_trials)
    for i in range(n_trials):
        out = run_trial(plan, cfg, target, i, seed)
        ok_counts += np.array(out.flags(), dtype=int)
        composite_ok += int(out.composite)
        p_l[i] = out.p_l
        max_p_e[i] = out.max_p_e
        total_power[i] = out.total_relay_power
        if collect is not None:
            collect(out)

    def stats(ok: int) -> EventStats:
        fails = n_trials - ok
        lo, hi = wilson_interval(fails, n_trials)
        return EventStats(fails / n_trials, lo, hi)

    return OutageReport(
        n_trials=n_trials, seed=seed,
        event_outage={name: stats(int(ok_counts[i]))
                      for i, name in enumerate(EVENT_NAMES)},
        composite=stats(composite_ok),
        mean_p_l=float(p_l.mean()),
        var_p_l=float(p_l.var(ddof=1)) if n_trials > 1 else 0.0,
        mean_max_p_e=float(max_p_e.mean()),
        var_max_p_e=float(max_p_e.var(ddof=1)) if n_trials > 1 else 0.0,
        mean_total_relay_power=float(total_power.mean()))


def write_trials_csv(path, outcomes) -> None:
    """Write per-trial rows in the fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for out in outcomes:
            writer.writerow(out.csv_row())


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
