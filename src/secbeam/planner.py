"""Closed-form design constraints of the two-stage secure relaying scheme and
the pipeline that assembles them into a concrete parameter plan.

Given a target (secure rate, outage level) the pipeline fixes, in order: the
moment constants (eta, nu), the relay count n_r, the relay recruitment radius
a_l, the minimum legitimate density, the eavesdropper-free radius a_e, the
maximum tolerable eavesdropper density and the network-wide eavesdropper
count cap.  Every bound is a sufficient condition, so the finished plan can
be re-validated constraint by constraint with signed margins.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass

from .geometry import NetworkConfig
from . import moments

FORMAT_VERSION = "secbeam-plan-1"

#: relative slack applied to strict real-valued inequalities so that a plan
#: re-validates with strictly positive margin
STRICT_MARGIN = 1e-9


class InfeasiblePlanError(ValueError):
    """A design constraint cannot be met; carries the failing constraint."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        super().__init__(f"infeasible constraint {constraint}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class SecrecyTarget:
    """Target secure rate (bits/use) and outage level, plus the two rate
    split factors for the suboptimal per-stage thresholds."""

    secure_rate: float
    outage: float
    rho: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if not (self.secure_rate > 0 and math.isfinite(self.secure_rate)):
            raise ValueError(f"secure_rate must be positive, got {self.secure_rate}")
        if not 0 < self.outage < 1:
            raise ValueError(f"outage must be in (0, 1), got {self.outage}")
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    @property
    def eps_prime(self) -> float:
        """Per-sub-event outage budget: total outage split across 7 events."""
        return self.outage / 7.0


@dataclass(frozen=True)
class Plan:
    """Planner output: the six design parameters plus the moment constants.

    ``a_l`` is the working relay radius (half the raw bound value), and
    ``mode`` the ``transport_mode`` it gives.
    """

    a_l: float
    a_l_raw: float
    a_e: float
    n_r: int
    lambda_l_min: float
    lambda_e_max: float
    n_e_max: int
    eta: float
    nu: float
    eps_prime: float
    mode: str


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    satisfied: bool
    margin: float


def a_l_upper(cfg: NetworkConfig, target: SecrecyTarget, n_r: int) -> float:
    """Largest admissible relay radius for the stage-1 legitimate rate:
    ((-p_t*mu*ln(1 - eps'/n_r)) / (2**((1+rho)*R_S) - 1))**(1/gamma)."""
    frac = target.eps_prime / n_r
    if not 0 < frac < 1:
        raise InfeasiblePlanError("a_l_bound", f"eps'/n_r = {frac} outside (0, 1)")
    try:
        denom = 2.0 ** ((1.0 + target.rho) * target.secure_rate) - 1.0
    except OverflowError:
        raise InfeasiblePlanError(
            "a_l_bound", "rate threshold outside the float range") from None
    if denom <= 0:
        raise InfeasiblePlanError("a_l_bound", "rate threshold denominator <= 0")
    return ((-cfg.p_t * cfg.mu * math.log1p(-frac)) / denom) ** (1.0 / cfg.gamma)


def a_e_min(cfg: NetworkConfig, target: SecrecyTarget) -> float:
    """Closed-form eavesdropper-free radius covering every layer:
    (p_t*mu)**(1/gamma)/(2**(rho*R_S)-1)**(1/gamma)
      * (3*ln2 + ln(c1) + c2/(4*sqrt(2)*c1))
    with c1 = -3*ln(1-eps')/(4*eps'), c2 = sqrt(4/(-3*eps'*ln(1-eps')))."""
    eps = target.eps_prime
    if not 0 < eps < 1:
        raise InfeasiblePlanError("a_e_bound", f"eps' = {eps} outside (0, 1)")
    lg = -math.log1p(-eps)
    c1 = 3.0 * lg / (4.0 * eps)
    c2 = math.sqrt(4.0 / (3.0 * eps * lg))
    try:
        pref = (cfg.p_t * cfg.mu) ** (1.0 / cfg.gamma) / (
            2.0 ** (target.rho * target.secure_rate) - 1.0) ** (1.0 / cfg.gamma)
    except ZeroDivisionError:
        raise InfeasiblePlanError(
            "a_e_bound", "rate threshold 2**(rho*R_S) - 1 underflows to 0") from None
    return pref * (3.0 * math.log(2.0) + math.log(c1) + c2 / (4.0 * math.sqrt(2.0) * c1))


def eta_constant(mu: float) -> float:
    """Mean-power constant: E{H^2}**2 = 4*mu**2."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return 4.0 * mu * mu


def nu_constant(mu: float) -> float:
    """Smallest nu whose square dominates Var(P_l)/(n_r*p_t**2) and
    Var(P_e)/p_t**2 (no path loss) for every relay count n_r >= 1.

    With E{H^(2k)} = (2*mu)**k * k!, the exact variances in units of
    (2*mu)**4 are Var(P_l)/n = 4 + 10/n + 6/n**2 and Var(P_e) = 1 + 2/n.
    Both strictly decrease in n, so n = 1 binds for every relay count and
    nu**2 = Var(P_l)/1 = 20*(2*mu)**4.  At n = 1 ``var_pl_nopath`` and
    ``var_pe_nopath`` reduce exactly to E{H^8} - E{H^4}**2 and
    E{H^4}**2 - E{H^2}**4; taking those differences of the Rayleigh
    moments, rather than writing 8*sqrt(5)*mu**2, keeps nu bit-identical to
    a scan of the variance formulas over n.  Raises OverflowError when
    E{H^8} leaves the float range.
    """
    m2 = moments.rayleigh_moment(mu, 2)
    m4 = moments.rayleigh_moment(mu, 4)
    m8 = moments.rayleigh_moment(mu, 8)
    return math.sqrt(max(m8 - m4 * m4, m4 * m4 - m2 ** 4))


def n_r_bound_simplified(cfg: NetworkConfig, target: SecrecyTarget, eta: float,
                         nu: float) -> float:
    """Real-valued a_l-free bound on n_r (valid when the relay radius stays
    below d_tr/2):
    81/(4*eta**2) * (nu/sqrt(eps') + sqrt(nu**2/eps'
        + (4*eta/p_t)*d_tr**(2*gamma)*(2**((1+kappa)*R_S)-1)))**2."""
    eps = target.eps_prime
    inner = (nu * nu / eps
             + 4.0 * eta / cfg.p_t * cfg.d_tr ** (2 * cfg.gamma)
             * (2.0 ** ((1.0 + target.kappa) * target.secure_rate) - 1.0))
    return 81.0 / (4.0 * eta * eta) * (nu / math.sqrt(eps) + math.sqrt(inner)) ** 2


def n_r_min_simplified(cfg: NetworkConfig, target: SecrecyTarget, eta: float,
                       nu: float) -> int:
    """Smallest integer relay count strictly above the simplified bound;
    InfeasiblePlanError when the bound leaves the float range."""
    try:
        bound = n_r_bound_simplified(cfg, target, eta, nu)
    except OverflowError:
        bound = math.inf
    if not bound < math.inf:  # inf or NaN
        raise InfeasiblePlanError("n_r_bound", f"bound {bound} outside the float range")
    return math.ceil(bound) + 1


def transport_mode(d_tr: float, a_l: float) -> str:
    """The plan's mode: "direct" when the receiver is close enough that
    relaying is not needed (d_tr <= 2*a_l), else "beamforming"."""
    return "direct" if d_tr <= 2.0 * a_l else "beamforming"


def relay_reach(mode: str, a_l: float) -> float:
    """Relay radius seen by the eavesdropper-count bound: a_l when the
    relays beamform, 0 in direct mode, where the transmitter sends alone."""
    return a_l if mode == "beamforming" else 0.0


def n_e_bound(cfg: NetworkConfig, target: SecrecyTarget, eta: float, nu: float,
              a_l: float, a_e: float) -> float:
    """Real-valued network-wide eavesdropper count below which the stage-2
    eavesdropper-rate Chebyshev bound holds:
    eps' * (numer / (nu*A*p_t))**2, numer = 2**(kappa*R_S) - eta*A*p_t - 1,
    A = (a_e-a_l)**(-gamma) * (d_tr-a_l)**(-gamma).  When numer <= 0 (the
    rate threshold lies below the mean eavesdropper power bound) no count
    meets it, and numer itself is returned."""
    a_fact = (a_e - a_l) ** (-cfg.gamma) * (cfg.d_tr - a_l) ** (-cfg.gamma)
    numer = 2.0 ** (target.kappa * target.secure_rate) - eta * a_fact * cfg.p_t - 1.0
    if numer <= 0:
        return numer
    return target.eps_prime * (numer / (nu * a_fact * cfg.p_t)) ** 2


def n_e_cap(cfg: NetworkConfig, target: SecrecyTarget, eta: float, nu: float,
            a_l: float, a_e: float) -> int:
    """Largest integer eavesdropper count strictly below ``n_e_bound``;
    InfeasiblePlanError when the bound leaves the float range."""
    if a_e <= a_l:
        raise InfeasiblePlanError("n_e_bound", f"a_e={a_e} <= a_l={a_l}")
    if cfg.d_tr <= a_l:
        raise InfeasiblePlanError("n_e_bound", f"d_tr={cfg.d_tr} <= a_l={a_l}")
    try:
        bound = n_e_bound(cfg, target, eta, nu, a_l, a_e)
    except (OverflowError, ZeroDivisionError):
        # a power overflows, or a division meets one that underflows to 0
        raise InfeasiblePlanError(
            "n_e_bound", "bound outside the float range") from None
    if bound <= 0:
        raise InfeasiblePlanError(
            "n_e_bound", "scheme infeasible at this geometry (rate threshold "
            "below the mean eavesdropper power bound)")
    cap = math.floor(bound)
    if cap == bound:  # strict inequality
        cap -= 1
    return max(cap, 0)


def lambda_l_bound(eps_prime: float, n_r: int, a_l: float) -> float:
    """Legitimate density putting n_r relays in the recruitment disc with
    outage eps': beta_l * n_r / (pi * a_l**2),
    beta_l = 1 + x + sqrt((1 + x)**2 - 1), x = 1/(2*eps'*n_r)."""
    x = 1.0 / (2.0 * eps_prime * n_r)
    beta_l = 1.0 + x + math.sqrt((1.0 + x) ** 2 - 1.0)
    return beta_l * n_r / (math.pi * a_l * a_l)


def lambda_l_min(eps_prime: float, n_r: int, a_l: float) -> float:
    """Smallest legitimate density strictly above ``lambda_l_bound``."""
    if eps_prime <= 0 or n_r < 1 or a_l <= 0:
        raise ValueError("eps_prime, n_r, a_l must be positive")
    return lambda_l_bound(eps_prime, n_r, a_l) * (1.0 + STRICT_MARGIN)


def lambda_e_bound(eps_prime: float, a_e: float) -> float:
    """Eavesdropper density keeping the disc of radius a_e empty with
    probability exactly 1 - eps': -ln(1 - eps')/(pi * a_e**2)."""
    return -math.log1p(-eps_prime) / (math.pi * a_e * a_e)


def lambda_e_max(eps_prime: float, a_e: float) -> float:
    """Largest eavesdropper density strictly below ``lambda_e_bound``."""
    if not 0 < eps_prime < 1:
        raise ValueError(f"eps_prime must be in (0, 1), got {eps_prime}")
    if a_e <= 0:
        raise ValueError("a_e must be positive")
    return lambda_e_bound(eps_prime, a_e) * (1.0 - STRICT_MARGIN)


def plan(cfg: NetworkConfig, target: SecrecyTarget) -> Plan:
    """Run the full selection pipeline in its prescribed order.

    Order: moment constants, relay count (simplified bound), relay radius
    (halved), minimum legitimate density, eavesdropper-free radius, maximum
    eavesdropper density, eavesdropper count cap, and finally the transport
    mode.  Any infeasible sub-bound raises InfeasiblePlanError naming it,
    as do moment constants (``moment_constants``) or a bound outside the
    float range.
    """
    try:
        eta, nu = eta_constant(cfg.mu), nu_constant(cfg.mu)
    except OverflowError:
        eta = nu = math.inf
    # the n_r bound divides by eta**2 and adds nu**2
    if not (0 < eta * eta < math.inf and 0 < nu * nu < math.inf):
        raise InfeasiblePlanError(
            "moment_constants", f"eta={eta}, nu={nu} at mu={cfg.mu}: their "
            "squares leave the float range")
    n_r = n_r_min_simplified(cfg, target, eta, nu)
    a_l_raw = a_l_upper(cfg, target, n_r) * (1.0 - STRICT_MARGIN)
    a_l = a_l_raw / 2.0
    try:
        lam_l = lambda_l_min(target.eps_prime, n_r, a_l)
    except (ValueError, ZeroDivisionError):
        raise InfeasiblePlanError(
            "a_l_bound", f"a_l = {a_l}: a_l or a_l**2 underflows to 0") from None
    if not math.isfinite(lam_l):
        raise InfeasiblePlanError(
            "lambda_l_bound", f"lambda_l_min={lam_l} at a_l={a_l}: the "
            "density leaves the float range")
    a_e = a_e_min(cfg, target) * (1.0 + STRICT_MARGIN)
    lam_e = lambda_e_max(target.eps_prime, a_e)
    mode = transport_mode(cfg.d_tr, a_l)
    n_e = n_e_cap(cfg, target, eta, nu, relay_reach(mode, a_l), a_e)
    result = Plan(a_l=a_l, a_l_raw=a_l_raw, a_e=a_e, n_r=n_r,
                  lambda_l_min=lam_l, lambda_e_max=lam_e, n_e_max=n_e,
                  eta=eta, nu=nu, eps_prime=target.eps_prime, mode=mode)
    for check in validate_plan(cfg, target, result):
        if not check.satisfied:
            raise InfeasiblePlanError(check.name, f"self-check margin {check.margin}")
    return result


def validate_plan(cfg: NetworkConfig, target: SecrecyTarget,
                  p: Plan) -> list[ConstraintCheck]:
    """Re-evaluate every design inequality for a finished plan.

    Margins are signed slack in the natural unit of each constraint
    (positive means satisfied with room).
    """
    checks = []
    upper = a_l_upper(cfg, target, p.n_r)
    checks.append(ConstraintCheck("a_l_bound", p.a_l_raw < upper, upper - p.a_l_raw))

    ae_req = a_e_min(cfg, target)
    checks.append(ConstraintCheck("a_e_bound", p.a_e >= ae_req, p.a_e - ae_req))

    nr_bound = n_r_bound_simplified(cfg, target, p.eta, p.nu)
    checks.append(ConstraintCheck("n_r_bound", p.n_r > nr_bound, p.n_r - nr_bound))

    ne_bound = n_e_bound(cfg, target, p.eta, p.nu, relay_reach(p.mode, p.a_l),
                         p.a_e)
    if ne_bound > 0:
        checks.append(ConstraintCheck("n_e_bound", p.n_e_max < ne_bound,
                                      ne_bound - p.n_e_max))
    else:
        checks.append(ConstraintCheck("n_e_bound", False, ne_bound))

    lam_l_req = lambda_l_bound(target.eps_prime, p.n_r, p.a_l)
    checks.append(ConstraintCheck("lambda_l_bound", p.lambda_l_min > lam_l_req,
                                  p.lambda_l_min - lam_l_req))

    lam_e_cap = lambda_e_bound(target.eps_prime, p.a_e)
    checks.append(ConstraintCheck("lambda_e_bound", p.lambda_e_max < lam_e_cap,
                                  lam_e_cap - p.lambda_e_max))

    checks.append(ConstraintCheck("inner_radius_assumption",
                                  p.mode == "direct" or p.a_l < cfg.d_tr / 2.0,
                                  cfg.d_tr / 2.0 - p.a_l))
    return checks


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def field_values(obj) -> dict:
    """The fields of a dataclass instance by name, in field order, holding
    the instance's own values: ``dataclasses.asdict`` without its deep copy
    of every value, for flat documents of scalars.  A dataclass without
    slots sets its fields in field order in ``__init__``, so they are its
    ``__dict__``."""
    return dict(vars(obj))


def plan_document(cfg: NetworkConfig, target: SecrecyTarget, p: Plan) -> dict:
    """Flat key/value document: plan fields plus target and config echo."""
    doc = {"format_version": FORMAT_VERSION}
    doc.update(field_values(p))
    doc.update({f"target_{k}": v for k, v in field_values(target).items()})
    doc["target_eps_prime"] = target.eps_prime
    doc.update({f"cfg_{k}": v for k, v in field_values(cfg).items()})
    return doc


@contextlib.contextmanager
def open_output(path):
    """Open ``path`` for writing text: created if missing, else written over
    in place, and cut after the last write on exit.  A file nothing was
    written to keeps its bytes, and a stream that cannot seek has no tail.
    Opening with O_TRUNC instead makes ext4 start writeback when a file
    emptied that way is closed, and the next run's truncation then waits
    for that disk write."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              newline="") as fh:
        try:
            yield fh
        finally:
            if fh.seekable() and fh.tell():
                fh.truncate()


def write_plan(fh, cfg: NetworkConfig, target: SecrecyTarget, p: Plan,
               extra: dict | None = None) -> None:
    """Write the plan document to the open text file ``fh``."""
    doc = plan_document(cfg, target, p)
    if extra:
        doc.update(extra)
    fh.write(json.dumps(doc, indent=2) + "\n")


def save_plan(path, cfg: NetworkConfig, target: SecrecyTarget, p: Plan,
              extra: dict | None = None) -> None:
    with open_output(path) as fh:
        write_plan(fh, cfg, target, p, extra)


def load_plan(path) -> tuple[NetworkConfig, SecrecyTarget, Plan]:
    """Read a file written by ``save_plan``.  Raises ValueError for another
    format version, for relay/eavesdropper counts that are not integers
    (a hand-edited ``110446.0`` or ``true``) or for a mode that is not the
    one the plan's geometry gives (``transport_mode``)."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"plan version {version!r} does not match {FORMAT_VERSION!r}")
    cfg = NetworkConfig(**{k[4:]: doc[k] for k in doc if k.startswith("cfg_")})
    target = SecrecyTarget(secure_rate=doc["target_secure_rate"],
                           outage=doc["target_outage"],
                           rho=doc["target_rho"], kappa=doc["target_kappa"])
    fields = ("a_l", "a_l_raw", "a_e", "n_r", "lambda_l_min", "lambda_e_max",
              "n_e_max", "eta", "nu", "eps_prime", "mode")
    p = Plan(**{k: doc[k] for k in fields})
    for name in ("n_r", "n_e_max"):
        value = getattr(p, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    mode = transport_mode(cfg.d_tr, p.a_l)
    if p.mode != mode:
        raise ValueError(f"mode {p.mode!r} does not match the geometry "
                         f"(d_tr={cfg.d_tr!r}, a_l={p.a_l!r} give {mode!r})")
    return cfg, target, p
