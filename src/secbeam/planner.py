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

import json
import math
import os
from dataclasses import dataclass, asdict

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

    ``a_l`` is the working relay radius (half the raw bound value), ``mode``
    is "direct" when the receiver is close enough that relaying is not
    needed, else "beamforming".
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
class LayerBudget:
    """Per-layer pieces of the annulus union bound at layer k."""

    k: int
    beta_k: float
    eps_k: float
    t_k: float
    count_cap: float
    a_e_k: float


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
    denom = 2.0 ** ((1.0 + target.rho) * target.secure_rate) - 1.0
    if denom <= 0:
        raise InfeasiblePlanError("a_l_bound", "rate threshold denominator <= 0")
    return ((-cfg.p_t * cfg.mu * math.log1p(-frac)) / denom) ** (1.0 / cfg.gamma)


def t_slack(beta_k: float, eps_prime: float, lambda_e: float, s_k: float) -> float:
    """Chebyshev slack factor sqrt(beta_k / (eps' * lambda_e * S_k)) for the
    per-layer eavesdropper count cap."""
    if min(beta_k, eps_prime, lambda_e, s_k) <= 0:
        raise ValueError("all arguments must be positive")
    return math.sqrt(beta_k / (eps_prime * lambda_e * s_k))


def a_e_layer(cfg: NetworkConfig, target: SecrecyTarget, k: int,
              lambda_e: float, t_k: float, s_k: float) -> float:
    """Lower bound on a_e imposed by layer k:
    2**-(k-1) * ((-p_t*mu/(2**(rho*R_S)-1)) * ln(eps'/(2**k*lambda_e*(1+t_k)*S_k)))**(1/gamma).

    ``s_k`` is the layer area; it must be supplied because it scales with the
    a_e being bounded (see a_e_layer_fixed_point for the self-consistent
    evaluation at the maximum eavesdropper density, where the product
    lambda_e*S_k is a_e-free).
    """
    if k < 1:
        raise ValueError(f"layer index must be >= 1, got {k}")
    arg = target.eps_prime / (2.0 ** k * lambda_e * (1.0 + t_k) * s_k)
    if not 0 < arg < 1:
        raise InfeasiblePlanError("a_e_bound", f"layer {k} bound degenerate (ln arg {arg})")
    pref = cfg.p_t * cfg.mu / (2.0 ** (target.rho * target.secure_rate) - 1.0)
    return 2.0 ** (-(k - 1)) * (pref * (-math.log(arg))) ** (1.0 / cfg.gamma)


def a_e_layer_fixed_point(target: SecrecyTarget, cfg: NetworkConfig, k: int) -> float:
    """Layer-k lower bound on a_e at the self-consistent operating point
    (beta_k = 2**k, lambda_e at its maximum -ln(1-eps')/(pi*a_e**2)).

    At that point the product lambda_e*S_k = -3*ln(1-eps')*4**(k-1) no
    longer involves a_e, so the bound becomes explicit and can be compared
    across layers; the first layer is the binding one.
    """
    eps = target.eps_prime
    lam_sk = -3.0 * math.log1p(-eps) * 4.0 ** (k - 1)  # lambda_e_max * S_k
    t_k = t_slack(2.0 ** k, eps, 1.0, lam_sk)
    arg = eps / (2.0 ** k * lam_sk * (1.0 + t_k))
    if arg >= 1:
        raise InfeasiblePlanError("a_e_bound", f"layer {k} bound degenerate")
    pref = (cfg.p_t * cfg.mu / (2.0 ** (target.rho * target.secure_rate) - 1.0))
    return 2.0 ** (-(k - 1)) * (pref * (-math.log(arg))) ** (1.0 / cfg.gamma)


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
    pref = (cfg.p_t * cfg.mu) ** (1.0 / cfg.gamma) / (
        2.0 ** (target.rho * target.secure_rate) - 1.0) ** (1.0 / cfg.gamma)
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
    nu**2 = Var(P_l)/1 = 20*(2*mu)**4.  Evaluating the exact formulas at
    n = 1, rather than writing 8*sqrt(5)*mu**2, keeps nu bit-identical to a
    scan of those formulas over n.
    """
    return math.sqrt(max(moments.var_pl_nopath(1, mu),
                         moments.var_pe_nopath(1, mu)))


def n_r_bound_general(cfg: NetworkConfig, target: SecrecyTarget, eta: float,
                      nu: float, a_l: float) -> float:
    """Real-valued stage-2 legitimate-rate bound on n_r with the exact
    distance envelope (d_tr -+ a_l); n_r must strictly exceed it."""
    if cfg.d_tr <= a_l:
        raise InfeasiblePlanError("n_r_bound", f"d_tr={cfg.d_tr} <= a_l={a_l}")
    eps = target.eps_prime
    near = cfg.d_tr - a_l
    far = cfg.d_tr + a_l
    g = cfg.gamma
    zeta = (nu * nu / eps
            + 4.0 * eta * far ** (-2 * g) / (cfg.p_t * near ** (-4 * g))
            * (2.0 ** ((1.0 + target.kappa) * target.secure_rate) - 1.0))
    return (near ** (-4 * g) / (4.0 * eta * eta * far ** (-4 * g))) * (
        nu / math.sqrt(eps) + math.sqrt(zeta)) ** 2


def n_r_min_general(cfg: NetworkConfig, target: SecrecyTarget, eta: float,
                    nu: float, a_l: float) -> int:
    """Smallest integer relay count strictly above the general bound."""
    return math.ceil(n_r_bound_general(cfg, target, eta, nu, a_l)) + 1


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
    """Smallest integer relay count strictly above the simplified bound."""
    return math.ceil(n_r_bound_simplified(cfg, target, eta, nu)) + 1


def n_e_cap(cfg: NetworkConfig, target: SecrecyTarget, eta: float, nu: float,
            a_l: float, a_e: float) -> int:
    """Largest network-wide eavesdropper count for which the stage-2
    eavesdropper-rate Chebyshev bound holds:
    eps' * ((2**(kappa*R_S) - eta*A*p_t - 1) / (nu*A*p_t))**2,
    A = (a_e-a_l)**(-gamma) * (d_tr-a_l)**(-gamma)."""
    if a_e <= a_l:
        raise InfeasiblePlanError("n_e_bound", f"a_e={a_e} <= a_l={a_l}")
    if cfg.d_tr <= a_l:
        raise InfeasiblePlanError("n_e_bound", f"d_tr={cfg.d_tr} <= a_l={a_l}")
    a_fact = (a_e - a_l) ** (-cfg.gamma) * (cfg.d_tr - a_l) ** (-cfg.gamma)
    numer = 2.0 ** (target.kappa * target.secure_rate) - eta * a_fact * cfg.p_t - 1.0
    if numer <= 0:
        raise InfeasiblePlanError(
            "n_e_bound", "scheme infeasible at this geometry (rate threshold "
            "below the mean eavesdropper power bound)")
    bound = target.eps_prime * (numer / (nu * a_fact * cfg.p_t)) ** 2
    cap = math.floor(bound)
    if cap == bound:  # strict inequality
        cap -= 1
    return max(cap, 0)


def lambda_l_min(eps_prime: float, n_r: int, a_l: float) -> float:
    """Smallest legitimate density putting n_r relays in the recruitment disc
    with outage eps': beta_l * n_r / (pi * a_l**2)."""
    if eps_prime <= 0 or n_r < 1 or a_l <= 0:
        raise ValueError("eps_prime, n_r, a_l must be positive")
    x = 1.0 / (2.0 * eps_prime * n_r)
    beta_l = 1.0 + x + math.sqrt((1.0 + x) ** 2 - 1.0)
    return beta_l * n_r / (math.pi * a_l * a_l) * (1.0 + STRICT_MARGIN)


def lambda_e_max(eps_prime: float, a_e: float) -> float:
    """Largest eavesdropper density keeping the disc of radius a_e empty with
    probability 1 - eps': -ln(1 - eps')/(pi * a_e**2)."""
    if not 0 < eps_prime < 1:
        raise ValueError(f"eps_prime must be in (0, 1), got {eps_prime}")
    if a_e <= 0:
        raise ValueError("a_e must be positive")
    return -math.log1p(-eps_prime) / (math.pi * a_e * a_e) * (1.0 - STRICT_MARGIN)


def layer_budgets(cfg: NetworkConfig, target: SecrecyTarget, a_e: float,
                  lambda_e: float, n_layers: int) -> list[LayerBudget]:
    """Per-layer union-bound bookkeeping at beta_k = 2**k for diagnostics."""
    from .geometry import layer_area
    eps = target.eps_prime
    out = []
    for k in range(1, n_layers + 1):
        beta_k = 2.0 ** k
        s_k = layer_area(k, a_e)
        t_k = t_slack(beta_k, eps, lambda_e, s_k)
        out.append(LayerBudget(
            k=k, beta_k=beta_k, eps_k=eps / 2.0 ** k, t_k=t_k,
            count_cap=(1.0 + t_k) * lambda_e * s_k,
            a_e_k=a_e_layer_fixed_point(target, cfg, k)))
    return out


def plan(cfg: NetworkConfig, target: SecrecyTarget) -> Plan:
    """Run the full selection pipeline in its prescribed order.

    Order: moment constants, relay count (simplified bound), relay radius
    (halved), minimum legitimate density, eavesdropper-free radius, maximum
    eavesdropper density, eavesdropper count cap, and finally the transport
    mode.  Any infeasible sub-bound raises InfeasiblePlanError naming it.
    """
    eta = eta_constant(cfg.mu)
    nu = nu_constant(cfg.mu)
    n_r = n_r_min_simplified(cfg, target, eta, nu)
    a_l_raw = a_l_upper(cfg, target, n_r) * (1.0 - STRICT_MARGIN)
    a_l = a_l_raw / 2.0
    lam_l = lambda_l_min(target.eps_prime, n_r, a_l)
    a_e = a_e_min(cfg, target) * (1.0 + STRICT_MARGIN)
    lam_e = lambda_e_max(target.eps_prime, a_e)
    mode = "direct" if cfg.d_tr <= 2.0 * a_l else "beamforming"
    if mode == "beamforming":
        n_e = n_e_cap(cfg, target, eta, nu, a_l, a_e)
    else:
        n_e = n_e_cap(cfg, target, eta, nu, 0.0, a_e)
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
    eps = target.eps_prime

    upper = a_l_upper(cfg, target, p.n_r)
    checks.append(ConstraintCheck("a_l_bound", p.a_l_raw < upper, upper - p.a_l_raw))

    ae_req = a_e_min(cfg, target)
    checks.append(ConstraintCheck("a_e_bound", p.a_e >= ae_req, p.a_e - ae_req))

    nr_bound = n_r_bound_simplified(cfg, target, p.eta, p.nu)
    checks.append(ConstraintCheck("n_r_bound", p.n_r > nr_bound, p.n_r - nr_bound))

    if p.mode == "beamforming":
        ne_arg_al = p.a_l
    else:
        ne_arg_al = 0.0
    a_fact = (p.a_e - ne_arg_al) ** (-cfg.gamma) * (cfg.d_tr - ne_arg_al) ** (-cfg.gamma)
    numer = 2.0 ** (target.kappa * target.secure_rate) - p.eta * a_fact * cfg.p_t - 1.0
    if numer > 0:
        ne_bound = eps * (numer / (p.nu * a_fact * cfg.p_t)) ** 2
        checks.append(ConstraintCheck("n_e_bound", p.n_e_max < ne_bound,
                                      ne_bound - p.n_e_max))
    else:
        checks.append(ConstraintCheck("n_e_bound", False, numer))

    x = 1.0 / (2.0 * eps * p.n_r)
    lam_l_req = (1.0 + x + math.sqrt((1.0 + x) ** 2 - 1.0)) * p.n_r / (math.pi * p.a_l ** 2)
    checks.append(ConstraintCheck("lambda_l_bound", p.lambda_l_min > lam_l_req,
                                  p.lambda_l_min - lam_l_req))

    lam_e_cap = -math.log1p(-eps) / (math.pi * p.a_e ** 2)
    checks.append(ConstraintCheck("lambda_e_bound", p.lambda_e_max < lam_e_cap,
                                  lam_e_cap - p.lambda_e_max))

    checks.append(ConstraintCheck("inner_radius_assumption",
                                  p.mode == "direct" or p.a_l < cfg.d_tr / 2.0,
                                  cfg.d_tr / 2.0 - p.a_l))
    return checks


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def plan_document(cfg: NetworkConfig, target: SecrecyTarget, p: Plan) -> dict:
    """Flat key/value document: plan fields plus target and config echo."""
    doc = {"format_version": FORMAT_VERSION}
    doc.update(asdict(p))
    doc.update({f"target_{k}": v for k, v in asdict(target).items()})
    doc["target_eps_prime"] = target.eps_prime
    doc.update({f"cfg_{k}": v for k, v in asdict(cfg).items()})
    return doc


def save_plan(path, cfg: NetworkConfig, target: SecrecyTarget, p: Plan,
              extra: dict | None = None) -> None:
    doc = plan_document(cfg, target, p)
    if extra:
        doc.update(extra)
    # Overwrite in place, then cut off any old tail.  Opening with O_TRUNC
    # instead makes ext4 start writeback when a file emptied that way is
    # closed, and the next save's truncation then waits for that disk write.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
        fh.truncate()


def load_plan(path) -> tuple[NetworkConfig, SecrecyTarget, Plan]:
    """Read a file written by ``save_plan``.  Raises ValueError for another
    format version or for relay/eavesdropper counts that are not integers
    (a hand-edited ``110446.0`` or ``true``)."""
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
    return cfg, target, p
