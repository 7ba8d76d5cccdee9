import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secbeam.geometry import NetworkConfig
from secbeam import moments
from secbeam import planner
from secbeam.planner import (InfeasiblePlanError, SecrecyTarget, a_e_min,
                             a_l_upper, eta_constant, lambda_e_max,
                             lambda_l_min, n_e_cap, n_r_min_simplified,
                             nu_constant, plan, validate_plan)


def make_cfg(**kw):
    base = dict(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0, lambda_l=1.0,
                lambda_e=0.0, n_legit=1)
    base.update(kw)
    return NetworkConfig(**base)


def make_target(rate=0.5, outage=0.35, rho=1.0, kappa=1.0):
    return SecrecyTarget(secure_rate=rate, outage=outage, rho=rho, kappa=kappa)


def test_target_validation():
    with pytest.raises(ValueError):
        SecrecyTarget(secure_rate=0.0, outage=0.1)
    with pytest.raises(ValueError):
        SecrecyTarget(secure_rate=1.0, outage=0.0)
    with pytest.raises(ValueError):
        SecrecyTarget(secure_rate=1.0, outage=1.0)
    with pytest.raises(ValueError):
        SecrecyTarget(secure_rate=1.0, outage=0.1, rho=0.0)
    t = SecrecyTarget(secure_rate=1.0, outage=0.35)
    assert t.eps_prime == pytest.approx(0.05)
    assert 0 < t.eps_prime < 1 / 7


# --- relay radius bound ----------------------------------------------------

def test_a_l_upper_forced_unit():
    # every factor pinned to 1: P_T*mu = 1, denominator = 1, and a relay
    # count chosen so the log factor is exactly 1
    cfg = make_cfg(p_t=2.0, mu=0.5)
    t = SecrecyTarget(secure_rate=0.5, outage=0.7, rho=1.0)  # eps' = 0.1
    n_r = t.eps_prime / (1 - math.exp(-1.0))
    assert a_l_upper(cfg, t, n_r) == pytest.approx(1.0, rel=1e-12)
    cfg4 = make_cfg(p_t=2.0, mu=0.5, gamma=4.0)
    assert a_l_upper(cfg4, t, n_r) == pytest.approx(1.0, rel=1e-12)


def test_a_l_upper_oracle_value():
    # frozen 40-digit evaluation of the closed form
    cfg = make_cfg(p_t=1.0, mu=1.0)
    t = SecrecyTarget(secure_rate=0.5, outage=0.07, rho=1.0)  # eps' = 0.01
    assert a_l_upper(cfg, t, 100) == pytest.approx(
        0.010000250013542578, rel=1e-12)


def test_a_l_upper_rejects_degenerate():
    cfg = make_cfg()
    t = SecrecyTarget(secure_rate=0.5, outage=0.7)
    with pytest.raises(InfeasiblePlanError):
        a_l_upper(cfg, t, 0.09)  # eps'/n_r = 1.11 > 1


# --- layer machinery -------------------------------------------------------

def a_e_layer_fixed_point(target: SecrecyTarget, cfg: NetworkConfig, k: int) -> float:
    """Oracle: the layer-k lower bound on a_e at the self-consistent
    operating point (beta_k = 2**k, lambda_e at its maximum
    -ln(1-eps')/(pi*a_e**2)).

    At that point the product lambda_e*S_k = -3*ln(1-eps')*4**(k-1) no
    longer involves a_e, so the bound becomes explicit and can be compared
    across layers; the first layer is the binding one, which ``a_e_min``
    covers.
    """
    eps = target.eps_prime
    lam_sk = -3.0 * math.log1p(-eps) * 4.0 ** (k - 1)  # lambda_e_max * S_k
    t_k = math.sqrt(2.0 ** k / (eps * lam_sk))  # Chebyshev slack of the cap
    arg = eps / (2.0 ** k * lam_sk * (1.0 + t_k))
    if arg >= 1:
        raise InfeasiblePlanError("a_e_bound", f"layer {k} bound degenerate")
    pref = (cfg.p_t * cfg.mu / (2.0 ** (target.rho * target.secure_rate) - 1.0))
    return 2.0 ** (-(k - 1)) * (pref * (-math.log(arg))) ** (1.0 / cfg.gamma)


def test_layer_argmax_at_first_layer():
    # with beta_k = 2^k and the maximum eavesdropper density, the binding
    # layer is the first one
    cfg = make_cfg()
    for eps in (0.001, 0.01, 0.05):
        t = SecrecyTarget(secure_rate=0.5, outage=7 * eps)
        vals = [a_e_layer_fixed_point(t, cfg, k) for k in range(1, 13)]
        assert np.argmax(vals) == 0
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_a_e_min_oracle():
    # prefactor 1 at eps' = 0.01: frozen 40-digit values
    cfg = make_cfg(p_t=1.0, mu=math.sqrt(2) - 1)
    t = SecrecyTarget(secure_rate=0.5, outage=0.07, rho=1.0)
    assert cfg.p_t * cfg.mu == pytest.approx(2 ** 0.5 - 1)
    assert a_e_min(cfg, t) == pytest.approx(28.809123286801297, rel=1e-12)
    eps = 0.01
    c1 = -3 * math.log1p(-eps) / (4 * eps)
    assert c1 == pytest.approx(0.7537751890126081, rel=1e-12)


def test_a_e_min_power_scaling():
    cfg1 = make_cfg(p_t=1.0)
    cfg2 = make_cfg(p_t=2.0)
    t = make_target()
    assert a_e_min(cfg2, t) == pytest.approx(math.sqrt(2) * a_e_min(cfg1, t))


def test_a_e_min_equivalent_form():
    # the c1/c2 factorization against the fully expanded expression
    cfg = make_cfg()
    for eps in (1e-4, 1e-3, 1e-2, 0.05, 0.1):
        t = SecrecyTarget(secure_rate=0.5, outage=7 * eps)
        expanded = ((cfg.p_t * cfg.mu) ** 0.5
                   / (2 ** (t.rho * t.secure_rate) - 1) ** 0.5
                   * (math.log(-math.log((1 - eps) ** 6) / eps)
                      + math.sqrt(2 * eps / (-math.log((1 - eps) ** 3)) ** 3)))
        assert a_e_min(cfg, t) == pytest.approx(expanded, rel=1e-12)


# --- moment constants ------------------------------------------------------

def test_eta():
    assert eta_constant(0.5) == pytest.approx(1.0)
    assert eta_constant(1.0) == pytest.approx(4.0)
    assert eta_constant(1.5) / eta_constant(0.5) == pytest.approx(9.0)


def test_nu_small_cap():
    # n_r = 1: max(Var(P_l)/1, Var(P_e)) = max(20, 3) = 20 at mu = 0.5
    assert nu_constant(0.5) == pytest.approx(math.sqrt(20.0))


def nopath_variances(n, mu):
    """``moments.var_pl_nopath`` and ``var_pe_nopath`` over an array of
    relay counts, in their operation order, so each value equals theirs."""
    m2, m4, m6, m8 = (moments.rayleigh_moment(mu, k) for k in (2, 4, 6, 8))
    var_pl = (
        n * (m8 - m4 * m4)
        + 2 * n * (n - 1) * (m4 * m4 - m2 ** 4)
        + 4 * n * (n - 1) * (n - 2) * (m4 * m2 * m2 - m2 ** 4)
        + 4 * n * (n - 1) * (m6 * m2 - m4 * m2 * m2)
    ) / (n * n)
    return var_pl, (n - 1) / n * m2 ** 4 + (m4 * m4 - m2 ** 4) / n


def nu_scan(mu, cap):
    """Reference: nu from an exhaustive scan of the exact variance formulas
    over relay counts 1..cap."""
    n = np.arange(1, cap + 1, dtype=float)
    var_pl, var_pe = nopath_variances(n, mu)
    return math.sqrt(max(float(np.max(var_pl / n)), float(np.max(var_pe))))


@pytest.mark.parametrize("mu", [0.05, 0.25, 0.5, 1.0, 2.0, 7.3])
def test_nu_equals_scan(mu):
    # the scan reaches past the reference plan's n_r = 110446
    assert nu_constant(mu) == nu_scan(mu, 200_000)


def test_nu_certifies_scan():
    mu, cap = 0.5, 10_000
    nu = nu_constant(mu)
    n = np.arange(1, cap + 1, dtype=float)
    var_pl, var_pe = nopath_variances(n, mu)
    assert np.all(nu ** 2 >= var_pl / n - 1e-12)
    assert np.all(nu ** 2 >= var_pe - 1e-12)


# --- relay count bounds ----------------------------------------------------
# The general bound, with the exact distance envelope (d_tr -+ a_l), is the
# oracle of the simplified one the planner uses.

def n_r_bound_general(cfg, target, eta, nu, a_l):
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


def n_r_min_general(cfg, target, eta, nu, a_l):
    """Smallest integer relay count strictly above the general bound."""
    return math.ceil(n_r_bound_general(cfg, target, eta, nu, a_l)) + 1


def test_n_r_general_collapses_at_zero_radius():
    # hand algebra: R_S -> 0, nu=eta=1, eps'=1/9, a_l=0 gives
    # bound (1/4)(3+3)^2 = 9, so the count is 10
    cfg = make_cfg(d_tr=1.0)
    t = SecrecyTarget(secure_rate=1e-14, outage=7.0 / 9.0)
    assert abs(t.eps_prime - 1.0 / 9.0) < 1e-15
    assert n_r_bound_general(cfg, t, 1.0, 1.0, 0.0) == pytest.approx(9.0, rel=1e-12)
    # the residual rate term nudges the bound just above 9
    assert n_r_min_general(cfg, t, 1.0, 1.0, 0.0) in (10, 11)


def test_n_r_general_vs_simplified_at_zero_radius():
    # at a_l = 0 the general bound equals the simplified one without the
    # 81x prefactor
    cfg = make_cfg()
    t = make_target()
    general = n_r_bound_general(cfg, t, 1.0, 2.0, 0.0)
    simplified = planner.n_r_bound_simplified(cfg, t, 1.0, 2.0)
    assert simplified == pytest.approx(81.0 * general)


def test_n_r_simplified_oracle():
    # eta=nu=1, eps'=0.01, P_T=1, d_tr=1, gamma=2, (1+kappa)R_S=1:
    # bound = 20.25*(10+sqrt(104))^2 (frozen 40-digit evaluation)
    cfg = make_cfg(d_tr=1.0)
    t = SecrecyTarget(secure_rate=0.5, outage=0.07)
    bound = planner.n_r_bound_simplified(cfg, t, 1.0, 1.0)
    assert bound == pytest.approx(8261.205806010156, rel=1e-12)
    assert n_r_min_simplified(cfg, t, 1.0, 1.0) == 8263


def test_n_r_simplified_monotone_in_rate():
    cfg = make_cfg()
    bounds = [planner.n_r_bound_simplified(
        cfg, make_target(rate=r), 1.0, 1.0) for r in (0.25, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_n_r_simplified_r0_limit():
    # R_S -> 0 collapses to ceil(81*nu^2/(eps'*eta^2)) + 1
    cfg = make_cfg()
    t = SecrecyTarget(secure_rate=1e-14, outage=0.35)
    nu = 2.0
    expect = math.ceil(81.0 * nu * nu / (t.eps_prime * 1.0)) + 1
    assert n_r_min_simplified(cfg, t, 1.0, nu) == expect


def test_n_r_general_requires_receiver_outside():
    cfg = make_cfg(d_tr=1.0)
    with pytest.raises(InfeasiblePlanError):
        n_r_min_general(cfg, make_target(), 1.0, 1.0, 1.5)


# --- eavesdropper count cap ------------------------------------------------

def test_n_e_cap_hand_case():
    # kappa*R_S = 1, eta*A*P_T = 0.5, nu*A*P_T = 0.5, eps' = 0.01:
    # ratio (2-0.5-1)/0.5 = 1, so the cap floors 0.01 to 0
    cfg = make_cfg(p_t=1.0, d_tr=2.0, gamma=2.0)
    t = SecrecyTarget(secure_rate=1.0, outage=0.07, kappa=1.0)
    # choose a_l=0, a_e so that A = (a_e)^-2 * 2^-2 and eta=0.5/A, nu same
    a_e = 1.0
    a_fact = a_e ** -2.0 * 2.0 ** -2.0
    eta = 0.5 / a_fact
    nu = 0.5 / a_fact
    assert n_e_cap(cfg, t, eta, nu, 0.0, a_e) == 0
    # with nu/100 the cap is 0.01*100^2 = 100 exactly; the strict-inequality
    # requirement knocks it down to 99.  nu/25 gives floor(6.25) = 6.
    assert n_e_cap(cfg, t, eta, nu / 100.0, 0.0, a_e) == 99
    assert n_e_cap(cfg, t, eta, nu / 25.0, 0.0, a_e) == 6


def test_n_e_cap_infeasible_numerator():
    cfg = make_cfg(d_tr=1.001, p_t=100.0)
    t = SecrecyTarget(secure_rate=0.1, outage=0.07)
    with pytest.raises(InfeasiblePlanError):
        n_e_cap(cfg, t, 10.0, 1.0, 1.0, 1.01)


# --- Poisson density bounds ------------------------------------------------

def test_lambda_l_min_perfect_square():
    # 1/(2 eps' n_r) = 9/8 makes beta_l = 4 exactly
    eps, n_r = 1.0 / 9.0, 4
    assert 1.0 / (2 * eps * n_r) == pytest.approx(9.0 / 8.0)
    val = lambda_l_min(eps, n_r, 1.0)
    assert val == pytest.approx(4.0 * n_r / math.pi, rel=1e-8)


def test_lambda_l_min_limit():
    # eps'*n_r -> infinity: beta_l -> 1
    val = lambda_l_min(0.5, 10_000_000, 1.0)
    assert val == pytest.approx(10_000_000 / math.pi, rel=1e-3)


def test_lambda_l_min_oracle():
    # frozen 40-digit beta_l at eps'=0.05, n_r=100
    val = lambda_l_min(0.05, 100, 1.0)
    assert val == pytest.approx(49.600878959116966, rel=1e-8)


def test_lambda_l_min_exceeds_naive():
    for eps, n_r in [(0.01, 10), (0.05, 100), (0.2, 3)]:
        assert lambda_l_min(eps, n_r, 2.0) * math.pi * 4.0 > n_r


def test_lambda_e_max_forced():
    eps = 1 - math.exp(-math.pi)
    assert lambda_e_max(eps, 1.0) == pytest.approx(1.0, rel=1e-8)


def test_lambda_e_max_small_eps_expansion():
    eps = 1e-6
    assert lambda_e_max(eps, 1.0) == pytest.approx(eps / math.pi, rel=1e-3)


def test_lambda_e_max_oracle():
    assert lambda_e_max(0.01, 28.8) == pytest.approx(3.8569652556386e-06, rel=1e-8)


def test_lambda_e_max_decreasing_in_radius():
    vals = [lambda_e_max(0.01, a) for a in (1.0, 2.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- pipeline --------------------------------------------------------------

def test_plan_reference(reference_plan):
    p = reference_plan
    assert p.mode == "beamforming"
    assert p.a_l == pytest.approx(p.a_l_raw / 2.0)
    assert p.a_e > p.a_l
    assert p.n_r >= 1
    assert p.lambda_l_min * math.pi * p.a_l ** 2 > p.n_r
    assert p.eta == pytest.approx(1.0)
    assert p.nu == pytest.approx(math.sqrt(20.0))


def test_plan_validates(reference_plan, reference_target):
    cfg = make_cfg()
    checks = validate_plan(cfg, reference_target, reference_plan)
    assert len(checks) == 7
    assert all(c.satisfied for c in checks)
    assert all(c.margin > 0 for c in checks)


def test_overprovisioned_density_still_valid(reference_plan, reference_target):
    cfg = make_cfg()
    p = dataclasses.replace(reference_plan,
                            lambda_l_min=2 * reference_plan.lambda_l_min)
    assert all(c.satisfied for c in validate_plan(cfg, reference_target, p))


def test_halved_a_e_flagged(reference_plan, reference_target):
    cfg = make_cfg()
    p = dataclasses.replace(reference_plan, a_e=reference_plan.a_e / 2)
    bad = {c.name for c in validate_plan(cfg, reference_target, p)
           if not c.satisfied}
    assert "a_e_bound" in bad


def test_removed_relay_flagged(reference_plan, reference_target):
    cfg = make_cfg()
    p = dataclasses.replace(reference_plan, n_r=reference_plan.n_r - 2)
    bad = {c.name for c in validate_plan(cfg, reference_target, p)
           if not c.satisfied}
    assert "n_r_bound" in bad


def test_plan_receiver_too_close_is_infeasible():
    # a receiver essentially on top of the transmitter sits deep inside the
    # protected disc, where the mean eavesdropper-power bound exceeds the
    # rate threshold and no eavesdropper count is tolerable
    cfg = make_cfg(d_tr=1e-6)
    with pytest.raises(InfeasiblePlanError) as exc:
        plan(cfg, make_target())
    assert exc.value.constraint == "n_e_bound"


@pytest.mark.parametrize("mu,rate,constraint", [
    (1e80, 0.5, "moment_constants"),    # E{H^8} overflows
    (1e-300, 0.5, "moment_constants"),  # eta underflows to 0
    (1e-100, 0.5, "moment_constants"),  # eta > 0, but eta**2 underflows
    (1e-80, 0.5, "n_r_bound"),          # eta**2 subnormal: the bound is inf
    (1e76, 0.5, "n_r_bound"),           # the bound's square overflows
    (0.5, 1e10, "n_r_bound"),
])
def test_plan_outside_float_range_is_infeasible(mu, rate, constraint):
    with pytest.raises(InfeasiblePlanError) as exc:
        plan(make_cfg(mu=mu), make_target(rate=rate))
    assert exc.value.constraint == constraint


def test_a_e_independent_of_densities_and_extent():
    t = make_target()
    base = plan(make_cfg(), t).a_e
    assert plan(make_cfg(lambda_l=123.0, n_legit=10_000), t).a_e == base
    assert plan(make_cfg(lambda_e=0.1), t).a_e == base


@settings(max_examples=30, deadline=None)
@given(rate=st.floats(min_value=0.1, max_value=2.0),
       outage=st.floats(min_value=0.05, max_value=0.6))
def test_plan_closure_property(rate, outage):
    cfg = make_cfg()
    t = SecrecyTarget(secure_rate=rate, outage=outage)
    p = plan(cfg, t)
    assert all(c.satisfied for c in validate_plan(cfg, t, p))


def test_a_l_upper_decreasing_in_rate_and_relays():
    cfg = make_cfg()
    vals = [a_l_upper(cfg, make_target(rate=r), 100) for r in (0.25, 0.5, 1.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    t = make_target()
    vals = [a_l_upper(cfg, t, n) for n in (10, 100, 1000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- serialization ---------------------------------------------------------

def test_plan_round_trip(tmp_path, reference_plan, reference_target,
                         reference_config):
    path = tmp_path / "plan.json"
    planner.save_plan(path, reference_config, reference_target, reference_plan)
    cfg2, target2, plan2 = planner.load_plan(path)
    assert cfg2 == reference_config
    assert target2 == reference_target
    assert plan2 == reference_plan


def test_save_plan_overwrites_longer_file(tmp_path, reference_plan,
                                          reference_target, reference_config):
    import json
    path = tmp_path / "plan.json"
    path.write_text("x" * 10_000)
    planner.save_plan(path, reference_config, reference_target, reference_plan)
    doc = planner.plan_document(reference_config, reference_target, reference_plan)
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    assert planner.load_plan(path) == (reference_config, reference_target,
                                       reference_plan)


def test_open_output_cuts_only_a_written_file(tmp_path):
    # a file nothing was written to keeps its bytes; a written one loses
    # the old tail beyond the last write, and so does one left by an
    # exception; /dev/null, which seeks but holds nothing, is not cut
    kept, cut, failed = (tmp_path / name for name in ("kept", "cut", "failed"))
    for path in (kept, cut, failed):
        path.write_text("old text\n" * 100)
    with planner.open_output(kept):
        pass
    with planner.open_output(cut) as fh:
        fh.write("new\n")
    with pytest.raises(ZeroDivisionError):
        with planner.open_output(failed) as fh:
            fh.write("partial\n")
            1 / 0
    assert kept.read_text() == "old text\n" * 100
    assert cut.read_text() == "new\n"
    assert failed.read_text() == "partial\n"
    with planner.open_output("/dev/null") as fh:
        fh.write("discarded\n")


def test_write_plan_to_pipe(reference_plan, reference_target,
                            reference_config):
    # a stream that cannot seek, such as `secbeam plan --out /dev/stdout`
    # into a pipe, takes the document without a cut
    import json
    import os
    read_fd, write_fd = os.pipe()
    with open(read_fd) as reader:
        try:
            with planner.open_output(f"/dev/fd/{write_fd}") as fh:
                planner.write_plan(fh, reference_config, reference_target,
                                   reference_plan)
        finally:
            os.close(write_fd)
        doc = planner.plan_document(reference_config, reference_target,
                                    reference_plan)
        assert reader.read() == json.dumps(doc, indent=2) + "\n"


def test_plan_version_mismatch(tmp_path, reference_plan, reference_target,
                               reference_config):
    import json
    path = tmp_path / "plan.json"
    planner.save_plan(path, reference_config, reference_target, reference_plan)
    doc = json.loads(path.read_text())
    doc["format_version"] = "other"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        planner.load_plan(path)
