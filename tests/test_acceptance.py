"""End-to-end acceptance gate.

Each test covers one headline guarantee of the design pipeline or its
verifiers at the reference operating point (P_T=1, mu=0.5, gamma=2, d_TR=5,
R_S=0.5, eps=0.35) and prints a single pass/fail line.  The simulation-backed
criteria run at full scale, so this module dominates the suite's runtime.
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from secbeam.beamform import received_powers
from secbeam.geometry import NetworkConfig
from secbeam import moments
from secbeam.montecarlo import (estimate_outage, verify_moments,
                                verify_power_bounds)
from secbeam.planner import SecrecyTarget, a_e_min, plan, validate_plan

from test_beamform import realization_of
from test_planner import a_e_layer_fixed_point

SIDE = 20.0
REFERENCE_KWARGS = dict(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def _sim_config(p, lambda_l=None, lambda_e=None):
    lam_l = p.lambda_l_min if lambda_l is None else lambda_l
    lam_e = p.lambda_e_max if lambda_e is None else lambda_e
    return NetworkConfig(lambda_l=lam_l, lambda_e=lam_e,
                         n_legit=math.ceil(lam_l * SIDE * SIDE),
                         **REFERENCE_KWARGS)


def test_criterion_1_planner_closure(reference_plan, reference_target):
    probe = NetworkConfig(lambda_l=1.0, lambda_e=0.0, n_legit=1,
                          **REFERENCE_KWARGS)
    t0 = time.time()
    p = plan(probe, reference_target)
    elapsed = time.time() - t0
    checks = validate_plan(probe, reference_target, p)
    ok = (elapsed < 1.0 and p == reference_plan and len(checks) == 7
          and all(c.satisfied and c.margin > 0 for c in checks))
    _report(1, "planner closure", ok)
    assert elapsed < 1.0
    for c in checks:
        assert c.satisfied and c.margin > 0, c


def test_criterion_2_outage_budgets(reference_plan, reference_target):
    n_trials = 10_000
    cfg = _sim_config(reference_plan)
    report = estimate_outage(reference_plan, cfg, reference_target,
                             n_trials, seed=2024)
    eps_prime = reference_target.eps_prime
    budgets = {"E1": eps_prime, "E2": eps_prime, "E3": eps_prime,
               "E4": 2 * eps_prime, "E5": eps_prime, "E6": eps_prime,
               "E7": eps_prime}
    failures = []
    for name, budget in budgets.items():
        allowed = budget + 3 * math.sqrt(budget * (1 - budget) / n_trials)
        got = report.event_outage[name].outage
        if got > allowed:
            failures.append(f"{name}: {got:.4f} > {allowed:.4f}")
    if report.composite.outage > reference_target.outage:
        failures.append(f"composite: {report.composite.outage:.4f} > "
                        f"{reference_target.outage}")
    _report(2, "outage budgets", not failures)
    assert not failures, failures


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.0])
def test_criterion_3_moment_exactness(mu):
    failures = []
    for n_r in (1, 2, 3, 8, 32):
        for c in verify_moments(mu, n_r, n_samples=1_000_000,
                                seed=300 + n_r):
            if abs(c.z_score) > 5.0:
                failures.append(f"n_r={n_r} {c.name} z={c.z_score:+.2f}")
    spot_ok = (moments.mean_pl_nopath(1, 0.5) == pytest.approx(2.0)
               and moments.var_pl_nopath(1, 0.5) == pytest.approx(20.0)
               and moments.var_pe_nopath(1, 0.5) == pytest.approx(3.0)
               and moments.var_pe_nopath(3, 0.5) == pytest.approx(5.0 / 3.0))
    _report(3, f"moment exactness (mu={mu})", not failures and spot_ok)
    assert spot_ok
    assert not failures, failures


def test_criterion_4_power_bound_directions(reference_plan):
    cfg = _sim_config(reference_plan)
    checks = verify_power_bounds(reference_plan, cfg, n_samples=100_000,
                                 seed=4)
    bad = [f"{c.name}: estimate {c.estimate:.6g} vs bound {c.bound:.6g}"
           for c in checks if not c.respected]
    _report(4, "received-power bound directions", not bad)
    assert len(checks) == 4
    assert not bad, bad


def test_criterion_5_variance_inequality_suites():
    rng = np.random.default_rng(5)
    failures = []

    # third-moment inequality: exact moments of 10^3 random instances
    for i in range(1000):
        dist = moments.random_distribution(rng)
        if moments.third_moment_gap(dist) < -1e-12:
            failures.append(f"third-moment gap negative at instance {i}")

    # weighted variance cap: 10^3 random (a, b, family) triples, sampled
    # with a 5-standard-error allowance, plus the exact closed form
    for i in range(1000):
        dist = moments.random_distribution(rng)
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(a + 0.05, 2.0)
        lhs, rhs = moments.weighted_variance_exact(a, b, dist)
        if not lhs < rhs:
            failures.append(f"exact variance cap fails at instance {i}")
        chk = moments.weighted_variance_check(a, b, dist, 2000, rng)
        if chk.var_lhs >= chk.var_rhs + 5.0 * chk.se_diff:
            failures.append(f"sampled variance cap fails at instance {i}")

    # exact enumeration over the four-point joint support of two-point laws
    for i in range(200):
        d = moments.TwoPointDist(rng.uniform(0.0, 1.0), rng.uniform(1.1, 4.0),
                                 rng.uniform(0.05, 0.95))
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(a + 0.05, 2.0)
        pairs = list(itertools.product(d.support(), repeat=2))
        probs = np.array([px * py for (_, px), (_, py) in pairs])
        vals = np.array([(a * x + b * y) ** 2 for (x, _), (y, _) in pairs])
        var_lhs = float(np.sum(vals ** 2 * probs) - np.sum(vals * probs) ** 2)
        vals_r = np.array([(x + y) ** 2 for (x, _), (y, _) in pairs])
        var_rhs = b ** 4 * float(np.sum(vals_r ** 2 * probs)
                                 - np.sum(vals_r * probs) ** 2)
        if not var_lhs < var_rhs + 1e-12:
            failures.append(f"enumerated two-point cap fails at instance {i}")

    _report(5, "variance inequality suites", not failures)
    assert not failures, failures[:5]


def test_criterion_6_eavesdropper_radius_consistency():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.0, n_legit=1,
                        **REFERENCE_KWARGS)
    failures = []
    for eps in (1e-4, 1e-3, 1e-2, 0.05, 0.1):
        target = SecrecyTarget(secure_rate=0.5, outage=7 * eps)
        got = a_e_min(cfg, target)
        expanded = ((cfg.p_t * cfg.mu) ** (1.0 / cfg.gamma)
                   / (2 ** (target.rho * target.secure_rate) - 1)
                   ** (1.0 / cfg.gamma)
                   * (math.log(-math.log((1 - eps) ** 6) / eps)
                      + math.sqrt(2 * eps / (-math.log((1 - eps) ** 3)) ** 3)))
        if abs(got - expanded) > 1e-12 * expanded:
            failures.append(f"eps'={eps}: {got!r} vs {expanded!r}")
        per_layer = [a_e_layer_fixed_point(target, cfg, k)
                     for k in range(1, 16)]
        if int(np.argmax(per_layer)) != 0:
            failures.append(f"eps'={eps}: binding layer is "
                            f"{np.argmax(per_layer) + 1}, not 1")
    _report(6, "eavesdropper-free radius consistency", not failures)
    assert not failures, failures


def test_criterion_7_beamforming_oracle_equivalence():
    rng = np.random.default_rng(7)
    failures = 0
    for i in range(1000):
        n_r = int(rng.integers(1, 12))
        n_e = int(rng.integers(0, 5))
        scale = math.sqrt(0.5)
        # raw links: receiver links with phases theta_i, eavesdropper links
        # with phases phi_ij
        d_rx = rng.uniform(0.5, 2.0, n_r)
        h_rx = rng.rayleigh(scale, n_r)
        theta = rng.uniform(0, 2 * math.pi, n_r)
        d_e = rng.uniform(0.5, 2.0, (n_e, n_r))
        h_e = rng.rayleigh(scale, (n_e, n_r))
        phi = rng.uniform(0, 2 * math.pi, (n_e, n_r))
        # then the stage-1 links, which stage 2 does not read (the relay
        # magnitudes toward the transmitter are 1, not drawn)
        ch = SimpleNamespace(
            d_rx=d_rx, h_rx=h_rx, theta=theta, d_e=d_e, h_e=h_e, phi=phi,
            d_tx=rng.uniform(0.5, 2.0, n_r), h_tx=np.ones(n_r),
            e_tx=rng.uniform(0.5, 2.0, n_e), eh_tx=rng.rayleigh(scale, n_e))
        # the production stage 2 on the links reduced, in float64, to the
        # sums a sampled realization carries
        p = received_powers(realization_of(ch), 1.3)
        # raw complex expansion |sum_i w_i g_i|^2 * p_t
        w = d_rx ** -1.0 * h_rx * np.exp(-1j * theta) / math.sqrt(n_r)
        g_rx = d_rx ** -1.0 * h_rx * np.exp(1j * theta)
        p_l = abs(np.dot(w, g_rx)) ** 2 * 1.3
        g_e = d_e ** -1.0 * h_e * np.exp(1j * phi)
        p_e = np.abs(g_e @ w) ** 2 * 1.3
        if abs(p.p_l - p_l) > 1e-12 * max(p_l, 1e-300):
            failures += 1
        elif n_e and np.any(np.abs(p.p_e - p_e) > 1e-12 * np.maximum(p_e, 1e-300)):
            failures += 1
    _report(7, "beamforming oracle equivalence", failures == 0)
    assert failures == 0


def test_criterion_8_density_scaling(reference_plan, reference_target):
    p = reference_plan
    base = plan(NetworkConfig(lambda_l=1.0, lambda_e=0.0, n_legit=1,
                              **REFERENCE_KWARGS), reference_target)
    failures = []
    mean_powers = []
    for decade, factor in enumerate((1.0, 10.0, 100.0, 1000.0)):
        lam_l = p.lambda_l_min * factor
        # the geometry must not move as the legitimate density grows
        probe = NetworkConfig(lambda_l=lam_l, lambda_e=0.0, n_legit=1,
                              **REFERENCE_KWARGS)
        swept = plan(probe, reference_target)
        if (swept.n_r, swept.a_l, swept.a_e, swept.lambda_e_max) != \
                (base.n_r, base.a_l, base.a_e, base.lambda_e_max):
            failures.append(f"geometry moved at density factor {factor}")
        if lam_l < swept.lambda_l_min:
            failures.append(f"density factor {factor} infeasible")
        cfg = _sim_config(p, lambda_l=lam_l)
        report = estimate_outage(p, cfg, reference_target, 250,
                                 seed=800 + decade)
        mean_powers.append(report.mean_total_relay_power)
    # bounded total relay power: far below the transmit power at every
    # density, with no growth across three decades
    if not all(mp < 0.5 * REFERENCE_KWARGS["p_t"] for mp in mean_powers):
        failures.append(f"total relay power not bounded: {mean_powers}")
    if max(mean_powers) > 2.0 * min(mean_powers):
        failures.append(f"total relay power drifts with density: {mean_powers}")
    _report(8, "density scaling at fixed geometry", not failures)
    assert not failures, failures
