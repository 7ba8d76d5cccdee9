import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secbeam.moments import (PowerBounds, RayleighDist, TwoPointDist,
                             UniformMixtureDist, mean_pe_nopath,
                             mean_pl_nopath, mu4_pe_nopath, mu4_pl_nopath,
                             power_moment_bounds,
                             random_distribution, rayleigh_moment,
                             third_moment_gap, var_pe_nopath, var_pl_nopath,
                             weighted_variance_exact)


def brute_force_powers(n_r, mu, n_samples, rng):
    """Direct simulation of the unit-distance received powers.

    P_l = (sum h_i^2 / sqrt(n_r))^2, P_e = |sum h_i g_i e^{j phi_i} /
    sqrt(n_r)|^2 with g_i a second independent magnitude and phi_i uniform.
    """
    h2 = rng.exponential(2 * mu, (n_samples, n_r))
    p_l = h2.sum(axis=1) ** 2 / n_r
    g = rng.rayleigh(math.sqrt(mu), (n_samples, n_r))
    phi = rng.uniform(0, 2 * math.pi, (n_samples, n_r))
    amp = (np.sqrt(h2) * g * np.exp(1j * phi)).sum(axis=1)
    p_e = np.abs(amp) ** 2 / n_r
    return p_l, p_e


# --- Rayleigh magnitude moments ---------------------------------------------

def test_rayleigh_moment_values():
    assert rayleigh_moment(0.5, 2) == pytest.approx(1.0)
    assert rayleigh_moment(0.5, 8) == pytest.approx(24.0)
    assert rayleigh_moment(0.7, 0) == pytest.approx(1.0)


def test_rayleigh_moment_even_identity():
    # E{H^{2k}} = (2*mu)^k * k!
    for mu in (0.25, 0.5, 2.0):
        for k in range(1, 5):
            assert rayleigh_moment(mu, 2 * k) == pytest.approx(
                (2 * mu) ** k * math.factorial(k))


@given(mu=st.floats(min_value=1e-3, max_value=1e3))
def test_third_moment_dominates(mu):
    # E{H^3} >= E{H^2} E{H} for any nonnegative variable
    assert rayleigh_moment(mu, 3) >= rayleigh_moment(mu, 2) * rayleigh_moment(mu, 1)


# --- exact spot values at mu = 0.5 (E{H^2} = 1) ----------------------------

def test_mean_pl_spot_values():
    assert mean_pl_nopath(1, 0.5) == pytest.approx(2.0)
    assert mean_pl_nopath(10, 0.5) == pytest.approx(11.0)


def test_mean_pe_spot_value():
    assert mean_pe_nopath(0.5) == pytest.approx(1.0)


def test_var_pl_spot_values():
    # single relay: Var{H^4} = E{H^8} - E{H^4}^2 = 24 - 4 = 20
    assert var_pl_nopath(1, 0.5) == pytest.approx(20.0)
    # n_r=2: (1/4)(2*20 + 2*2*3 + 0 + 4*2*(6-2)) = 21, confirmed by direct
    # simulation of ((h_1^2+h_2^2)/sqrt(2))^2
    assert var_pl_nopath(2, 0.5) == pytest.approx(21.0)


def test_var_pe_spot_values():
    assert var_pe_nopath(1, 0.5) == pytest.approx(3.0)
    assert var_pe_nopath(3, 0.5) == pytest.approx(5.0 / 3.0)


@pytest.mark.parametrize("n", [1, 2, 3, 32])
def test_central_moments_match_the_raw_moment_expansion(n):
    # in units of 2*mu, S = sum_i h_i**2 ~ Gamma(n, 1) has the raw moments
    # E{S**k} = n(n+1)...(n+k-1); P_l = S**2/n and P_e = Exp(1)*S/n
    def s_raw(k):
        return math.prod(Fraction(n + i) for i in range(k))

    def central(raw):  # the variance and the fourth central moment
        m = raw(1)
        return (raw(2) - m * m,
                raw(4) - 4 * m * raw(3) + 6 * m * m * raw(2) - 3 * m ** 4)

    var_l, mu4_l = central(lambda k: s_raw(2 * k) / Fraction(n) ** k)
    var_e, mu4_e = central(lambda k: math.factorial(k) * s_raw(k) / Fraction(n) ** k)
    assert var_pl_nopath(n, 0.5) == pytest.approx(float(var_l), rel=1e-14)
    assert var_pe_nopath(n, 0.5) == pytest.approx(float(var_e), rel=1e-14)
    assert mu4_pl_nopath(n) == pytest.approx(float(mu4_l), rel=1e-14)
    assert mu4_pe_nopath(n) == pytest.approx(float(mu4_e), rel=1e-14)


def test_moments_reject_bad_n_r():
    with pytest.raises(ValueError):
        mean_pl_nopath(0, 0.5)
    with pytest.raises(ValueError):
        var_pl_nopath(0, 0.5)
    with pytest.raises(ValueError):
        var_pe_nopath(0, 0.5)


def test_var_pe_limit():
    # n_r -> infinity: Var{P_e} -> E{H^2}^4
    mu = 0.8
    assert var_pe_nopath(10 ** 9, mu) == pytest.approx(
        rayleigh_moment(mu, 2) ** 4, rel=1e-6)


@given(mu=st.floats(min_value=0.05, max_value=5.0),
       n_r=st.integers(min_value=1, max_value=10 ** 6))
def test_variances_positive(mu, n_r):
    assert var_pl_nopath(n_r, mu) > 0
    assert var_pe_nopath(n_r, mu) > 0


def test_mu_scaling():
    # both powers scale as mu^2, so every moment picks up powers of mu
    for n_r in (1, 5):
        assert mean_pl_nopath(n_r, 1.0) == pytest.approx(4 * mean_pl_nopath(n_r, 0.5))
        assert var_pl_nopath(n_r, 1.0) == pytest.approx(16 * var_pl_nopath(n_r, 0.5))
        assert var_pe_nopath(n_r, 1.0) == pytest.approx(16 * var_pe_nopath(n_r, 0.5))


# --- Monte Carlo cross-checks of the closed forms --------------------------

@pytest.mark.parametrize("n_r,mu", [(1, 0.5), (3, 0.5), (8, 1.0)])
def test_closed_forms_match_simulation(n_r, mu):
    rng = np.random.default_rng(100 + n_r)
    n_samples = 200_000
    p_l, p_e = brute_force_powers(n_r, mu, n_samples, rng)

    se_mean_l = p_l.std(ddof=1) / math.sqrt(n_samples)
    assert abs(p_l.mean() - mean_pl_nopath(n_r, mu)) < 5 * se_mean_l

    se_mean_e = p_e.std(ddof=1) / math.sqrt(n_samples)
    assert abs(p_e.mean() - mean_pe_nopath(mu)) < 5 * se_mean_e

    # standard error of a sample variance: sqrt((m4c - var^2)/n)
    for sample, target in [(p_l, var_pl_nopath(n_r, mu)),
                           (p_e, var_pe_nopath(n_r, mu))]:
        v = sample.var(ddof=1)
        m4c = np.mean((sample - sample.mean()) ** 4)
        se_v = math.sqrt(max(m4c - v * v, 0.0) / n_samples)
        assert abs(v - target) < 5 * se_v


# --- envelope bounds -------------------------------------------------------

def test_power_bounds_unit_case():
    # d_tr=2, a_l=1, a_e=3, gamma=2: near=1, far=3, gap=2
    b = power_moment_bounds(gamma=2.0, d_tr=2.0, eta=1.0, nu=2.0, n_r=10,
                            a_l=1.0, a_e=3.0)
    assert b.mean_pl_lower == pytest.approx(10 * 3.0 ** -4)
    assert b.mean_pe_upper == pytest.approx(2.0 ** -2 * 1.0)
    assert b.var_pl_upper == pytest.approx(4 * 10 * 1.0)
    assert b.var_pe_upper == pytest.approx(4 * 2.0 ** -4 * 1.0)


def test_power_bounds_validation():
    with pytest.raises(ValueError):
        power_moment_bounds(2.0, 1.0, 1.0, 1.0, 1, a_l=1.5, a_e=3.0)
    with pytest.raises(ValueError):
        power_moment_bounds(2.0, 5.0, 1.0, 1.0, 1, a_l=1.0, a_e=0.5)


def test_power_bounds_zero_radius_collapse():
    # a_l = 0: the bounds become the point-distance moments
    gamma, d_tr, eta, nu, n_r, a_e = 2.0, 5.0, 1.0, 3.0, 7, 2.0
    b = power_moment_bounds(gamma, d_tr, eta, nu, n_r, 0.0, a_e)
    assert b.mean_pl_lower == pytest.approx(eta * n_r * d_tr ** (-2 * gamma))
    assert b.var_pl_upper == pytest.approx(nu * nu * n_r * d_tr ** (-4 * gamma))
    assert b.mean_pe_upper == pytest.approx(eta * (a_e * d_tr) ** -gamma)


@given(a_l=st.floats(min_value=0, max_value=0.9),
       d_tr=st.floats(min_value=1.0, max_value=10.0),
       a_e=st.floats(min_value=1.0, max_value=10.0))
def test_power_bounds_widen_with_a_l(a_l, d_tr, a_e):
    tight = power_moment_bounds(2.0, d_tr, 1.0, 1.0, 5, 0.0, a_e)
    loose = power_moment_bounds(2.0, d_tr, 1.0, 1.0, 5, a_l, a_e)
    assert loose.mean_pl_lower <= tight.mean_pl_lower
    assert loose.mean_pe_upper >= tight.mean_pe_upper
    assert loose.var_pl_upper >= tight.var_pl_upper
    assert loose.var_pe_upper >= tight.var_pe_upper


# --- distribution families -------------------------------------------------

def test_two_point_moments():
    d = TwoPointDist(1.0, 3.0, 0.25)
    assert d.moment(0) == pytest.approx(1.0)
    assert d.moment(1) == pytest.approx(1.5)
    assert d.moment(2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        TwoPointDist(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        TwoPointDist(1.0, 2.0, 0.0)


def test_uniform_mixture_moments():
    d = UniformMixtureDist([(0.0, 2.0)], [1.0])
    assert d.moment(1) == pytest.approx(1.0)
    assert d.moment(2) == pytest.approx(4.0 / 3.0)
    mix = UniformMixtureDist([(0.0, 1.0), (2.0, 4.0)], [0.5, 0.5])
    assert mix.moment(1) == pytest.approx(0.5 * 0.5 + 0.5 * 3.0)
    with pytest.raises(ValueError):
        UniformMixtureDist([(2.0, 1.0)], [1.0])
    with pytest.raises(ValueError):
        UniformMixtureDist([(0.0, 1.0)], [0.0])


def rayleigh_density(mu):
    """Density of the Rayleigh magnitude with parameter mu (E{H^2} = 2*mu)."""
    return lambda x: x / mu * math.exp(-x * x / (2 * mu))


def quad(f, lo, hi):
    from scipy import integrate
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def test_rayleigh_moments_match_quadrature():
    for mu in (0.1, 0.5, 3.0):
        pdf = rayleigh_density(mu)
        for p in (1, 2, 3, 4):
            want = quad(lambda x: x ** p * pdf(x), 0.0, math.inf)
            assert RayleighDist(mu).moment(p) == pytest.approx(want, rel=1e-9)


def test_uniform_mixture_moments_match_quadrature():
    d = UniformMixtureDist([(0.0, 1.0), (1.5, 2.0), (3.0, 5.0)], [0.7, 0.2, 0.4])
    for p in (1, 2, 3, 4):
        want = sum(w * quad(lambda x: x ** p, a, b) / (b - a)
                   for (a, b), w in zip(d.intervals, d.weights))
        assert d.moment(p) == pytest.approx(want, rel=1e-12)


def test_two_point_moments_match_enumeration():
    # exact rational sum over the two support points
    lo, hi, p_hi = Fraction(1, 2), Fraction(2), Fraction(3, 10)
    d = TwoPointDist(float(lo), float(hi), float(p_hi))
    for p in (1, 2, 3, 4):
        want = (1 - p_hi) * lo ** p + p_hi * hi ** p
        assert d.moment(p) == pytest.approx(float(want), rel=1e-15)


def test_random_distribution_draws_every_family():
    rng = np.random.default_rng(12)
    drawn = [random_distribution(rng) for _ in range(300)]
    assert {type(d) for d in drawn} == {RayleighDist, TwoPointDist,
                                        UniformMixtureDist}
    mixtures = [d for d in drawn if isinstance(d, UniformMixtureDist)]
    assert {len(d.intervals) for d in mixtures} == {1, 2, 3}


# --- third-moment inequality (Chebyshev's sum inequality) ------------------

def test_third_moment_gap_rayleigh():
    for mu in (0.1, 0.5, 2.0, 10.0):
        assert third_moment_gap(RayleighDist(mu)) >= 0


@given(lo=st.floats(min_value=0, max_value=10),
       hi=st.floats(min_value=0, max_value=10),
       p_hi=st.floats(min_value=0.01, max_value=0.99))
def test_third_moment_gap_two_point(lo, hi, p_hi):
    assert third_moment_gap(TwoPointDist(lo, hi, p_hi)) >= -1e-12


@given(a=st.floats(min_value=0, max_value=5),
       w1=st.floats(min_value=0.1, max_value=10),
       w2=st.floats(min_value=0.1, max_value=10))
def test_third_moment_gap_uniform_mixture(a, w1, w2):
    d = UniformMixtureDist([(a, a + 1.0), (a + 2.0, a + 5.0)], [w1, w2])
    assert third_moment_gap(d) >= -1e-12


def test_third_moment_gap_degenerate_is_zero():
    # a (near-)constant variable achieves equality
    d = TwoPointDist(2.0, 2.0, 0.5)
    assert third_moment_gap(d) == pytest.approx(0.0, abs=1e-12)


# --- weighted variance inequality ------------------------------------------

def test_weighted_variance_exact_equal_weights():
    # a = b: the two sides coincide
    d = RayleighDist(0.5)
    lhs, rhs = weighted_variance_exact(1.0, 1.0, d)
    assert lhs == pytest.approx(rhs)
    with pytest.raises(ValueError):
        weighted_variance_exact(1.0, 0.5, d)


def test_weighted_variance_exact_holds_across_families():
    fams = [RayleighDist(0.5), RayleighDist(3.0),
            TwoPointDist(0.5, 2.0, 0.3),
            UniformMixtureDist([(0.0, 1.0), (2.0, 3.0)], [0.5, 0.5])]
    for dist in fams:
        for a, b in [(0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (1.0, 4.0)]:
            lhs, rhs = weighted_variance_exact(a, b, dist)
            assert lhs < rhs


def test_weighted_variance_two_point_enumeration():
    # exact check by enumerating the four-point joint support of (X, Y)
    d = TwoPointDist(0.5, 3.0, 0.4)
    a, b = 0.7, 1.3
    support = [(d.lo, 1 - d.p_hi), (d.hi, d.p_hi)]
    pairs = list(itertools.product(support, repeat=2))
    vals = np.array([(a * x + b * y) ** 2 for (x, _), (y, _) in pairs])
    probs = np.array([px * py for (_, px), (_, py) in pairs])
    mean = (vals * probs).sum()
    var_lhs = ((vals - mean) ** 2 * probs).sum()
    got_lhs, got_rhs = weighted_variance_exact(a, b, d)
    assert got_lhs == pytest.approx(var_lhs, rel=1e-12)
    vals_r = np.array([(x + y) ** 2 for (x, _), (y, _) in pairs])
    mean_r = (vals_r * probs).sum()
    var_rhs = b ** 4 * ((vals_r - mean_r) ** 2 * probs).sum()
    assert got_rhs == pytest.approx(var_rhs, rel=1e-12)
    assert var_lhs < var_rhs


def test_weighted_variance_exact_matches_2d_quadrature():
    # both variances by quadrature over the joint density of i.i.d. (X, Y);
    # b deliberately not 1 so the b**4 scaling of the cap is exercised
    from scipy import integrate
    a, b, mu = 0.3, 0.7, 0.5
    pdf = rayleigh_density(mu)

    def variance(g):
        def expect(h):
            return integrate.dblquad(lambda y, x: h(g(x, y)) * pdf(x) * pdf(y),
                                     0.0, math.inf, 0.0, math.inf,
                                     epsabs=0.0, epsrel=1e-10)[0]
        mean = expect(lambda v: v)
        return expect(lambda v: (v - mean) ** 2)

    lhs, rhs = weighted_variance_exact(a, b, RayleighDist(mu))
    assert lhs == pytest.approx(variance(lambda x, y: (a * x + b * y) ** 2),
                                rel=1e-8)
    assert rhs == pytest.approx(b ** 4 * variance(lambda x, y: (x + y) ** 2),
                                rel=1e-8)
    assert lhs < rhs


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=0.05, max_value=0.95),
       mu=st.floats(min_value=0.1, max_value=5.0))
def test_weighted_variance_exact_property(a, mu):
    lhs, rhs = weighted_variance_exact(a, 1.0, RayleighDist(mu))
    assert lhs <= rhs * (1 + 1e-12)
