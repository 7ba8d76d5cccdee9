import math

import numpy as np
import pytest

from secbeam.geometry import NetworkConfig

from test_montecarlo import sample_ppp


def test_config_validation():
    kw = dict(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0, lambda_l=1.0,
              lambda_e=0.0, n_legit=100)
    NetworkConfig(**kw)
    for bad in [dict(p_t=0.0), dict(mu=-1.0), dict(gamma=1.5), dict(d_tr=0.0),
                dict(lambda_l=0.0), dict(lambda_e=-0.1), dict(n_legit=0)]:
        with pytest.raises(ValueError):
            NetworkConfig(**{**kw, **bad})


def test_config_side():
    cfg = NetworkConfig(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0, lambda_l=4.0,
                        lambda_e=0.0, n_legit=100)
    assert cfg.side == pytest.approx(5.0)


def test_sample_ppp_zero_density():
    rng = np.random.default_rng(0)
    assert len(sample_ppp(0.0, 10.0, rng)) == 0


def test_sample_ppp_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_ppp(-1.0, 10.0, rng)
    with pytest.raises(ValueError):
        sample_ppp(float("nan"), 10.0, rng)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 0.0, rng)


def test_sample_ppp_mean_count():
    rng = np.random.default_rng(1)
    counts = [len(sample_ppp(1.0, 10.0, rng)) for _ in range(2000)]
    se = math.sqrt(100.0 / 2000)
    assert abs(np.mean(counts) - 100.0) < 5 * se


def test_sample_ppp_count_variance():
    # Poisson variance equals the mean; mean count 8 here
    rng = np.random.default_rng(2)
    n = 100_000
    counts = np.array([len(sample_ppp(0.5, 4.0, rng)) for _ in range(n)])
    lam = 8.0
    # standard error of the sample variance of a Poisson(lam):
    # sqrt((m4 - var^2)/n), m4 = lam*(1+3*lam)
    se_var = math.sqrt((lam * (1 + 3 * lam) - lam * lam) / n)
    assert abs(counts.var(ddof=1) - lam) < 5 * se_var
    assert abs(counts.mean() - lam) < 5 * math.sqrt(lam / n)


def test_sample_ppp_positions_uniform():
    rng = np.random.default_rng(3)
    pts = sample_ppp(50.0, 6.0, rng)
    assert np.all(np.abs(pts) <= 3.0)
    # quadrant balance as a crude uniformity check
    frac = np.mean((pts[:, 0] > 0) & (pts[:, 1] > 0))
    assert abs(frac - 0.25) < 5 * math.sqrt(0.25 * 0.75 / len(pts))


def test_sample_ppp_deterministic():
    a = sample_ppp(2.0, 5.0, np.random.default_rng(42))
    b = sample_ppp(2.0, 5.0, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
