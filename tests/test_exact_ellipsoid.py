"""Level-set integrals of the ellipsoid a = (1, a2) against an exact series,
the oracle of the disk chart (``norms._chart_integral``).

For f = 1/Q, Q the Levi polynomial at zeta = (1, 0), the level set
{rho = -eps} is z = (R1 x1, R2 x2) with Rj = sqrt((1 - eps) / aj) and x on
the unit sphere, and Q = 2 (1 - R lam) with lam = x1 and R = sqrt(1 - eps).
Averaging |1 - R lam|^-p over the angles of lam gives

    I(eps) = det (1 - eps)^(-1/2) 2^-p 2 pi pi sum_k ((p/2)_k / k!)^2 R^(2k) g_k,
    g_k = int_0^1 x^k sqrt(a2 - (a2 - 1) x) dx
        = sqrt(a2) sum_m C(1/2, m) (-(a2 - 1) / a2)^m / (k + m + 1),

with det = (1 - eps)^2 / a2.  For the Levi power |Q|^(-n/q) put p n / q in
place of p.  At a2 = 1 the series is the ball's 2^-p R^3 sigma
2F1(p/2, p/2; 2; R^2).

Every bound below was fixed before the first run and is not to be widened:
the chart's worst error measured against the series is 3.2e-12, and its
restricted 8- and 10-node rules agree within 2.5e-12.
"""

from functools import lru_cache

import numpy as np
import pytest
from scipy.special import beta, binom, hyp2f1

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

REL = 1e-10
E1 = (1.0 + 0j, 0j)
DET = norms.QuadConfig(seed=7)
EPS = norms.LEVEL_GRID.values()
PS = (1.5, 2.0, 3.0)
M_TERMS = 80  # terms of g_k's series in m: its ratio is (a2 - 1) / a2 <= 1/2


def _terms(eps):
    """Terms of the k sum: R^(2k) (1 - eps)^k falls below e^-60 at the end."""
    return int(60.0 / eps) + 200


@lru_cache(maxsize=None)
def _g(a2):
    k = np.arange(_terms(EPS.min()), dtype=float)
    r = -(a2 - 1.0) / a2
    out = np.zeros_like(k)
    for m in range(M_TERMS if a2 != 1.0 else 1):
        out += binom(0.5, m) * r ** m / (k + m + 1.0)
    return np.sqrt(a2) * out


@lru_cache(maxsize=None)
def series(a2, p):
    """I(eps) on every eps of LEVEL_GRID; (a)_k / k! = 1 / (k B(a, k))."""
    k = np.arange(1, _terms(EPS.min()))
    coef = np.concatenate([[1.0], 1.0 / (k * beta(p / 2.0, k))]) ** 2 * _g(a2)
    out = []
    for eps in EPS:
        K = _terms(eps)
        S = np.sum(coef[:K] * (1.0 - eps) ** np.arange(K))
        out.append((1.0 - eps) ** 1.5 / a2 * 2.0 ** -p * 2.0 * np.pi ** 2 * S)
    return np.array(out)


@pytest.mark.parametrize("p", PS)
def test_series_is_the_ball_2f1_at_a2_1(p):
    R2 = 1.0 - EPS
    exact = 2.0 ** -p * R2 ** 1.5 * 2.0 * np.pi ** 2 * hyp2f1(p / 2, p / 2, 2.0, R2)
    assert np.max(np.abs(series(1.0, p) / exact - 1.0)) < REL


@pytest.mark.parametrize("a2", [1.0, 2.0])
def test_chart_scans_match_the_series(a2):
    domain = geo.Quadric((1.0, a2))
    scans = norms.scans(fn.LeviReciprocal(domain, E1), PS, norms.LEVEL_GRID,
                        norms.LevelSurface(domain), DET)
    for p, sc in zip(PS, scans):
        assert sc.methods == ["zonal"] * EPS.size
        assert np.max(np.abs(sc.values / series(a2, p) - 1.0)) < REL


def test_chart_levi_power_matches_the_series():
    # |Q|^(-n/q) at p = 1.2 is |Q|^-1.6
    domain = geo.Quadric((1.0, 2.0))
    sc = norms.scan(fn.LeviPower(domain, E1, 1.5), 1.2, norms.LEVEL_GRID,
                    norms.LevelSurface(domain), DET)
    assert np.max(np.abs(sc.values / series(2.0, 1.6) - 1.0)) < REL


def _restricted_scans():
    """Lemma 3.1's restricted scans: U = B(zeta, 0.4) on the ellipsoid and
    V = B(zeta, 0.2) on its rescaling by c = 2, on k = 0..14."""
    grid = norms.ApproachGrid("level", 0, 14)
    f = fn.LeviReciprocal(geo.Quadric((1.0, 2.0)), E1)
    out = []
    for c, radius in ((1.0, 0.4), (2.0, 0.2)):
        surface = norms.LevelSurface(geo.Quadric((1.0, 2.0), c),
                                     restrict=norms.OpenBall(E1, radius))
        sc = norms.scan(f, 1.5, grid, surface, DET)
        assert sc.methods == ["zonal"] * len(grid.ks())
        out.append(sc.values)
    return out


def test_restricted_chart_8_and_10_node_rules_agree(monkeypatch):
    eight = _restricted_scans()
    monkeypatch.setattr(quad, "ZONAL_RADIAL_NODES", 10)
    monkeypatch.setattr(quad, "ZONAL_ANGULAR_NODES", 10)
    quad._zonal_calibration.cache_clear()
    norms._exact_memo.clear()  # else the 8-node results are read back
    try:
        ten = _restricted_scans()
    finally:  # no 10-node rule outlives the test
        quad._zonal_calibration.cache_clear()
        quad._zonal_fold.cache_clear()
        quad._whole_chart.cache_clear()
    for a, b in zip(eight, ten):
        assert np.max(np.abs(a / b - 1.0)) < REL


@pytest.mark.parametrize("r", [None, 0.2, 0.4 / np.sqrt(2.0), 0.6])
def test_chart_of_equal_weights_is_the_scaled_ball(r):
    # a = (2, 2) is the ball scaled by 2^-1/2: z = w / sqrt(2) takes
    # zeta = (2^-1/2, 0) to e1, Q(z, zeta) = 1 - w1 to the ball's, B(zeta, r)
    # to B(e1, sqrt(2) r), and the level set's area by 2^-3/2; the chart takes
    # its A = 0 half-lines
    grid = norms.ApproachGrid("level", 0, 14)
    ps = (1.5, 3.0)
    ell, ball = geo.Quadric((2.0, 2.0)), geo.Quadric((1.0, 1.0))
    zeta = (2.0 ** -0.5 + 0j, 0j)
    U = None if r is None else norms.OpenBall(zeta, r)
    V = None if r is None else norms.OpenBall(E1, np.sqrt(2.0) * r)
    chart = norms.scans(fn.LeviReciprocal(ell, zeta), ps, grid,
                        norms.LevelSurface(ell, U), DET)
    zonal = norms.scans(fn.LeviReciprocal(ball, E1), ps, grid,
                        norms.LevelSurface(ball, V), DET)
    for c, z in zip(chart, zonal):
        assert c.methods == z.methods == ["zonal"] * len(grid.ks())
        assert np.max(np.abs(c.values / (2.0 ** -1.5 * z.values) - 1.0)) < REL
