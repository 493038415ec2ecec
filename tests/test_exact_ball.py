"""Zonal scans against the exact ball values of the Forelli-Rudin formula.

For f = 1/(1 - <z, zeta>) on the sphere of radius r in C^n,
    int_S |f(r z)|^p dsigma = sigma(S^{2n-1}) 2F1(p/2, p/2; n; r^2)
(W. Rudin, Function Theory in the Unit Ball of C^n, Prop. 1.4.10; K. Zhu,
Spaces of Holomorphic Functions in the Unit Ball, Thm. 1.12).  The power
kernel (1 - <z, zeta>)^{-n/q} takes a = pn/(2q) in place of p/2, and the
ball's Levi reciprocal 1/Q = 1/(2(1 - <z, zeta>)) on the level sphere of
radius R = sqrt(1 - eps) gives 2^-p R^{2n-1} sigma 2F1(p/2, p/2; n; R^2), and
its power |Q|^{-n/q} gives 2^{-pn/q} R^{2n-1} sigma 2F1(a, a; n; R^2).

The bound was fixed before the first run and is not to be widened: the
worst error measured is 1.1e-8 (the Cauchy kernel at n = 4, p = 7).
Exponent ladders are rounded: ``hyp2f1`` returns inf when p is one ulp off
an integer with n - p an integer.
"""

import numpy as np
import pytest
from scipy.special import hyp2f1

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

REL = 5e-8
DIMS = [2, 3, 4]


def _e1(n):
    return tuple([1.0 + 0j] + [0j] * (n - 1))


def _ladder(lo, hi):
    return np.round(np.arange(lo, hi + 0.25, 0.5), 10)


def _check(scans, exact):
    for sc in scans:
        assert all(m == "zonal" for m in sc.methods), sc.describe()
        want = exact(sc.p)
        rel = np.abs(sc.values / want - 1.0)
        assert np.all(np.isfinite(want)) and np.max(rel) <= REL, (sc.p, np.max(rel))


@pytest.mark.parametrize("n", DIMS)
def test_cauchy_kernel_on_every_radial_point(n):
    r2 = norms.RADIAL_ZONAL.values() ** 2
    sigma = quad.sphere_area(n)
    ps = _ladder(1.0, 2 * n - 1)
    scans = norms.scans(fn.Cauchy(_e1(n)), ps, norms.RADIAL_ZONAL,
                        norms.SphereSurface(n))
    _check(scans, lambda p: sigma * hyp2f1(p / 2, p / 2, n, r2))


@pytest.mark.parametrize("n", DIMS)
def test_power_kernel_on_every_radial_point(n):
    q = 1.5
    r2 = norms.RADIAL_ZONAL.values() ** 2
    sigma = quad.sphere_area(n)
    scans = norms.scans(fn.PowerCauchy(_e1(n), q), _ladder(1.0, 2.5),
                        norms.RADIAL_ZONAL, norms.SphereSurface(n))
    _check(scans, lambda p: sigma * hyp2f1(p * n / (2 * q), p * n / (2 * q), n, r2))


@pytest.mark.parametrize("n", DIMS)
def test_ball_levi_reciprocal_on_every_level(n):
    ball = geo.parse_domain(f"ball:n={n}")
    R = np.sqrt(1.0 - norms.LEVEL_GRID.values())
    sigma = quad.sphere_area(n)
    scans = norms.scans(fn.LeviReciprocal(ball, _e1(n)), _ladder(1.0, 2 * n - 1),
                        norms.LEVEL_GRID, norms.LevelSurface(ball))
    _check(scans, lambda p: (2.0 ** -p * R ** (2 * n - 1) * sigma
                             * hyp2f1(p / 2, p / 2, n, R ** 2)))


@pytest.mark.parametrize("n", DIMS)
def test_ball_levi_power_on_every_level(n):
    q = 1.5
    ball = geo.parse_domain(f"ball:n={n}")
    R = np.sqrt(1.0 - norms.LEVEL_GRID.values())
    sigma = quad.sphere_area(n)
    scans = norms.scans(fn.LeviPower(ball, _e1(n), q), _ladder(1.0, 2.5),
                        norms.LEVEL_GRID, norms.LevelSurface(ball))
    _check(scans, lambda p: (2.0 ** (-p * n / q) * R ** (2 * n - 1) * sigma
                             * hyp2f1(p * n / (2 * q), p * n / (2 * q), n, R ** 2)))
