"""Every quadrature rule reduces through ``quadrature.reduce_nodes``: its
overflow handling holds on each path, and each point_integral method
reproduces the values recorded before the paths were merged."""

import numpy as np
import pytest

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

E1 = (1.0 + 0j, 0j)
E2 = (0j, 1.0 + 0j)
BALL = geo.parse_domain("ball:n=2")
ELL = geo.parse_domain("ellipsoid:a=1,2")

PATHS = {
    "sphere": lambda g: quad.integrate_sphere(g, 2, 1000, seed=1),
    "sphere-importance": lambda g: quad.integrate_sphere_importance(
        g, 2, [E1], 0.1, 1000, seed=1),
    "cap": lambda g: quad.integrate_cap(g, E1, 1.0, 2, 1000, seed=1),
    "zonal": lambda g: quad.integrate_zonal(g, 2),
    "real-zonal": lambda g: quad.integrate_real_zonal(g, 3),
    "parametrized": lambda g: geo.level_set_sampler(
        ELL, 0.1, count=1000, seed=1).integrate(g),
    "parametrized-strata": lambda g: geo.level_set_sampler(
        ELL, 0.1, count=1000, seed=1, singular_center=E1).integrate(g),
    "thin-shell": lambda g: geo.level_set_sampler(
        ELL, 0.1, method="thin-shell", count=100_000, seed=1).integrate(g),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("fill", [np.inf, np.nan, 1e301])
def test_every_path_flags_overflow(path, fill):
    est = PATHS[path](lambda X: np.full(len(X), fill))
    assert est.overflowed
    assert est.value == np.inf and est.stderr == np.inf
    assert est.count > 0


DET = norms.QuadConfig(seed=7)
MC = norms.QuadConfig(seed=7, mc_count=2000, level_count=2000,
                      thin_shell_proposals=200_000, force_mc=True)
H3 = fn.HarmonicKernel((1.0, 0.0, 0.0), 3)
LEVI = fn.LeviReciprocal(ELL, E1)
POLY = fn.parse_function("poly:z2^2+z1+3")

# name: (fspec, p, surface, x, cfg, method, value, stderr, count), recorded
# with k = 3 before the reduction paths were merged
GOLDEN = {
    "zonal": (fn.Cauchy(E1), 2.0, norms.SphereSurface(2), 0.9, DET,
              "zonal", 40.47101241449393, 0.0, 215168),
    "zonal-cap": (fn.Cauchy(E1), 2.0, norms.CapSurface(2, E1, 0.5), 0.9, DET,
                  "zonal", 11.996421778074527, 0.0, 204672),
    "zonal-complement": (fn.Cauchy(E1), 2.0,
                         norms.CapSurface(2, E1, 0.5, complement=True), 0.9, DET,
                         "zonal", 28.474590636417833, 0.0, 34416),
    "zonal-level": (fn.Cauchy(E1), 2.0,
                    norms.LevelSurface(BALL, restrict=norms.OpenBall(E1, 0.5)),
                    0.05, DET, "zonal", 28.302797777222604, 0.0, 204672),
    "real-zonal": (H3, 1.5, norms.RealLevelSurface(3), 0.05, DET,
                   "real-zonal", 15.262565003414103, 0.0, 1020),
    "exact-empty": (H3, 1.5,
                    norms.RealLevelSurface(3, norms.OpenBall((1.0, 0.0, 0.0), 0.01)),
                    0.1, DET, "exact-empty", 0.0, 0.0, 0),
    "mc-sphere": (POLY, 2.0, norms.SphereSurface(2), 0.9, MC,
                  "mc-sphere", 190.65133308519472, 1.468753107140039, 2000),
    "mc-importance": (fn.Cauchy(E1), 1.5, norms.SphereSurface(2), 0.9, MC,
                      "mc-importance", 28.732911645031134, 0.5746064558042387, 2000),
    "mc-importance-cap": (fn.Cauchy(E1), 1.5, norms.CapSurface(2, E1, 0.5), 0.9, MC,
                          "mc-importance", 4.6590095806012055, 0.2903438810375867,
                          2000),
    "mc-cap": (fn.Cauchy(E1), 1.5, norms.CapSurface(2, E2, 0.5), 0.9, MC,
               "mc-cap", 0.5329954419748352, 0.0037903873454927794, 2000),
    "parametrized": (LEVI, 1.5, norms.LevelSurface(ELL), 0.05, MC,
                     "parametrized", 6.476127962573269, 0.13879665766996682, 1995),
    "parametrized-unstratified": (POLY, 2.0, norms.LevelSurface(ELL), 0.05, MC,
                                  "parametrized", 105.4337793345384,
                                  0.7778405749813408, 2000),
    "thin-shell": (LEVI, 1.5, norms.LevelSurface(ELL, "thin-shell"), 0.1, MC,
                   "thin-shell", 5.572721778168472, 0.12258180231817127, 4533),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_point_integral_golden(name):
    fspec, p, surface, x, cfg, method, value, stderr, count = GOLDEN[name]
    est, flag = norms.point_integral(fspec, p, surface, x, cfg, k=3)
    assert (est.method, est.count, flag) == (method, count, "")
    if method in norms.DETERMINISTIC_METHODS:
        assert (est.value, est.stderr) == (value, stderr)
    else:
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
