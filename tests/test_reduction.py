"""Every quadrature rule reduces through ``quadrature.reduce_nodes``: its
overflow handling holds on each path, each point_integral method reproduces
the values recorded before the paths were merged, and the exponent-ladder
paths (point_integrals, scans) equal their one-exponent cases exactly."""

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
WARPED = geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("fill", [np.inf, np.nan, 1e301, 1e306])
def test_every_path_flags_overflow(path, fill):
    est = PATHS[path](lambda X: np.full(len(X), fill))
    assert est.overflowed
    assert est.value == np.inf and est.stderr == np.inf
    assert est.count > 0


DET = norms.QuadConfig(seed=7)
MC = norms.QuadConfig(seed=7, count=2000,
                      thin_shell_proposals=200_000, force_mc=True)
H3 = fn.HarmonicKernel((1.0, 0.0, 0.0), 3)
LEVI = fn.LeviReciprocal(ELL, E1)
POLY = fn.parse_function("poly:z2^2+z1+3")
U04 = norms.OpenBall(E1, 0.4)

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
    # the disk chart of a quadric's level set, whole and cut by U, on the
    # zonal rule of n = 2
    "chart-level": (LEVI, 1.5, norms.LevelSurface(ELL), 0.05, DET, "zonal",
                    6.535757791081195, 0.0, 215168),
    "chart-restricted": (LEVI, 1.5, norms.LevelSurface(ELL, restrict=U04), 0.05,
                         DET, "zonal", 1.6808024941467663, 0.0, 204672),
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
    # a warped domain's level sets take the thin shell
    "thin-shell": (LEVI, 1.5, norms.LevelSurface(WARPED), 0.1, MC,
                   "thin-shell", 6.341686363072707, 0.17277652604294869, 2397),
    # recorded with k = 3 when the restriction reached the level-set rule as
    # an indicator predicate plus a separate proposal ball
    "parametrized-restricted": (LEVI, 1.5, norms.LevelSurface(ELL, restrict=U04),
                                0.05, MC, "parametrized", 1.7654639540172166,
                                0.09134850269104382, 1995),
    "thin-shell-restricted": (LEVI, 1.5, norms.LevelSurface(WARPED, restrict=U04),
                              0.1, MC, "thin-shell", 1.8817464582498833,
                              0.060676000435575396, 4472),
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


# the thin shell on the unwarped ellipsoid, recorded with k = 3 through the
# surface that named the rule: (within, value, stderr, count)
THIN_SHELL_ELL = {
    "whole": (None, 5.572721778168472, 0.12258180231817127, 4533),
    "restricted": ((U04.center, U04.radius), 1.2042680585329812,
                   0.026387556162964596, 11092),
}


@pytest.mark.parametrize("name", list(THIN_SHELL_ELL))
def test_thin_shell_on_the_ellipsoid_golden(name):
    within, value, stderr, count = THIN_SHELL_ELL[name]
    g = lambda Z: fn.level_abs(LEVI, Z)[None] ** 1.5
    est, = quad.integrate_level_set(
        g, ELL, 0.1, method="thin-shell", count=MC.thin_shell_proposals,
        seed=norms._point_seed(MC, 3), within=within, singular_center=E1)
    assert (est.method, est.count) == ("thin-shell", count)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


# one ladder around each golden exponent, with the golden exponent inside it
@pytest.mark.parametrize("name", list(GOLDEN))
def test_point_integrals_equal_point_integral(name):
    fspec, p, surface, x, cfg, *_ = GOLDEN[name]
    ps = (1.0, p, p + 0.75, 3.0)
    ladder = norms.point_integrals(fspec, ps, surface, x, cfg, k=3)
    assert len(ladder) == len(ps)
    for pj, (est, flag) in zip(ps, ladder):
        one, one_flag = norms.point_integral(fspec, pj, surface, x, cfg, k=3)
        assert (est.value, est.stderr, est.count, est.method, flag) == \
            (one.value, one.stderr, one.count, one.method, one_flag)


def assert_scans_equal(ladder, ps, fspec, grid, surface, cfg):
    assert [sc.p for sc in ladder] == list(ps)
    for pj, sc in zip(ps, ladder):
        one = norms.scan(fspec, pj, grid, surface, cfg)
        assert np.array_equal(sc.values, one.values, equal_nan=True)
        assert np.array_equal(sc.stderrs, one.stderrs, equal_nan=True)
        assert (sc.flags, sc.methods) == (one.flags, one.methods)


def density_demo_difference():
    """c times the sum of the density demo's singular powers, as
    intersection_metric sees f - base."""
    centers = geo.boundary_dense_sequence(BALL, 4, seed=7)
    return fn.combine(*[(1e-3, fn.PowerCauchy(tuple(w), 1.5)) for w in centers])


LADDER = [float(p) for p in norms.IntersectionMetricSpec(q=1.5, J=20).p_list()]


def test_scans_truncate_each_exponent_at_its_own_guard():
    diff = density_demo_difference()
    cfg = norms.QuadConfig(seed=7, count=10_000)
    surface = norms.SphereSurface(2)
    ladder = norms.scans(diff, LADDER, norms.RADIAL_MC, surface, cfg)
    stops = {sc.flags.index("truncated") if "truncated" in sc.flags else None
             for sc in ladder}
    assert len(stops) > 1  # the guard stops some exponents before others
    assert_scans_equal(ladder, LADDER, diff, norms.RADIAL_MC, surface, cfg)


def test_scans_fail_every_live_exponent_at_a_raising_point(monkeypatch):
    original = fn.zonal_eval

    def raising(spec, w):
        if np.max(np.abs(w)) > 0.99:
            raise fn.FunctionError("pole reached")
        return original(spec, w)

    monkeypatch.setattr(fn, "zonal_eval", raising)
    grid = norms.ApproachGrid("radial", 2, 9)
    surface = norms.SphereSurface(2)
    ps = (1.5, 2.0, 3.0)
    ladder = norms.scans(fn.Cauchy(E1), ps, grid, surface, DET)
    for sc in ladder:
        assert sc.flags == [""] * 5 + ["failed: pole reached", "truncated", "truncated"]
    assert_scans_equal(ladder, ps, fn.Cauchy(E1), grid, surface, DET)


def test_scans_keep_scanning_past_an_overflowing_exponent():
    grid = norms.ApproachGrid("radial", 2, 12)
    surface = norms.SphereSurface(2)
    ps = (2.0, 100.0)
    with np.errstate(over="ignore"):
        ladder = norms.scans(fn.Cauchy(E1), ps, grid, surface, DET)
        assert "overflow" not in ladder[0].flags
        assert ladder[1].flags[-1] == "overflow" and ladder[1].flags[0] == ""
        assert_scans_equal(ladder, ps, fn.Cauchy(E1), grid, surface, DET)


def test_intersection_metric_builds_one_rule_per_grid_point(monkeypatch):
    calls = []
    original = quad.integrate_sphere_importance

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quad, "integrate_sphere_importance", counted)
    cfg = norms.QuadConfig(seed=7, count=10_000)
    res = norms.intersection_metric(density_demo_difference(), fn.Const(0.0),
                                    norms.IntersectionMetricSpec(q=1.5, J=20),
                                    cfg=cfg)
    assert len(res.terms) == 20
    assert 0 < len(calls) <= len(norms.RADIAL_MC.ks())
