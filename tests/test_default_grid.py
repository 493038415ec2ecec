"""One default grid per surface, chosen in ``norms.scans``; the checks that
``scans`` makes of f against its surface before the first point; and scans
on the unit disk, n = 1, which take importance Monte Carlo."""

import numpy as np
import pytest

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms

E1 = (1.0 + 0j, 0j)
Y3 = (1.0, 0.0, 0.0)
ELL = geo.parse_domain("ellipsoid:a=1,2")
CAUCHY = fn.Cauchy(E1)
LEVI = fn.LeviReciprocal(ELL, E1)
H3 = fn.HarmonicKernel(Y3, 3)
POWER = fn.PowerCauchy(E1, 1.5)
ONE = fn.Const(1.0, 2)
CAP = norms.CapSurface(2, E1, 0.5)
LADDER = norms.IntersectionMetricSpec(q=1.5, J=3)
CFG = norms.QuadConfig()


def default_scan(fspec, p, surface):
    """The scan ``scans`` gives on the grid ``_default_grid`` picks."""
    grid = norms._default_grid(fspec, surface, CFG)
    return norms.scans(fspec, (p,), grid, surface, CFG)[0]


# name: (the wrapper called with grid=None, what scans gives on the default grid)
WRAPPERS = {
    "membership-sphere": (
        lambda: norms.membership_verdict(CAUCHY, 1.5, norms.SphereSurface(2)).scan,
        lambda: default_scan(CAUCHY, 1.5, norms.SphereSurface(2))),
    "membership-cap": (
        lambda: norms.membership_verdict(CAUCHY, 2.0, CAP).scan,
        lambda: default_scan(CAUCHY, 2.0, CAP)),
    "membership-level": (
        lambda: norms.membership_verdict(LEVI, 1.5, norms.LevelSurface(ELL)).scan,
        lambda: default_scan(LEVI, 1.5, norms.LevelSurface(ELL))),
    "membership-real-level": (
        lambda: norms.membership_verdict(H3, 1.5, norms.RealLevelSurface(3)).scan,
        lambda: default_scan(H3, 1.5, norms.RealLevelSurface(3))),
    "local-scan-ball": (
        lambda: norms.local_scan_ball(CAUCHY, 2.0, E1, 0.5),
        lambda: default_scan(CAUCHY, 2.0, CAP)),
    "level-scan-domain": (
        lambda: norms.level_scan_domain(LEVI, 1.5, ELL),
        lambda: default_scan(LEVI, 1.5, norms.LevelSurface(ELL))),
    "harmonic-scan": (
        lambda: norms.harmonic_scan(Y3, 1.5, 3),
        lambda: default_scan(H3, 1.5, norms.RealLevelSurface(3))),
    "hardy-seminorm": (
        lambda: norms.hardy_seminorm(CAUCHY, 1.0),
        lambda: norms.seminorm_estimate(default_scan(CAUCHY, 1.0,
                                                     norms.SphereSurface(2)))),
    "intersection-metric": (
        lambda: norms.intersection_metric(POWER, ONE, LADDER),
        lambda: norms.intersection_metric(
            POWER, ONE, LADDER, norms._default_grid(
                fn.subtract(POWER, ONE), norms.SphereSurface(2), CFG))),
}


@pytest.mark.parametrize("name", list(WRAPPERS))
def test_a_wrapper_without_a_grid_scans_on_the_default_grid(name):
    wrapped, direct = WRAPPERS[name]
    got = wrapped()
    norms._exact_memo.clear()  # integrate the reference, not read it back
    want = direct()
    if isinstance(got, norms.NormScan):
        assert got.grid == want.grid
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert np.array_equal(got.stderrs, want.stderrs, equal_nan=True)
        assert (got.flags, got.methods) == (want.flags, want.methods)
    else:
        assert got == want


@pytest.mark.parametrize("fspec,surface,grid", [
    (H3, norms.RealLevelSurface(3), norms.LEVEL_HARMONIC),
    (LEVI, norms.LevelSurface(ELL), norms.LEVEL_GRID),
    (CAUCHY, norms.SphereSurface(2), norms.RADIAL_ZONAL),
    (CAUCHY, CAP, norms.RADIAL_ZONAL),
    (CAUCHY, norms.CapSurface(2, (0j, 1.0 + 0j), 0.5), norms.RADIAL_MC),
    (fn.Cauchy((1.0 + 0j,)), norms.SphereSurface(1), norms.RADIAL_MC),
], ids=["real-level", "level", "sphere", "cap", "off-center-cap", "disk"])
def test_each_surface_has_one_default_grid(fspec, surface, grid):
    assert norms._default_grid(fspec, surface, CFG) == grid
    assert norms.scan(fspec, 1.5, None, surface, CFG).grid == grid


@pytest.mark.parametrize("surface", [
    norms.SphereSurface(1), norms.CapSurface(1, (1.0 + 0j,), 0.5)],
    ids=["circle", "arc"])
def test_the_unit_disk_scans_on_importance_monte_carlo(surface):
    f = fn.Cauchy((1.0 + 0j,))
    inside, outside = norms.scans(f, (0.5, 2.0), None, surface, CFG)
    assert inside.grid == norms.RADIAL_MC
    assert not any(inside.flags)
    assert set(inside.methods) == {"mc-importance"}
    assert norms.classify(inside).klass == "Bounded"
    # at p = 2 the variance guard stops the scan near the boundary, after
    # enough points for the fit
    assert norms.classify(outside).klass == "PowerDivergent"
    assert set(outside.methods) - {""} == {"mc-importance"}


# f on a surface it is not defined on: refused before the first point
REFUSED = {
    "pole-of-C2-on-a-C3-ball": (CAUCHY, norms.LevelSurface(
        geo.parse_domain("ball:n=3")), "pole in dimension 2"),
    "pole-of-C2-on-a-C3-ellipsoid": (CAUCHY, norms.LevelSurface(
        geo.parse_domain("ellipsoid:a=1,2,3")), "pole in dimension 2"),
    "pole-of-C2-on-the-sphere-of-C3": (CAUCHY, norms.SphereSurface(3),
                                       "pole in dimension 2"),
    "harmonic-on-a-sphere": (H3, norms.SphereSurface(3), "real level spheres"),
    "harmonic-on-a-cap": (H3, norms.CapSurface(3, (1.0, 0.0, 0.0), 0.5),
                          "real level spheres"),
    "harmonic-on-a-level-set": (H3, norms.LevelSurface(geo.parse_domain("ball:n=3")),
                                "real level spheres"),
    "cauchy-on-real-level-spheres": (fn.Cauchy((1.0 + 0j, 0j, 0j)),
                                     norms.RealLevelSurface(3), "real level spheres"),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_scans_refuse_f_off_its_surface_before_the_first_point(name, monkeypatch):
    fspec, surface, message = REFUSED[name]

    def no_point(*args, **kwargs):
        raise AssertionError("a point was integrated")

    monkeypatch.setattr(norms, "point_integral", no_point)
    monkeypatch.setattr(norms, "point_integrals", no_point)
    with pytest.raises(norms.NormError, match=message):
        norms.scans(fspec, (1.5, 2.0), None, surface)


@pytest.mark.parametrize("fspec", [fn.Const(1.0, 2), fn.parse_function("poly:z1^2+3")],
                         ids=["const", "poly"])
@pytest.mark.parametrize("domain", ["ball:n=3", "ellipsoid:a=1,2,3"])
def test_a_function_without_a_pole_scans_in_any_dimension(fspec, domain):
    sc = norms.scan(fspec, 2.0, norms.ApproachGrid("level", 0, 2),
                    norms.LevelSurface(geo.parse_domain(domain)),
                    norms.QuadConfig(count=2000))
    assert not any(sc.flags)
    assert np.all(np.isfinite(sc.values) & (sc.values > 0))


@pytest.mark.parametrize("spec", [H3, fn.combine((1.0, H3), (-1.0, fn.HarmonicKernel(
    (0.0, 1.0, 0.0), 3)))], ids=["kernel", "sum"])
def test_a_harmonic_kernel_refuses_points_off_the_reals(spec):
    real = np.array([[0.5, 0.0, 0.0], [0.0, 0.2, 0.1]])
    assert np.array_equal(fn.evaluate(spec, real), fn.evaluate(spec, real + 0j))
    with pytest.raises(fn.FunctionError, match="imaginary part"):
        fn.evaluate(spec, real + np.array([0.0, 0.0, 1e-3j]))
