"""Each geometric decision has one owner: the ``geometry.Quadric`` fields
hold the defining function, ``geometry.level_weights`` scales a level, and
the region of a restricted surface is applied before |f| is evaluated."""

import math

import numpy as np
import pytest

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

E1 = (1.0 + 0j, 0j)
SQRT_HALF = 1.0 / math.sqrt(2.0)

# domain: ((a, c, warps, ball), level_weights at eps = 0.1, box half-widths,
# eps_max)
DOMAINS = {
    "ball": (geo.parse_domain("ball:n=2"),
             ((1.0, 1.0), 1.0, 0, True), ([1.0, 1.0], 0.1),
             [1.0, 1.0], 0.9),
    "ellipsoid": (geo.parse_domain("ellipsoid:a=1,2"),
                  ((1.0, 2.0), 1.0, 0, False), ([1.0, 2.0], 0.1),
                  [1.0, SQRT_HALF], 0.9),
    "rescaled": (geo.parse_domain("rescaled:base=ellipsoid:a=1,2;c=2"),
                 ((1.0, 2.0), 2.0, 0, False), ([1.0, 2.0], 0.05),
                 [1.0, SQRT_HALF], 1.8),
    "warped": (geo.parse_domain("warped:base=ball:n=2;u=x1"),
               ((1.0, 1.0), 1.0, 1, True), None,
               [1.0, 1.0], 0.9 * (1.0 * np.exp(-1.0))),
    "rescaled-warped": (
        geo.parse_domain("rescaled:base=warped:base=ellipsoid:a=1,2;u=x1;c=2"),
        ((1.0, 2.0), 2.0, 1, False), None,
        [1.0, SQRT_HALF], 0.9 * (2.0 * np.exp(-1.0))),
}


@pytest.mark.parametrize("name", list(DOMAINS))
def test_quadric_and_the_readers_of_it(name):
    domain, quadric, level, box, eps_max = DOMAINS[name]
    assert (domain.a, domain.c, domain.warps, domain.ball) == quadric
    lw = geo.level_weights(domain, 0.1)
    if level is None:
        assert lw is None
    else:
        assert np.array_equal(lw[0], level[0]) and lw[1] == level[1]
    assert np.allclose(geo.box_halfwidths(domain), box, rtol=1e-15, atol=0)
    assert geo.eps_max(domain) == eps_max


@pytest.mark.parametrize("text, c", [("ball:n=2", 1.0),
                                     ("rescaled:base=ellipsoid:a=1,2;c=2", 2.0)])
def test_level_weights_raise_at_eps_at_least_c(text, c):
    domain = geo.parse_domain(text)
    assert geo.level_weights(domain, 0.99 * c)[1] < 1.0
    for eps in (c, 1.5 * c):
        with pytest.raises(geo.GeometryError, match="level set empty"):
            geo.level_weights(domain, eps)


def test_warped_multiplier_other_than_x1_is_rejected():
    with pytest.raises(geo.GeometryError, match="multiplier"):
        geo.parse_domain("warped:base=ball:n=2;u=x2")
    dom = geo.parse_domain("warped:base=ball:n=2;u=x1")
    assert geo.parse_domain(dom.describe()) == dom


def test_zonal_level_set_empty_is_a_geometry_error():
    # eps / c = 2 on the zonal path, which never consults eps_max
    surface = norms.LevelSurface(geo.parse_domain("rescaled:base=ball:n=2;c=0.1"))
    with pytest.raises(geo.GeometryError, match="level set empty"):
        norms.point_integral(fn.Cauchy(E1), 2.0, surface, 0.2, norms.QuadConfig())
    sc = norms.scan(fn.Cauchy(E1), 2.0, norms.ApproachGrid("level", 0, 1), surface)
    assert sc.flags == ["failed: level set empty", "truncated"]


def test_a_restricted_levi_scan_does_not_depend_on_the_spelling():
    grid = norms.ApproachGrid("level", 0, 14)
    U = norms.OpenBall(E1, 0.4)
    ball, ell = (norms.level_scan_domain(fn.LeviReciprocal(domain, E1), 1.5, domain,
                                         grid, norms.QuadConfig(), restrict=U)
                 for domain in map(geo.parse_domain, ("ball:n=2", "ellipsoid:a=1,1")))
    assert ball.methods == ell.methods == ["zonal"] * len(grid.ks())
    assert np.array_equal(ball.values, ell.values)


def test_a_warped_level_surface_takes_the_thin_shell():
    domain = geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")
    sc = norms.scan(fn.LeviReciprocal(geo.parse_domain("ellipsoid:a=1,2"), E1), 1.5,
                    norms.ApproachGrid("level", 0, 1), norms.LevelSurface(domain),
                    norms.QuadConfig(thin_shell_proposals=200_000))
    assert sc.methods == ["thin-shell"] * 2 and sc.flags == ["", ""]
    assert sc.describe().endswith("surface=level:warped:base=ellipsoid:a=1,2;u=x1, "
                                  "rule=thin-shell)")


# ---------------------------------------------------------------------------
# The region is applied before |f| is evaluated
# ---------------------------------------------------------------------------

MC = norms.QuadConfig(seed=7, count=2000,
                      thin_shell_proposals=200_000, force_mc=True)
LEVI = fn.LeviReciprocal(geo.parse_domain("ellipsoid:a=1,2"), E1)
U04 = norms.OpenBall(E1, 0.4)

# name: (fspec, p, surface, x, value, stderr), the restricted golden values of
# tests/test_reduction.py (k = 3), and the test of a node seen by |f|
RESTRICTED = {
    "mc-importance-cap": (fn.Cauchy(E1), 1.5, norms.CapSurface(2, E1, 0.5), 0.9,
                          4.6590095806012055, 0.2903438810375867,
                          lambda Z: np.linalg.norm(Z / 0.9 - E1, axis=-1) < 0.5),
    "parametrized-restricted": (
        LEVI, 1.5, norms.LevelSurface(geo.parse_domain("ellipsoid:a=1,2"),
                                      restrict=U04), 0.05,
        1.7654639540172166, 0.09134850269104382,
        lambda Z: np.linalg.norm(Z - E1, axis=-1) < 0.4),
    "thin-shell-restricted": (
        LEVI, 1.5, norms.LevelSurface(
            geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1"), restrict=U04), 0.1,
        1.8817464582498833, 0.060676000435575396,
        lambda Z: np.linalg.norm(Z - E1, axis=-1) < 0.4),
}


@pytest.mark.parametrize("name", list(RESTRICTED))
def test_f_is_evaluated_only_inside_the_region(name, monkeypatch):
    fspec, p, surface, x, value, stderr, inside = RESTRICTED[name]
    seen = []
    # level sets take |f| from level_abs, the sphere path from evaluate
    hook = "level_abs" if isinstance(surface, norms.LevelSurface) else "evaluate"
    original = getattr(fn, hook)

    def recorder(spec, Z):
        seen.append(np.array(Z))
        return original(spec, Z)

    monkeypatch.setattr(fn, hook, recorder)
    est, flag = norms.point_integral(fspec, p, surface, x, MC, k=3)
    nodes = np.concatenate(seen)
    assert 0 < len(nodes) < est.count
    assert np.all(inside(nodes))
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("complement", [False, True])
def test_inside_only_zeroes_the_outside_without_evaluating_it(complement):
    Z = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    seen = []

    def g(X):
        seen.append(X)
        return np.stack([np.full(len(X), 2.0), np.full(len(X), 3.0)])

    vals = quad.inside_only(g, E1, 0.5, complement)(Z)
    inside = np.array([True, True, False, False]) != complement
    assert np.array_equal(seen[0], Z[inside])
    assert np.array_equal(vals, np.stack([2.0 * inside, 3.0 * inside]))
