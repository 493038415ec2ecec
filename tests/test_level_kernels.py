"""The Levi kernels on level sets in real arithmetic.

``functions.level_abs`` is checked against the modulus of the complex
``evaluate`` on the nodes of both level-set rules, for the reciprocal and the
power kernel; it raises where ``evaluate`` raises and falls back to
``evaluate`` bit for bit for every other spec.  ``functions.chart_abs``, its
sibling on the disk chart of a level set in C^2, is checked against
``level_abs`` at the chart's points.  ``quadrature.inside_only``'s
real squared-distance test is checked against the complex norm test.
"""

import numpy as np
import pytest

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import quadrature as quad

REL = 1e-14
EPS = (0.2, 0.2 * 2.0 ** -6, 0.2 * 2.0 ** -12)
DOMAINS = ("ellipsoid:a=1,2", "rescaled:base=ellipsoid:a=1,2;c=2", "ball:n=2",
           "ellipsoid:a=1,2,3")


def _kernels(text):
    domain = geo.parse_domain(text)
    zeta = np.zeros(domain.n, dtype=complex)
    zeta[0] = 1.0
    return [fn.LeviReciprocal(domain, tuple(zeta)),
            fn.LeviPower(domain, tuple(zeta), 1.5)]


def _nodes(domain, eps, method):
    zeta = np.zeros(domain.n, dtype=complex)
    zeta[0] = 1.0
    count = 20_000 if method == "parametrized" else 400_000
    return geo.level_set_sampler(domain, eps, method, count, seed=5,
                                 singular_center=zeta).points


@pytest.mark.parametrize("method", ["parametrized", "thin-shell"])
@pytest.mark.parametrize("text", DOMAINS)
def test_level_abs_is_the_modulus_of_evaluate(text, method):
    for spec in _kernels(text):
        for eps in EPS:
            Z = _nodes(spec.domain, eps, method)
            want = np.abs(fn.evaluate(spec, Z))
            got = fn.level_abs(spec, Z)
            assert got.shape == want.shape
            assert np.max(np.abs(got / want - 1.0)) <= REL


@pytest.mark.parametrize("text", DOMAINS)
def test_level_abs_raises_where_evaluate_raises(text):
    # scaled by 2, the nodes near zeta leave the zero-free region Re Q > 0
    for spec in _kernels(text):
        Z = 2.0 * _nodes(spec.domain, 0.2, "parametrized")[::50]
        raised = []
        for f in (fn.evaluate, fn.level_abs):
            with pytest.raises(fn.FunctionError, match="zero-free region"):
                f(spec, Z)
            raised.append([_raises(f, spec, z) for z in Z[:, None, :]])
        assert raised[0] == raised[1] and 0 < sum(raised[0]) < len(Z)


@pytest.mark.parametrize("text", DOMAINS[:2])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_chart_abs_is_level_abs_on_the_chart(text, scale):
    # the level sets' points on the nodes of the whole chart; the scale 2
    # takes some of them out of the zero-free region
    z1 = quad.quadric_chart((1.0, 2.0))[0]
    for spec in _kernels(text):
        for eps in EPS:
            Z = np.sqrt(1.0 - eps / spec.domain.c) * np.stack(
                [z1, np.sqrt((1.0 - np.abs(z1) ** 2) / 2.0)], axis=-1)
            Z *= scale
            if scale > 1.0:
                for f, arg in ((fn.level_abs, Z), (fn.chart_abs, Z[:, 0])):
                    with pytest.raises(fn.FunctionError, match="zero-free region"):
                        f(spec, arg)
                continue
            got = fn.chart_abs(spec, Z[:, 0])
            assert np.max(np.abs(got / fn.level_abs(spec, Z) - 1.0)) <= REL


def _raises(f, spec, Z):
    try:
        f(spec, Z)
    except fn.FunctionError:
        return True
    return False


def test_warped_domains_and_other_specs_fall_back_bit_for_bit():
    warped = geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")
    ell = geo.parse_domain("ellipsoid:a=1,2")
    e1 = (1.0 + 0j, 0j)
    levi = fn.LeviReciprocal(ell, e1)
    specs = [fn.LeviReciprocal(warped, e1), fn.LeviPower(warped, e1, 1.5),
             fn.combine((1.0, levi), (0.5, fn.Const(1.0))),
             fn.combine((0.3 + 0.7j, levi), (-2.0, fn.LeviPower(ell, e1, 1.5))),
             fn.Cauchy(e1), fn.PowerCauchy(e1, 1.5)]
    Z = 0.9 * _nodes(ell, 0.01, "parametrized")
    for spec in specs:
        assert np.array_equal(fn.level_abs(spec, Z), np.abs(fn.evaluate(spec, Z)))


@pytest.mark.parametrize("complement", [False, True])
def test_inside_only_mask_is_the_norm_mask(complement):
    # 1M nodes in C^2, half with distances to the center spread across the
    # radius and half within 1e-8 of it, where a looser test would differ
    rng = np.random.default_rng(16)
    center, radius = np.array([1.0 + 0j, 0.2 - 0.1j]), 0.4
    count = 1_000_000
    g = rng.standard_normal((count, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    spread = np.concatenate([rng.uniform(0.5, 1.5, count // 2),
                             1.0 + 1e-8 * rng.uniform(-1.0, 1.0, count // 2)])
    dist = radius * spread
    Z = center + geo.to_complex(g) * dist[:, None]
    mask = quad.inside_only(lambda X: np.ones(len(X)), center, radius,
                            complement)(Z) == 1.0
    want = (np.linalg.norm(Z - center, axis=-1) < radius) != complement
    assert 0 < mask.sum() < count
    assert np.array_equal(mask, want)
