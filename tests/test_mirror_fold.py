"""The zonal rule's mirror fold: ``integrate_zonal(even=True)`` evaluates a
conjugation-even integrand on the first half of the disk rule and doubles
the weights, and must give the full rule's estimate bit for bit.

``functions.conjugation_even`` decides which specs take the fold; the
pairwise-sum split that makes the fold exact is pinned here on the rules
the workloads build, so that a change in numpy's summation fails in this
file rather than inside a golden.
"""

import numpy as np
import pytest

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

E1 = (1.0 + 0j, 0j)
BALL = geo.parse_domain("ball:n=2")
RESCALED = geo.parse_domain("rescaled:base=ball:n=2;c=2")
RADII = (0.5, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -29)
CAP_CUT = 1.0 - 0.5 ** 2 / 2  # the workloads' cap B(zeta, 0.5): c = 0.875
# (c, complement): the whole sphere, the cap and its complement
REGIONS = ((-1.0, False), (CAP_CUT, False), (CAP_CUT, True))
STACK = (1.2, 2.0, 3.5)

EVEN = [
    fn.Cauchy(E1), fn.PowerCauchy(E1, 1.5), fn.LogCauchy(E1),
    fn.LeviReciprocal(BALL, E1), fn.LeviPower(BALL, E1, 1.5),
    fn.LeviReciprocal(RESCALED, E1), fn.LeviPower(RESCALED, E1, 1.5),
    fn.Const(2.5), fn.parse_function("poly:z1^2+3"),
    fn.subtract(fn.PowerCauchy(E1, 1.5), fn.Const(1.0)),
    fn.combine((0.5, fn.Cauchy(E1)), (-2.0, fn.LogCauchy(E1)),
               (1.5, fn.LeviPower(RESCALED, E1, 3.0))),
]

REJECTED = [
    fn.combine((1j, fn.Cauchy(E1)), (1.0, fn.Const(1.0))),   # complex coefficient
    fn.combine((1.0, fn.Cauchy(E1)), (1.0, fn.Const(1j))),   # complex constant
    fn.Poly(((1.0, (2, 0)), (0.5j, (1, 0))), 2),             # complex coefficient
]


def _id(spec):
    return fn.describe(spec).replace(";", " ")


def _gt(spec, R, ps):
    return lambda lam: norms._powers(fn.zonal_abs(spec, R * lam), ps)


def _fields(est):
    return (est.value, est.stderr, est.count, est.method, est.overflowed)


@pytest.mark.parametrize("region", REGIONS, ids=["sphere", "cap", "complement"])
@pytest.mark.parametrize("R", RADII, ids=["R=0.5", "R=1-2^-10", "R=1-2^-29"])
@pytest.mark.parametrize("spec", EVEN, ids=_id)
def test_fold_is_the_full_rule_bit_for_bit(spec, R, region):
    assert fn.conjugation_even(spec)
    c, complement = region
    for ps in ((2.0,), STACK):
        gt = _gt(spec, R, ps)
        full = quad.integrate_zonal(gt, 2, c, complement)
        fold = quad.integrate_zonal(gt, 2, c, complement, even=True)
        assert [_fields(e) for e in fold] == [_fields(e) for e in full]
        assert fold[0].count == quad._zonal_nodes(2, c, complement)[0].size


def test_fold_evaluates_half_the_nodes():
    seen = []

    def gt(lam):
        seen.append(lam.size)
        return np.abs(1.0 / (1.0 - 0.9 * lam))

    full = quad.integrate_zonal(gt, 2)
    fold = quad.integrate_zonal(gt, 2, even=True)
    assert seen == [215_168, 107_584]
    assert fold == full


def test_fold_flags_overflow_as_the_full_rule_does():
    for fill in (np.inf, np.nan, 1e301):
        gt = lambda lam: np.full(lam.shape, fill)
        assert quad.integrate_zonal(gt, 2, even=True) == quad.integrate_zonal(gt, 2)


@pytest.mark.parametrize("spec", REJECTED, ids=_id)
def test_rejected_specs_take_the_full_rule(spec, monkeypatch):
    assert not fn.conjugation_even(spec)
    calls = []
    integrate = quad.integrate_zonal

    def spy(gt, n, c=-1.0, complement=False, even=False):
        calls.append(even)
        return integrate(gt, n, c, complement, even)

    monkeypatch.setattr(quad, "integrate_zonal", spy)
    est, flag = norms.point_integral(spec, 2.0, norms.SphereSurface(2), 0.9,
                                     norms.QuadConfig())
    assert calls == [False] and flag == "" and est.method == "zonal"
    assert est == integrate(_gt(spec, 0.9, (2.0,)), 2)[0]


def test_a_complex_constant_would_break_the_fold():
    # |conj(f) + c| is not |f + c|: folding cauchy + 1j moves the value
    spec = fn.combine((1.0, fn.Cauchy(E1)), (1.0, fn.Const(1j)))
    gt = lambda lam: np.abs(fn.zonal_eval(spec, 0.9 * lam)) ** 2
    full = quad.integrate_zonal(gt, 2).value
    fold = quad.integrate_zonal(gt, 2, even=True).value
    assert full == pytest.approx(60.2102, rel=1e-5)
    assert fold == pytest.approx(79.4563, rel=1e-5)


def test_norms_fold_the_even_specs(monkeypatch):
    calls = []
    integrate = quad.integrate_zonal

    def spy(gt, n, c=-1.0, complement=False, even=False):
        calls.append(even)
        return integrate(gt, n, c, complement, even)

    monkeypatch.setattr(quad, "integrate_zonal", spy)
    for spec in EVEN:
        norms.point_integral(spec, 2.0, norms.SphereSurface(2), 0.9,
                             norms.QuadConfig())
    assert calls == [True] * len(EVEN)


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("c", [-1.0, CAP_CUT])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pairwise_sum_splits_at_the_mirror(n, c, complement):
    lam, w = quad._zonal_nodes(n, c, complement)
    half = lam.size // 2
    assert half % 8 == 0
    assert np.array_equal(lam[half:], np.conj(lam[:half]))
    assert np.array_equal(w[half:], w[:half])
    if half:
        assert 2 * half > 128  # numpy's pairwise sum splits arrays this long
    rng = np.random.Generator(np.random.Philox(key=[n, half]))
    for y in (w[:half] * rng.random(half), rng.standard_normal(half),
              np.exp(rng.uniform(-300.0, 300.0, half))):
        assert np.sum(np.concatenate([y, y])) == 2.0 * np.sum(y)
        assert np.sum(2.0 * y) == 2.0 * np.sum(y)
