"""The zonal power and log kernels in real arithmetic.

``functions.zonal_abs`` and the polar ``zonal_eval`` of the power and log
atoms are checked against an ``np.longdouble`` oracle computed from the same
double pairings w, on the cached whole-sphere zonal rule; ``point_integral``
on these atoms is checked against the complex exp/log form
exp(-s log(kappa (1 - w))) that the zonal path evaluated before.
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
REL = 1e-13

# q > 1 is the power kernels' domain; 1.05 gives the largest exponent n/q
ATOMS = [fn.PowerCauchy(E1, q) for q in (1.05, 1.5, 3.0)] + [
    fn.PowerCauchy((1.0 + 0j, 0j, 0j), 1.5),
    fn.LeviPower(BALL, E1, 1.5), fn.LeviPower(RESCALED, E1, 1.5),
    fn.LeviReciprocal(BALL, E1), fn.LeviReciprocal(RESCALED, E1),
    fn.LogCauchy(E1)]


def _atom_id(spec):
    return fn.describe(spec).replace(";", " ")


def _kappa_s(spec):
    """(kappa, s) with f(w) = (kappa (1 - w))^-s; None for the log."""
    if isinstance(spec, fn.PowerCauchy):
        return 1.0, len(spec.zeta) / spec.q
    if isinstance(spec, fn.LeviPower):
        return 2.0 * spec.domain.c, spec.domain.n / spec.q
    if isinstance(spec, fn.LeviReciprocal):
        return 2.0 * spec.domain.c, 1.0
    return None


def oracle(spec, w):
    """(modulus, real part, imaginary part) of f(w) in np.longdouble, from
    the double w."""
    a = 1 - w.real.astype(np.longdouble)
    b = -w.imag.astype(np.longdouble)
    h = np.sqrt(a * a + b * b)
    theta = np.arctan2(b, a)  # arg(1 - w)
    if isinstance(spec, fn.LogCauchy):  # -log(1 - w) = -(log h + i theta)
        return np.sqrt(np.log(h) ** 2 + theta ** 2), -np.log(h), -theta
    kappa, s = _kappa_s(spec)
    mod = (np.longdouble(kappa) * h) ** -np.longdouble(s)
    phase = -np.longdouble(s) * theta
    return mod, mod * np.cos(phase), mod * np.sin(phase)


def complex_form(spec, w):
    """The complex exp/log form of the atom."""
    if isinstance(spec, fn.LogCauchy):
        return -np.log(1.0 - w)
    kappa, s = _kappa_s(spec)
    return np.exp(-s * np.log(kappa * (1.0 - w)))


@pytest.fixture(scope="module")
def rule():
    lam, _ = quad._zonal_nodes(2, -1.0, False)
    return lam


@pytest.mark.parametrize("R", RADII, ids=["R=0.5", "R=1-2^-10", "R=1-2^-29"])
@pytest.mark.parametrize("spec", ATOMS, ids=_atom_id)
def test_zonal_abs_matches_the_oracle(spec, R, rule):
    w = R * rule
    mod, _, _ = oracle(spec, w)
    got = fn.zonal_abs(spec, w)
    assert got.dtype == np.float64 and got.shape == w.shape
    assert float(np.max(np.abs(got / mod - 1))) <= REL


@pytest.mark.parametrize("R", RADII, ids=["R=0.5", "R=1-2^-10", "R=1-2^-29"])
@pytest.mark.parametrize("spec", ATOMS, ids=_atom_id)
def test_polar_zonal_eval_matches_the_oracle(spec, R, rule):
    w = R * rule
    mod, re, im = oracle(spec, w)
    got = fn.zonal_eval(spec, w)
    err = np.hypot((got.real - re).astype(float), (got.imag - im).astype(float))
    assert float(np.max(err / mod.astype(float))) <= REL


def test_zonal_abs_of_other_specs_is_the_modulus_of_zonal_eval(rule):
    w = 0.999 * rule
    for spec in (fn.Cauchy(E1),
                 fn.Poly(((3.0, (0,)), (1.0, (2,))), 1), fn.Const(2.0),
                 fn.subtract(fn.PowerCauchy(E1, 1.5), fn.Const(1.0))):
        assert np.array_equal(fn.zonal_abs(spec, w),
                              np.abs(fn.zonal_eval(spec, w)))


def test_zonal_abs_of_a_scalar_pairing():
    spec = fn.PowerCauchy(E1, 1.5)
    got = fn.zonal_abs(spec, 0.3 + 0.2j)
    assert got.shape == ()
    assert got == pytest.approx(abs(complex_form(spec, 0.3 + 0.2j)), rel=1e-15)


@pytest.mark.parametrize("k", [4, 20, 29])
@pytest.mark.parametrize("spec,p", [
    (fn.PowerCauchy(E1, 1.5), 1.2), (fn.LeviPower(RESCALED, E1, 1.5), 1.2),
    (fn.LogCauchy(E1), 2.0),
    (fn.subtract(fn.PowerCauchy(E1, 1.5), fn.Const(1.0)), 1.2),
], ids=["power", "levipow-rescaled", "log", "power-minus-1"])
def test_point_integral_matches_the_complex_form(spec, p, k):
    r = 1.0 - 2.0 ** -k

    def old(w):
        if isinstance(spec, fn.Sum):
            return sum(complex(c) * (complex_form(s, w)
                                     if not isinstance(s, fn.Const) else s.c)
                       for c, s in spec.terms)
        return complex_form(spec, w)

    ref = quad.integrate_zonal(lambda lam: np.abs(old(r * lam)) ** p, 2).value
    est, flag = norms.point_integral(spec, p, norms.SphereSurface(2), r,
                                     norms.QuadConfig(seed=7), k)
    assert est.method == "zonal" and flag == ""
    assert est.value == pytest.approx(ref, rel=1e-12)
