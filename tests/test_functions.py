import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import quadrature as quad

ELL = geo.parse_domain("ellipsoid:a=1,2")
BALL = geo.parse_domain("ball:n=2")
E1 = (1.0 + 0j, 0j)


def interior_points(count, n=2, seed=0):
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    z = rng.random((count, n)) - 0.5 + 1j * (rng.random((count, n)) - 0.5)
    return 0.9 * z / np.maximum(1.0, np.linalg.norm(z, axis=1, keepdims=True))


class TestCauchy:
    def test_origin(self):
        assert fn.evaluate(fn.Cauchy(E1), np.zeros(2)) == pytest.approx(1.0)

    def test_along_ray(self):
        for r in (0.3, 0.9, 0.999):
            z = r * np.array(E1)
            assert fn.evaluate(fn.Cauchy(E1), z) == pytest.approx(1 / (1 - r), rel=1e-12)

    def test_cross_coordinate(self):
        val = fn.evaluate(fn.Cauchy(E1), np.array([0.5, 0.5j]))
        assert val == pytest.approx(2.0)

    def test_outside_ball_raises(self):
        with pytest.raises(fn.FunctionError):
            fn.evaluate(fn.Cauchy(E1), np.array([1.0 + 0j, 0.5j]))

    @pytest.mark.parametrize("zeta", [(1.0 + 0j, 0j), (0j, 1j)])
    def test_near_singularity_stability(self, zeta):
        # poles whose pairing products are exact floats: no cancellation error
        for k in range(4, 31):
            r = 1 - 2.0 ** (-k)
            if 1 - r < 1e-9:
                break
            val = fn.evaluate(fn.Cauchy(zeta), r * np.array(zeta))
            assert abs(val - 1 / (1 - r)) / abs(1 / (1 - r)) < 1e-9


class TestLog:
    def test_origin_zero(self):
        assert fn.evaluate(fn.LogCauchy(E1), np.zeros(2)) == pytest.approx(0.0)

    def test_real_on_ray(self):
        r = 0.99
        val = fn.evaluate(fn.LogCauchy(E1), r * np.array(E1))
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real == pytest.approx(np.log(1 / (1 - r)), rel=1e-12)

    def test_principal_branch_bound(self):
        z = interior_points(100_000, seed=5)
        vals = fn.evaluate(fn.LogCauchy(E1), z)
        assert np.max(np.abs(vals.imag)) < np.pi / 2


class TestPower:
    def test_origin_one(self):
        assert fn.evaluate(fn.PowerCauchy(E1, 1.5), np.zeros(2)) == pytest.approx(1.0)

    def test_unit_exponent_on_ray(self):
        # n/q = 1 when q = n = 2
        r = 0.75
        assert fn.evaluate(fn.PowerCauchy(E1, 2.0), r * np.array(E1)) == pytest.approx(1 / (1 - r))

    def test_modulus_identity(self):
        z = interior_points(2_000, seed=8)
        phi = np.abs(fn.evaluate(fn.PowerCauchy(E1, 1.5), z))
        f = np.abs(fn.evaluate(fn.Cauchy(E1), z))
        assert np.max(np.abs(phi / f ** (2 / 1.5) - 1)) < 1e-10

    def test_q_validation(self):
        with pytest.raises(fn.FunctionError):
            fn.PowerCauchy(E1, 1.0)


class TestLeviFunctions:
    def test_ball_reciprocal_is_half_cauchy(self):
        z = interior_points(10_000, seed=3)
        lev = fn.evaluate(fn.LeviReciprocal(BALL, E1), z)
        cau = fn.evaluate(fn.Cauchy(E1), z)
        assert np.max(np.abs(lev - cau / 2)) < 1e-12 * np.max(np.abs(cau))

    def test_ellipsoid_value(self):
        val = fn.evaluate(fn.LeviReciprocal(ELL, E1), np.array([0.9 + 0j, 0j]))
        assert val == pytest.approx(5.0, rel=1e-12)

    def test_ray_approach(self):
        eps = 1e-4
        val = fn.evaluate(fn.LeviReciprocal(BALL, E1), (1 - eps) * np.array(E1))
        assert val == pytest.approx(1 / (2 * eps), rel=1e-9)

    def test_outside_zero_free_region(self):
        with pytest.raises(fn.FunctionError, match="zero-free"):
            fn.evaluate(fn.LeviReciprocal(ELL, E1), np.array([2.0 + 0j, 0j]))

    def test_levi_power_values(self):
        eps = 1e-3
        val = fn.evaluate(fn.LeviPower(BALL, E1, 2.0), (1 - eps) * np.array(E1))
        assert val == pytest.approx(1 / (2 * eps), rel=1e-9)
        assert fn.evaluate(fn.LeviPower(BALL, E1, 1.5), np.zeros(2)) == pytest.approx(
            2 ** (-2 / 1.5))

    def test_levi_power_modulus_law(self):
        z = interior_points(2_000, seed=9) * 0.55
        # keep strictly inside the ellipsoid
        keep = ELL.rho(z) < -0.05
        z = z[keep]
        h = np.abs(fn.evaluate(fn.LeviPower(ELL, E1, 1.5), z))
        q = np.abs(geo.levi_polynomial(ELL, z, np.array(E1)))
        assert np.max(np.abs(h - q ** (-2 / 1.5))) < 1e-10 * np.max(h)


class TestHarmonic:
    def test_values(self):
        y3 = (0.0, 0.0, 1.0)
        x = np.array([0.0, 0.0, 0.5])
        assert fn.evaluate(fn.HarmonicKernel(y3, 3), x).real == pytest.approx(2.0)
        y4 = (0.0, 0.0, 0.0, 1.0)
        x4 = np.array([0.0, 0.0, 0.0, 0.5])
        assert fn.evaluate(fn.HarmonicKernel(y4, 4), x4).real == pytest.approx(4.0)

    def test_singularity_error(self):
        with pytest.raises(fn.FunctionError):
            fn.evaluate(fn.HarmonicKernel((0, 0, 1.0), 3), np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_discrete_laplacian_vanishes(self, n):
        rng = np.random.Generator(np.random.Philox(key=[n, 17]))
        y = np.zeros(n)
        y[-1] = 1.0
        spec = fn.HarmonicKernel(tuple(y), n)
        h = 1e-3
        for _ in range(10):
            x = 0.5 * (rng.random(n) - 0.5)
            d = np.linalg.norm(x - y)
            phi = fn.evaluate(spec, x).real
            lap = 0.0
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                lap += (fn.evaluate(spec, x + e).real
                        + fn.evaluate(spec, x - e).real - 2 * phi) / h ** 2
            assert abs(lap) < 1e-3 * abs(phi) / d ** 2


@given(st.floats(min_value=1.0000001, max_value=1e12))
@settings(max_examples=200, deadline=None)
def test_scalar_log_inequality(x):
    import math
    for p in (1.0, 2.0, 4.0):
        for k in (1, 2, 5):
            assert np.log(x) ** p <= math.factorial(k) ** (p / k) * x ** (p / k) * (1 + 1e-12)


class TestAlgebraAndParsing:
    def test_combine_cancellation(self):
        f = fn.Cauchy(E1)
        assert fn.is_zero(fn.subtract(f, f))
        g = fn.combine((2.0, f), (-1.0, f))
        assert g == f

    def test_zero_constant_is_dropped(self):
        f = fn.Cauchy(E1)
        zero = fn.Const(0.0, 2)
        assert fn.subtract(f, zero) == f
        g = fn.LogCauchy(E1)
        assert fn.combine((1.0, f), (3.0, zero), (2.0, g)) == fn.combine((1.0, f),
                                                                         (2.0, g))
        assert fn.is_zero(fn.subtract(zero, zero))
        z = interior_points(500, seed=5)
        with_zero = fn.Sum(((1.0, f), (-1.0, zero)))
        assert np.array_equal(fn.evaluate(fn.subtract(f, zero), z),
                              fn.evaluate(with_zero, z))

    def test_sum_evaluation(self):
        f = fn.Sum(((2.0, fn.Const(3.0, 2)), (1.0, fn.Cauchy(E1))))
        assert fn.evaluate(f, np.zeros(2)) == pytest.approx(7.0)

    def test_zonal_centers(self):
        assert fn.zonal_center(fn.Const(1.0, 2)) == "any"
        assert np.allclose(fn.zonal_center(fn.Cauchy(E1)), [1, 0])
        p = fn.Poly(((3.0, (0, 0)), (1.0, (2, 0))), 2)
        assert np.allclose(fn.zonal_center(p), [1, 0])
        mixed = fn.Sum(((1.0, fn.Cauchy(E1)),
                        (1.0, fn.Cauchy((0j, 1.0 + 0j)))))
        assert fn.zonal_center(mixed) is None

    def test_zonal_eval_consistency(self):
        z = interior_points(500, seed=11)
        for spec in (fn.Cauchy(E1), fn.LogCauchy(E1), fn.PowerCauchy(E1, 1.5),
                     fn.LeviReciprocal(BALL, E1), fn.LeviPower(BALL, E1, 1.5),
                     fn.Poly(((3.0, (0, 0)), (1.0, (2, 0))), 2)):
            lam = geo.hermitian(z, np.array(E1))
            assert np.allclose(fn.zonal_eval(spec, lam), fn.evaluate(spec, z),
                               rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("evaluator", ["evaluate", "zonal_eval"])
    def test_complex_coefficient_gives_the_same_bits_at_any_node_count(self, evaluator):
        # from 16384 complex nodes up numpy multiplies a temporary in place,
        # so the sum must fix the operand order itself
        spec = fn.combine((0.3 + 0.7j, fn.Cauchy(E1)), (-0.2 + 1e-3j, fn.Const(1.0)))
        nodes = 0.9 * quad.sample_sphere(2, 40_000, seed=7)
        if evaluator == "zonal_eval":
            nodes = geo.hermitian(nodes, np.array(E1))
        f = getattr(fn, evaluator)
        full = f(spec, nodes)
        for count in (1000, 16_383):
            assert np.array_equal(f(spec, nodes[:count]), full[:count])

    @pytest.mark.parametrize("text", [
        "cauchy:zeta=1,0", "log:zeta=1,0", "power:q=1.5;zeta=1,0",
        "levi:domain=ellipsoid:a=1,2;zeta=1,0",
        "levipow:domain=ellipsoid:a=1,2;q=1.5;zeta=1,0",
        "levi:domain=rescaled:base=ball:n=2;c=2;zeta=1,0",
        "levipow:domain=warped:base=ellipsoid:a=1,2;u=x1;q=1.5;zeta=1,0",
        "levi:domain=rescaled:base=warped:base=ball:n=2;u=x1;c=0.5;zeta=1,0",
        "harmonic:n=3;y=1,0,0", "const:1", "poly:z1^2+3",
    ])
    def test_parse_describe_roundtrip(self, text):
        spec = fn.parse_function(text)
        again = fn.parse_function(fn.describe(spec))
        assert again == spec

    @pytest.mark.parametrize("spec", [
        fn.Cauchy((2 ** -0.5, 2 ** -0.5)), fn.PowerCauchy(E1, 1.2345678),
        fn.LeviPower(ELL, E1, 1.0 + 1e-9), fn.Const(1 / 3),
        fn.Poly(((1 / 3, (2, 0)), (-0.7, (0, 0))), 2),
    ], ids=["cauchy-diagonal", "power-long-q", "levipow-long-q", "const-third",
            "poly-long-coefficients"])
    def test_long_numbers_read_back_exactly(self, spec):
        assert fn.parse_function(fn.describe(spec)) == spec

    @pytest.mark.parametrize("text", [
        "cauchy:zeta=1,0", "log:zeta=1,0", "power:q=1.5;zeta=1,0", "const:1",
        "harmonic:n=3;y=1,0,0", "poly:z1^2+3",
    ])
    def test_short_numbers_keep_their_spelling(self, text):
        assert fn.describe(fn.parse_function(text)) == text

    def test_poly_parse_values(self):
        p = fn.parse_function("poly:z1^2+3")
        z = np.array([0.5 + 0.5j, 0.1j])
        assert fn.evaluate(p, z) == pytest.approx((0.5 + 0.5j) ** 2 + 3)
        p2 = fn.parse_function("poly:2*z2^3+0.5*z1")
        assert fn.evaluate(p2, z) == pytest.approx(2 * (0.1j) ** 3 + 0.25 + 0.25j)

    def test_parse_errors(self):
        with pytest.raises(fn.FunctionError):
            fn.parse_function("nosuch:zeta=1,0")
