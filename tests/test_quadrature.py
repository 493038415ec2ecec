import math

import numpy as np
import pytest
from scipy.special import betainc, betaincinv, gammaln

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import quadrature as quad

E1 = np.array([1.0 + 0j, 0j])
BALL = geo.parse_domain("ball:n=2")
ELL = geo.parse_domain("ellipsoid:a=1,2")


def test_sphere_area_values():
    assert quad.sphere_area(2) == pytest.approx(2 * np.pi ** 2)
    assert quad.sphere_area(3) == pytest.approx(np.pi ** 3)
    assert quad.sphere_area_real(3) == pytest.approx(4 * np.pi)


class TestMonteCarloSphere:
    def test_constant(self):
        est = quad.integrate_sphere(lambda Z: np.ones(len(Z)), 2, 10_000, seed=7)
        assert est.value == pytest.approx(2 * np.pi ** 2, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-9)

    def test_odd_symmetry(self):
        est = quad.integrate_sphere(lambda Z: Z[:, 0].real, 2, 100_000, seed=7)
        assert abs(est.value) <= 3 * est.stderr

    def test_seed_determinism(self):
        g = lambda Z: np.abs(fn.evaluate(fn.Cauchy(tuple(E1)), 0.5 * Z)) ** 2
        a = quad.integrate_sphere(g, 2, 50_000, seed=13)
        b = quad.integrate_sphere(g, 2, 50_000, seed=13)
        assert a.value == b.value and a.stderr == b.stderr

    def test_against_large_independent_run(self):
        g = lambda Z: np.abs(fn.evaluate(fn.Cauchy(tuple(E1)), 0.5 * Z)) ** 2
        small = quad.integrate_sphere(g, 2, 100_000, seed=7)
        big = quad.integrate_sphere(g, 2, 2_000_000, seed=999)
        assert abs(small.value - big.value) <= 3 * small.combined_stderr(big)

    def test_count_validation(self):
        with pytest.raises(quad.QuadratureError):
            quad.integrate_sphere(lambda Z: np.ones(len(Z)), 2, 10)

    def test_nonfinite_flagged(self):
        est = quad.integrate_sphere(
            lambda Z: np.full(len(Z), np.inf), 2, 1000, seed=1)
        assert est.overflowed


class TestZonal:
    def test_calibration_constant(self):
        est = quad.integrate_zonal(lambda lam: np.ones(lam.shape), 2)
        assert est.value == pytest.approx(2 * np.pi ** 2, rel=1e-14)

    def test_angular_odd_part_vanishes(self):
        est = quad.integrate_zonal(lambda lam: lam.real, 2)
        assert abs(est.value) < 1e-10

    def test_log_closed_form_deep(self):
        sigma = 2 * np.pi ** 2
        for k in (4, 12, 20, 29):
            r = 1 - 2.0 ** (-k)
            est = quad.integrate_zonal(lambda lam: np.abs(1 - r * lam) ** -2.0, 2)
            exact = sigma * np.log(1 / (1 - r ** 2)) / r ** 2
            assert est.value == pytest.approx(exact, rel=1e-10)

    def test_boundary_gamma_formula(self):
        # int_S |1 - <zeta, w>|^-s dsigma = sigma Gamma(n)Gamma(n-s)/Gamma(n-s/2)^2
        for n, s in ((2, 1.5), (2, 1.0), (3, 2.5)):
            est = quad.integrate_zonal(lambda lam: np.abs(1 - lam) ** -s, n)
            exact = quad.sphere_area(n) * math.exp(
                gammaln(n) + gammaln(n - s) - 2 * gammaln(n - s / 2))
            assert est.value == pytest.approx(exact, rel=2e-6)

    def test_zonal_matches_mc(self):
        r, p = 0.9, 1.5
        est_z = quad.integrate_zonal(lambda lam: np.abs(1 - r * lam) ** -p, 2)
        g = lambda Z: np.abs(1 - r * geo.hermitian(Z, E1)) ** -p
        est_m = quad.integrate_sphere(g, 2, 200_000, seed=17)
        assert abs(est_z.value - est_m.value) <= 3 * est_m.stderr

    def test_cap_plus_complement_equals_full(self):
        r, p = 0.97, 2.0
        gt = lambda lam: np.abs(1 - r * lam) ** -p
        c = 1 - 0.5 ** 2 / 2
        full = quad.integrate_zonal(gt, 2).value
        capv = quad.integrate_zonal(gt, 2, c).value
        comp = quad.integrate_zonal(gt, 2, c, complement=True).value
        assert capv + comp == pytest.approx(full, rel=1e-10)

    def test_cap_covers_sphere_at_radius_two(self):
        gt = lambda lam: np.abs(1 - 0.5 * lam) ** -1.0
        full = quad.integrate_zonal(gt, 2).value
        capv = quad.integrate_zonal(gt, 2, 1 - 2.0 ** 2 / 2).value
        assert capv == pytest.approx(full, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_whole_sphere_cuts_are_the_tensor_rule(self, n):
        # every theta node with the radial nodes on [0, 1], mirrored to -theta
        theta, wtheta = quad._theta_nodes(-1.0)
        s, ws = quad._radial_nodes(0.0, 1.0)
        lam = (s[None, :] * np.exp(1j * theta)[:, None]).ravel()
        w = (wtheta[:, None] * ws * s * (1.0 - s ** 2) ** (n - 2)).ravel()
        lam = np.concatenate([lam, np.conj(lam)])
        w = np.concatenate([w, w]) * quad._zonal_calibration(n)
        assert lam.size == 215_168
        for c, complement in ((-1.0, False), (1.0, True)):
            got_lam, got_w = quad._zonal_nodes(n, c, complement)
            assert np.array_equal(got_lam, lam) and np.array_equal(got_w, w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cut_measure_is_the_beta_law(self, n):
        # sigma P(Re lam > c) = sigma I_{(1-c)/2}(a, a), a = (2n - 1)/2, for the
        # cap, and I_{(1+c)/2} for its complement; below c = 0 the cap is the
        # whole disk on the right half and s < c / cos(theta) on the left
        a = (2 * n - 1) / 2.0
        one = lambda lam: np.ones(lam.shape)
        for c in np.linspace(-0.99, 0.99, 45):
            for complement, x in ((False, (1 - c) / 2), (True, (1 + c) / 2)):
                est = quad.integrate_zonal(one, n, c, complement)
                exact = quad.sphere_area(n) * betainc(a, a, x)
                assert est.value == pytest.approx(exact, rel=1e-12), (c, complement)

    def test_cuts_from_the_grading_threshold_up_keep_their_panels(self):
        # the rule every cap of radius 0.5 uses, c = 0.875, is not graded
        theta, _ = quad._theta_nodes(0.875)
        edges = [0.0] + [np.pi * 2.0 ** (-j)
                         for j in range(quad.ZONAL_ANGULAR_PANELS, -1, -1)]
        ungraded, _ = quad._nodes_on_panels(
            np.asarray(sorted(set(edges) | {math.acos(0.875)})),
            quad.ZONAL_ANGULAR_NODES)
        assert np.array_equal(theta, ungraded)
        graded, _ = quad._theta_nodes(quad.ZONAL_GRADED_CUT - 0.1)
        extra = 2 * quad.ZONAL_CUT_EDGES * quad.ZONAL_ANGULAR_NODES
        assert graded.size == theta.size + extra


class TestCapMonteCarlo:
    def test_full_cap_recovers_sphere(self):
        g = lambda Z: np.abs(fn.evaluate(fn.Cauchy(tuple(E1)), 0.5 * Z)) ** 1.5
        cap = quad.integrate_cap(g, E1, 2.0, 2, 100_000, seed=7)
        sph = quad.integrate_sphere(g, 2, 100_000, seed=7)
        assert abs(cap.value - sph.value) <= 3 * cap.combined_stderr(sph)

    def test_measure_monotone_in_radius(self):
        one = lambda Z: np.ones(len(Z))
        vals = [quad.integrate_cap(one, E1, r, 2, 50_000, seed=7).value
                for r in (0.3, 0.6, 1.0, 1.5, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_cap_measure_against_reference(self):
        one = lambda Z: np.ones(len(Z))
        est = quad.integrate_cap(one, E1, 0.5, 2, 100_000, seed=7)
        ref = quad.integrate_cap(one, E1, 0.5, 2, 2_000_000, seed=1234)
        assert abs(est.value - ref.value) <= 3 * est.combined_stderr(ref)

    def test_cap_complement_partition(self):
        g = lambda Z: np.abs(fn.evaluate(fn.Cauchy(tuple(E1)), 0.3 * Z)) ** 2
        cap = quad.integrate_cap(g, E1, 0.8, 2, 50_000, seed=21)
        comp = quad.integrate_cap(g, E1, 0.8, 2, 50_000, seed=42, complement=True)
        sph = quad.integrate_sphere(g, 2, 50_000, seed=63)
        gap = abs(cap.value + comp.value - sph.value)
        tol = 3 * math.sqrt(cap.stderr ** 2 + comp.stderr ** 2 + sph.stderr ** 2)
        assert gap <= tol

    def test_empty_cap_error(self):
        with pytest.raises(quad.QuadratureError):
            quad.integrate_cap(lambda Z: np.ones(len(Z)), E1, 0.0, 2, 1000)


class TestImportanceSampler:
    def test_matches_zonal_at_depth(self):
        phi = fn.PowerCauchy(tuple(E1), 1.5)
        for k in (6, 10):
            r = 1 - 2.0 ** (-k)
            p = 1.45
            exact = quad.integrate_zonal(
                lambda lam: np.abs(fn.zonal_eval(phi, r * lam)) ** p, 2).value
            g = lambda Z: np.abs(fn.evaluate(phi, r * Z)) ** p
            est = quad.integrate_sphere_importance(
                g, 2, [tuple(E1)], math.sqrt(2 * (1 - r)), 100_000, seed=29)
            assert abs(est.value - exact) <= 3 * est.stderr
            assert est.stderr / est.value < 0.05

    def test_unbiased_for_smooth_integrand(self):
        g = lambda Z: 1.0 + Z[:, 0].real ** 2
        est = quad.integrate_sphere_importance(g, 2, [tuple(E1)], 0.01,
                                               100_000, seed=5)
        ref = quad.integrate_sphere(g, 2, 400_000, seed=6)
        assert abs(est.value - ref.value) <= 3 * est.combined_stderr(ref)

    def test_deterministic(self):
        g = lambda Z: np.abs(fn.evaluate(fn.Cauchy(tuple(E1)), 0.9 * Z)) ** 2
        a = quad.integrate_sphere_importance(g, 2, [tuple(E1)], 0.3, 50_000, seed=3)
        b = quad.integrate_sphere_importance(g, 2, [tuple(E1)], 0.3, 50_000, seed=3)
        assert a.value == b.value


def _band_targets(seed):
    """CDF targets in [1e-120, 1): uniform, and log-uniform in both tails."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.random(20_000),
                           10.0 ** rng.uniform(-120, 0, 20_000),
                           1.0 - 10.0 ** rng.uniform(-16, -1, 5_000)])


class _EdgeDraws:
    """A stand-in generator whose uniform draws include both ends of [0, 1)."""

    def random(self, count):
        return np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                               np.linspace(0.0, 1.0, count - 4, endpoint=False)])


class TestBandInverse:
    @pytest.mark.parametrize("a", [1.5, 2.5, 3.5])
    def test_cdf_residual_is_relative_to_the_target(self, a):
        y = _band_targets(int(2 * a))
        x = quad._symmetric_betaincinv(a, y)
        assert np.all(np.abs(betainc(a, a, x) - y) <= 1e-13 * y)

    @pytest.mark.parametrize("a", [1.5, 2.5, 3.5])
    def test_matches_scipy_inverse(self, a):
        y = _band_targets(int(2 * a) + 1)
        ref = betaincinv(a, a, y)
        ok = np.isfinite(ref)
        np.testing.assert_allclose(quad._symmetric_betaincinv(a, y)[ok], ref[ok],
                                   rtol=1e-12, atol=0.0)

    def test_arcsine_law_in_closed_form(self):
        y = _band_targets(1)
        np.testing.assert_allclose(quad._symmetric_betaincinv(0.5, y),
                                   np.sin(np.pi * y / 2.0) ** 2, rtol=1e-14)

    @pytest.mark.parametrize("a", [1.5, 2.5, 3.5])
    def test_ring_band_draws_stay_in_their_band(self, a):
        u = (1.0 + quad._ring_t_edges(1e-9)) / 2.0  # the finest ring scale
        assert len(u) == quad.MAX_RINGS + 2
        assert u[1] >= 0.5 > u[0]  # band 0 takes the head branch, the rest the tail
        for i in range(len(u) - 1):
            for rng in (_EdgeDraws(), geo.rng_stream(3, i)):
                x = quad._band_draws(a, quad._band_cdf(a, u[i], u[i + 1]), 10_000, rng)
                assert np.all((x >= u[i]) & (x <= u[i + 1])), i

    def test_integer_parameter_is_refused(self):
        with pytest.raises(quad.QuadratureError):
            quad._band_draws(2.0, quad._band_cdf(2.0, 0.2, 0.4), 100,
                            geo.rng_stream(3, 0))


class TestStratifiedLevel:
    def test_unbiased_on_ball_singular_integrand(self):
        eps = 0.2 * 2.0 ** -8
        R = math.sqrt(1 - eps)
        exact = R ** 3 * quad.integrate_zonal(
            lambda lam: np.abs(2 * (1 - R * lam)) ** -3.0, 2).value
        g = lambda Z: np.abs(fn.evaluate(fn.LeviReciprocal(BALL, tuple(E1)), Z)) ** 3
        for seed in (7, 11):
            s = geo.level_set_sampler(BALL, eps, "parametrized", 100_000,
                                      seed=seed, singular_center=E1)
            est = s.integrate(g)
            assert abs(est.value - exact) <= 3 * est.stderr
            assert est.stderr / est.value < 0.05

    def test_strata_weights_sum_to_area(self):
        s = geo.level_set_sampler(ELL, 0.05, "parametrized", 50_000, seed=7,
                                  singular_center=E1)
        plain = geo.level_set_sampler(ELL, 0.05, "parametrized", 50_000, seed=7)
        a1 = s.integrate(lambda Z: np.ones(len(Z)))
        a2 = plain.integrate(lambda Z: np.ones(len(Z)))
        assert abs(a1.value - a2.value) <= 3 * a1.combined_stderr(a2) + 1e-9


class TestThinShell:
    def test_restricted_box_is_unbiased(self):
        # restricted integrand: thin shell with a shrunken proposal box must
        # agree with the stratified parametrized estimate
        zeta = (1.0 + 0j, 0j)
        eps = 0.05
        f = fn.LeviReciprocal(ELL, zeta)
        g = lambda Z: np.abs(fn.evaluate(f, Z)) ** 1.5
        e_thin = quad.integrate_level_set(
            g, ELL, eps, method="thin-shell", count=2_000_000, seed=3,
            within=(E1, 0.3))
        e_par = quad.integrate_level_set(
            g, ELL, eps, method="parametrized", count=200_000, seed=5,
            within=(E1, 0.3), singular_center=E1)
        assert abs(e_thin.value - e_par.value) <= 3 * e_thin.combined_stderr(e_par)

    def test_h_default_tenth_of_eps(self):
        s = geo.level_set_sampler(ELL, 0.1, "thin-shell", 200_000, seed=9)
        r = ELL.rho(s.points)
        assert np.all(np.abs(r + 0.1) < 0.01 + 1e-12)

    def test_methods_agree_on_singular_integrand(self):
        # |1/Q|^{3/2} at eps = 0.1: two independent estimators as mutual oracle
        f = fn.LeviReciprocal(ELL, (1.0 + 0j, 0j))
        g = lambda Z: np.abs(fn.evaluate(f, Z)) ** 1.5
        e_par = quad.integrate_level_set(g, ELL, 0.1, method="parametrized",
                                         count=100_000, seed=7,
                                         singular_center=E1)
        e_thin = quad.integrate_level_set(g, ELL, 0.1, method="thin-shell",
                                          count=2_000_000, seed=11)
        assert abs(e_par.value - e_thin.value) <= 3 * e_par.combined_stderr(e_thin)


class TestRealZonal:
    def test_calibration(self):
        for d in (3, 4, 5, 6):
            est = quad.integrate_real_zonal(lambda u: np.ones(u.shape), d)
            assert est.value == pytest.approx(quad.sphere_area_real(d), rel=1e-10)

    def test_sphere_potential_closed_form(self):
        # int_{S^2} |R x - y|^{-1} dsigma(x) = 4 pi / max(R, |y|) for |y|=1
        for R in (0.3, 0.9, 0.999):
            gap = 1.0 - R
            G = lambda u: (gap * gap + 2 * R * u) ** -0.5
            est = quad.integrate_real_zonal(G, 3)
            assert est.value == pytest.approx(4 * np.pi, rel=1e-9)

    def test_restriction_bounds_measure(self):
        full = quad.integrate_real_zonal(lambda u: np.ones(u.shape), 3).value
        half = quad.integrate_real_zonal(lambda u: np.ones(u.shape), 3, u_hi=1.0).value
        assert half == pytest.approx(full / 2, rel=1e-10)

    def test_deep_gap_resolution(self):
        # singular scale quadratic in the boundary gap stays resolved
        eps = 0.2 * 2.0 ** -24
        R = np.sqrt(1 - eps)
        gap = eps / (1 + R)
        G = lambda u: (gap * gap + 2 * R * u) ** -1.0
        est = quad.integrate_real_zonal(G, 3)
        exact = 2 * np.pi / R * np.log((1 + R) / (1 - R))
        assert est.value == pytest.approx(exact, rel=1e-9)
