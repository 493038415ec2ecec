import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import geometry as geo
from hardylab import quadrature as quad

BALL = geo.parse_domain("ball:n=2")
ELL = geo.parse_domain("ellipsoid:a=1,2")
WARP = geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")


def rand_points(n, count, seed=0, scale=0.7):
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    return scale * (rng.random((count, n)) - 0.5 + 1j * (rng.random((count, n)) - 0.5))


complex_vec = st.lists(
    st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
    min_size=2, max_size=4)


@given(complex_vec, complex_vec)
@settings(max_examples=50, deadline=None)
def test_hermitian_conjugate_symmetry(zs, ws):
    m = min(len(zs), len(ws))
    z = np.array([a + 1j * b for a, b in zs[:m]])
    w = np.array([a + 1j * b for a, b in ws[:m]])
    assert geo.hermitian(z, w) == pytest.approx(np.conj(geo.hermitian(w, z)), abs=1e-12)


# ball and ellipsoid x c x warps, described and parsed back
QUADRICS = [geo.Quadric(a, c, warps) for a in ((1.0, 1.0), (1.0, 2.0))
            for c in (1.0, 0.5, 0.1234567) for warps in (0, 1, 2)]


@pytest.mark.parametrize("domain,expected", [
    (BALL, "ball:n=2"), (ELL, "ellipsoid:a=1,2"),
    (geo.parse_domain("rescaled:base=ellipsoid:a=1,2;c=2"),
     "rescaled:base=ellipsoid:a=1,2;c=2"),
    (WARP, "warped:base=ellipsoid:a=1,2;u=x1"),
    # the rescaling is read at any depth and described outermost
    (geo.parse_domain("warped:base=rescaled:base=ball:n=2;c=0.5;u=x1"),
     "rescaled:base=warped:base=ball:n=2;u=x1;c=0.5"),
    *((domain, None) for domain in QUADRICS),
])
def test_parse_roundtrip(domain, expected):
    if expected is not None:
        assert domain.describe() == expected
    assert geo.parse_domain(domain.describe()) == domain


def test_unit_weights_are_the_ball_however_spelled():
    ell = geo.parse_domain("ellipsoid:a=1,1")
    assert ell == geo.parse_domain("ball:n=2") and ell.ball
    assert ell.describe() == "ball:n=2"
    assert not ELL.ball


@pytest.mark.parametrize("text", [
    "ball", "ball:n=x", "ellipsoid:a=1,x", "ellipsoid:a=1,0", "cube:n=2",
    "rescaled:base=ball:n=2", "rescaled:base=ball:n=2;c=0",
    "rescaled:ball:n=2;c=2", "warped:base=ball:n=2",
    "warped:base=ball:n=2;u=x2", "ball:n=2;n=2",
    "rescaled:base=ball:n=2;c=2;c=2", "ellipsoid:a=1,2;c=2",
])
def test_parse_rejects_a_missing_repeated_or_unknown_key(text):
    with pytest.raises(geo.GeometryError):
        geo.parse_domain(text)


def test_defining_values():
    z = np.array([0.5 + 0j, 0.5j])
    assert BALL.rho(z) == pytest.approx(-0.5)
    assert ELL.rho(z) == pytest.approx(0.25 + 2 * 0.25 - 1)
    resc = geo.parse_domain("rescaled:base=ball:n=2;c=2")
    assert resc.rho(z) == pytest.approx(-1.0)
    assert WARP.rho(z) == pytest.approx(np.exp(0.5) * (0.75 - 1))


@pytest.mark.parametrize("domain", [BALL, ELL, WARP])
def test_hessian_hermitian_and_gradient_nonvanishing(domain):
    pts = geo.boundary_dense_sequence(domain, 200, seed=3)
    rng = np.random.Generator(np.random.Philox(key=[5, 5]))
    pts = pts * (1 - 0.05 * rng.random(200))[:, None]
    H = domain.hess_zzbar(pts)
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2)))) < 1e-12
    S = domain.hess_zz(pts)
    assert np.max(np.abs(S - np.swapaxes(S, -1, -2))) < 1e-12
    assert np.min(geo.grad_norm(domain, pts)) > 0.1


def test_warped_derivatives_match_finite_differences():
    d = WARP
    z = np.array([0.31 + 0.11j, 0.22 - 0.4j])
    h = 1e-6
    for j in range(2):
        for step, factor in ((h, 1.0), (1j * h, -1j)):
            e = np.zeros(2, dtype=complex)
            e[j] = step
            fd = (d.rho(z + e) - d.rho(z - e)) / (2 * h)
            if factor == 1.0:
                # d/dx = 2 Re d/dz
                assert fd == pytest.approx(2 * d.dz(z)[j].real, rel=1e-5)
            else:
                # d/dy = -2 Im d/dz
                assert fd == pytest.approx(-2 * d.dz(z)[j].imag, rel=1e-5)


@pytest.mark.parametrize("domain,eig,beta", [
    (BALL, 1.0, 1 / 3), (ELL, 1.0, 1 / 3),
    (geo.Quadric((3.0, 5.0)), 3.0, 1.0),
    # sampled near the boundary points, which are radial on a warped domain too
    (WARP, 0.010820667468972341, 0.0036068891563241137),
])
def test_levi_form_min_eigenvalue(domain, eig, beta):
    val = geo.levi_form_min_eigenvalue(domain, seed=7)
    assert val == pytest.approx(eig, rel=1e-12)
    assert val / 3.0 == pytest.approx(beta, rel=1e-12)


def test_levi_polynomial_ball_closed_form():
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    z = rand_points(2, 10_000, seed=1)
    zeta = geo.boundary_dense_sequence(BALL, 10_000, seed=2)
    q = geo.levi_polynomial(BALL, z, zeta)
    expect = 2.0 * (1.0 - np.sum(z * np.conj(zeta), axis=1))
    assert np.max(np.abs(q - expect)) < 1e-12


def test_levi_polynomial_ellipsoid_linear():
    zeta = np.array([1.0 + 0j, 0j])
    z = np.array([0.9 + 0j, 0j])
    q = geo.levi_polynomial(ELL, z, zeta)
    assert q == pytest.approx(-2 * 1 * 1 * (0.9 - 1), abs=1e-14)


def _levi_einsum(domain, z, zeta):
    """Q with the holomorphic Hessian term summed even where it is 0."""
    z, zeta = np.asarray(z, dtype=complex), np.asarray(zeta, dtype=complex)
    delta = z - zeta
    lin = 2.0 * np.sum(domain.dz(zeta) * delta, axis=-1)
    quad_term = np.einsum("...j,...jk,...k->...", delta, domain.hess_zz(zeta), delta)
    return -(lin + quad_term)


@pytest.mark.parametrize("text", ["ellipsoid:a=1,2", "rescaled:base=ellipsoid:a=1,2;c=2"])
def test_unwarped_levi_polynomial_skips_the_zero_hessian(text, monkeypatch):
    from hardylab import functions as fn

    domain = geo.parse_domain(text)
    zeta = (1.0 + 0j, 0j)
    z = geo.level_set_sampler(domain, 0.05, count=20_000, seed=3,
                              singular_center=zeta).points
    # only the sign of a zero may move: == treats -0.0 and 0.0 as equal
    assert np.array_equal(geo.levi_polynomial(domain, z, zeta),
                          _levi_einsum(domain, z, zeta))
    specs = (fn.LeviReciprocal(domain, zeta), fn.LeviPower(domain, zeta, 1.5))
    skipped = [np.abs(fn.evaluate(spec, z)) for spec in specs]
    monkeypatch.setattr(fn, "levi_polynomial", _levi_einsum)
    for spec, got in zip(specs, skipped):
        assert np.array_equal(got, np.abs(fn.evaluate(spec, z)))


@pytest.mark.parametrize("domain", [
    BALL, ELL, geo.parse_domain("rescaled:base=ellipsoid:a=1,2;c=2"), WARP])
def test_levi_polynomial_vanishes_on_diagonal(domain):
    # Q(zeta, zeta) = 0 exactly: every term carries a factor z - zeta = 0
    zeta = geo.boundary_dense_sequence(domain, 50, seed=9)
    q = geo.levi_polynomial(domain, zeta, zeta)
    assert np.all(q == 0)


@pytest.mark.parametrize("domain", [BALL, ELL, WARP])
def test_levi_polynomial_holomorphic_in_z(domain):
    # Cauchy-Riemann residual dQ/dzbar via central differences
    zeta = geo.project_to_boundary(domain, np.array([0.8 + 0.1j, 0.3 - 0.2j]))
    rng = np.random.Generator(np.random.Philox(key=[3, 7]))
    h = 1e-5
    for _ in range(20):
        z = 0.5 * (rng.random(2) - 0.5 + 1j * (rng.random(2) - 0.5))
        for j in range(2):
            ex = np.zeros(2, complex)
            ex[j] = h
            ey = np.zeros(2, complex)
            ey[j] = 1j * h
            dx = (geo.levi_polynomial(domain, z + ex, zeta)
                  - geo.levi_polynomial(domain, z - ex, zeta)) / (2 * h)
            dy = (geo.levi_polynomial(domain, z + ey, zeta)
                  - geo.levi_polynomial(domain, z - ey, zeta)) / (2 * h)
            residual = 0.5 * (dx + 1j * dy)  # d/dzbar
            assert abs(residual) < 1e-6


class TestLeviEstimate:
    def test_ball_beta_third_no_violations(self):
        rep = geo.check_levi_estimate(BALL, 1 / 3, eta=0.5, count=10_000, seed=7)
        assert rep.ok
        assert rep.worst_margin > -1e-10

    def test_inflated_beta_fails_with_margin_identity(self):
        # on the ball the margin is exactly (1 - beta)|zeta - z|^2
        rep = geo.check_levi_estimate(BALL, 1.5, eta=0.5, count=2_000, seed=7)
        assert len(rep.violations) >= 1
        z, zeta, margin = rep.violations[0]
        assert margin == pytest.approx(
            (1 - 1.5) * np.sum(np.abs(z - zeta) ** 2), abs=1e-12)

    def test_ellipsoid_no_violations(self):
        beta = geo.levi_form_min_eigenvalue(ELL, seed=7) / 3
        rep = geo.check_levi_estimate(ELL, beta, eta=0.5, count=10_000, seed=7)
        assert rep.ok

    def test_empty_pairs_error(self):
        with pytest.raises(geo.GeometryError, match="no samples"):
            geo.check_levi_estimate(BALL, 1 / 3, eta=0.5, count=0)


class TestLevelSetSampler:
    def test_ball_area_scaling(self):
        for eps in (0.2, 0.1, 0.05):
            s = geo.level_set_sampler(BALL, eps, "parametrized", 5_000, seed=7)
            est = s.integrate(lambda Z: np.ones(len(Z)))
            exact = (1 - eps) ** 1.5 * quad.sphere_area(2)
            assert est.value == pytest.approx(exact, rel=1e-12)

    def test_unit_weights_match_ball(self):
        ell1 = geo.Quadric((1.0, 1.0))
        s1 = geo.level_set_sampler(ell1, 0.1, "parametrized", 20_000, seed=7)
        s2 = geo.level_set_sampler(BALL, 0.1, "parametrized", 20_000, seed=7)
        e1 = s1.integrate(lambda Z: np.linalg.norm(Z, axis=1))
        e2 = s2.integrate(lambda Z: np.linalg.norm(Z, axis=1))
        assert abs(e1.value - e2.value) <= 3 * e1.combined_stderr(e2)

    def test_methods_agree_on_area(self):
        sp = geo.level_set_sampler(ELL, 0.1, "parametrized", 100_000, seed=7)
        st_ = geo.level_set_sampler(ELL, 0.1, "thin-shell", 2_000_000, seed=7)
        ap = sp.integrate(lambda Z: np.ones(len(Z))).value
        at = st_.integrate(lambda Z: np.ones(len(Z))).value
        assert abs(ap - at) / ap < 0.02

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_methods_agree_three_levels(self, eps):
        one = lambda Z: np.ones(len(Z))
        ep = geo.level_set_sampler(ELL, eps, "parametrized", 100_000,
                                   seed=7).integrate(one)
        et = geo.level_set_sampler(ELL, eps, "thin-shell", 2_000_000,
                                   seed=11).integrate(one)
        assert abs(ep.value - et.value) <= 3 * ep.combined_stderr(et)

    def test_weights_positive_and_measure_consistent(self):
        s = geo.level_set_sampler(ELL, 0.1, "thin-shell", 500_000, seed=3)
        assert np.all(s.weights > 0)
        est = s.integrate(lambda Z: np.ones(len(Z)))
        exact = 10.271879  # closed-form 1-D reduction of the ellipsoid area
        assert abs(est.value - exact) <= 3 * max(est.stderr, 1e-3)

    def test_eps_validation(self):
        with pytest.raises(geo.GeometryError):
            geo.level_set_sampler(BALL, 1.5, "parametrized", 100)
        with pytest.raises(geo.GeometryError):
            geo.level_set_sampler(BALL, -0.1, "parametrized", 100)

    def test_parametrized_rejects_warped(self):
        with pytest.raises(geo.GeometryError, match="parametrized"):
            geo.level_set_sampler(WARP, 0.1, "parametrized", 100)

    def test_shell_not_hit(self):
        with pytest.raises(quad.QuadratureError, match="shell not hit"):
            geo.level_set_sampler(ELL, 0.01, "thin-shell", 10, seed=5)


class TestBoundarySequence:
    def test_points_on_boundary(self):
        for domain in (BALL, ELL, WARP):
            w = geo.boundary_dense_sequence(domain, 500, seed=7)
            assert np.max(np.abs(domain.rho(w))) < 1e-12

    def test_single_point_is_unit(self):
        w = geo.boundary_dense_sequence(BALL, 1, seed=7)
        assert np.linalg.norm(w[0]) == pytest.approx(1.0, abs=1e-12)

    def test_covering_radius_small_and_decreasing(self):
        # brute-force nearest neighbor against a fine probe grid on S^3
        probes = quad.sample_sphere(2, 4000, seed=123)
        pr = geo.to_real(probes)

        def covering(count):
            w = geo.to_real(geo.boundary_dense_sequence(BALL, count, seed=7))
            d2 = np.sum(pr ** 2, 1)[:, None] - 2 * pr @ w.T + np.sum(w ** 2, 1)[None, :]
            return float(np.sqrt(np.maximum(d2, 0).min(axis=1)).max())

        c1000 = covering(1000)
        assert c1000 < 0.35
        assert covering(4000) < c1000


@pytest.mark.parametrize("text", [
    "warped:base=ellipsoid:a=1,2;u=x1",
    "rescaled:base=warped:base=ellipsoid:a=1,2;u=x1;c=0.5"])
def test_warped_boundary_is_the_base_quadrics(text):
    # the multiplier c exp(warps Re z_1) is positive: {rho = 0} = {q = 0}
    got = geo.boundary_dense_sequence(geo.parse_domain(text), 500, seed=7)
    assert np.array_equal(got, geo.boundary_dense_sequence(ELL, 500, seed=7))


class TestProjectToBoundary:
    def test_radial_examples(self):
        w = geo.project_to_boundary(BALL, np.array([0.5 + 0j, 0j]))
        assert np.allclose(w, [1.0, 0.0], atol=1e-12)
        w2 = geo.project_to_boundary(ELL, np.array([0j, 0.5 + 0j]))
        assert np.allclose(w2, [0.0, 1 / np.sqrt(2)], atol=1e-12)

    def test_boundary_fixed_point(self):
        z = geo.boundary_dense_sequence(ELL, 1, seed=4)[0]
        w = geo.project_to_boundary(ELL, z)
        assert np.allclose(w, z, atol=1e-9)

    def test_newton_path_for_warped(self):
        w = geo.project_to_boundary(WARP, np.array([0.4 + 0.2j, 0.3 - 0.1j]))
        assert abs(WARP.rho(w)) <= 1e-12

    def test_warped_projection_is_the_base_quadrics(self):
        z = np.array([0.4 + 0.2j, 0.3 - 0.1j])
        w = geo.project_to_boundary(WARP, z)
        assert np.array_equal(w, geo.project_to_boundary(ELL, z))
        assert abs(WARP.rho(w)) <= 1e-15

    @pytest.mark.parametrize("domain", [BALL, WARP])
    def test_origin_is_refused(self, domain):
        with pytest.raises(geo.GeometryError, match="origin"):
            geo.project_to_boundary(domain, np.zeros(2, complex))
