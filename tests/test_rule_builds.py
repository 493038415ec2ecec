"""The rule builders work on whole arrays and give the rules of the
one-at-a-time constructions they replace, bit for bit: the zonal disk rule
against its angle-by-angle build, the cached fold against the full rule, the
in-place S_m(phi) against the form that copies, the joint Beta-band
inversion against one solve per band, and the banded sphere rules
(importance mixture, caps, ring strata) against their draws band by band."""

import math

import numpy as np
import pytest

from hardylab import geometry as geo
from hardylab import quadrature as quad

CUTS = [-1.0, -0.5, 0.0, 0.3, 0.8, 0.8721, 0.875, 0.99]


def _radial_interval(theta, c, complement):
    """The radial range of one angle, as the angle-by-angle build took it."""
    ct = math.cos(theta)
    if abs(ct) <= 1e-15:
        return (0.0, 1.0) if (c < 0.0) != complement else None
    t = c / ct
    if (ct > 0.0) != complement:
        lo = max(0.0, t)
        return (lo, 1.0) if lo < 1.0 else None
    hi = min(1.0, t)
    return (0.0, hi) if hi > 0.0 else None


def _zonal_nodes_by_angle(n, c, complement):
    """The disk rule built one angle at a time, then mirrored."""
    theta, wtheta = quad._theta_nodes(c)
    lam_parts, w_parts = [], []
    for th, wt in zip(theta, wtheta):
        interval = _radial_interval(th, c, complement)
        if interval is None:
            continue
        s, ws = quad._radial_nodes(*interval)
        w = wt * ws * s * (1.0 - s ** 2) ** (n - 2)
        lam_parts.append(s * np.exp(1j * th))
        w_parts.append(w)
    if not lam_parts:
        return np.zeros(0, dtype=complex), np.zeros(0)
    lam = np.concatenate(lam_parts)
    w = np.concatenate(w_parts)
    lam = np.concatenate([lam, np.conj(lam)])
    w = np.concatenate([w, w])
    w = w * quad._zonal_calibration(n)
    return lam, w


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


@pytest.mark.parametrize("complement", [False, True], ids=["cap", "complement"])
@pytest.mark.parametrize("c", CUTS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zonal_rule_is_the_angle_by_angle_build(n, c, complement):
    lam, w = quad._zonal_nodes(n, c, complement)
    ref_lam, ref_w = _zonal_nodes_by_angle(n, c, complement)
    assert _same_bits(lam, ref_lam) and _same_bits(w, ref_w)


@pytest.mark.parametrize("complement", [False, True], ids=["cap", "complement"])
@pytest.mark.parametrize("c", [-1.0, 0.3, 0.875])
def test_cache_holds_the_fold_of_the_full_rule(c, complement):
    lam, w = quad._zonal_fold(2, c, complement)
    full_lam, full_w = quad._zonal_nodes(2, c, complement)
    half = full_lam.size // 2
    assert _same_bits(lam, full_lam[:half]) and _same_bits(w, 2.0 * full_w[:half])
    assert not lam.flags.writeable and not w.flags.writeable


def test_rule_of_no_angle_is_empty():
    # c = 1 leaves no cap, and its complement c = -1 is the whole disk
    lam, w = quad._zonal_nodes(2, 1.0, False)
    assert lam.size == w.size == 0 and lam.dtype == complex
    est = quad.integrate_zonal(lambda x: np.ones(x.shape), 2, 1.0, even=True)
    assert (est.value, est.count) == (0.0, 0)


def _sin_power_integral_by_copies(phi, m, coeffs):
    """S_m(phi) and sin^{2m}(phi) with a new array for every operation."""
    s, c = np.sin(phi), np.cos(phi)
    sc, s2 = s * c, s * s
    red, power = phi, np.ones_like(phi)
    for k in range(1, m + 1):
        red = ((2 * k - 1) * red - power * sc) / (2 * k)
        power = power * s2
    x2 = phi * phi
    poly = np.full_like(phi, coeffs[-1])
    for cj in coeffs[-2::-1]:
        poly = poly * x2 + cj
    taylor = phi * x2 ** m * poly
    return np.where(phi < quad.BAND_TAYLOR_PHI, taylor, red), power


@pytest.mark.parametrize("m", range(11))
def test_sin_power_integral_in_place_is_the_copying_form(m):
    rng = np.random.default_rng(m)
    phi = np.concatenate([10.0 ** rng.uniform(-40.0, 0.2, 5000),
                          rng.uniform(0.0, np.pi / 2, 5000)])
    coeffs = quad._sin_power_series(m)[1]
    got = quad._sin_power_integral(phi.copy(), m, coeffs)
    ref = _sin_power_integral_by_copies(phi, m, coeffs)
    assert all(_same_bits(x, y) for x, y in zip(got, ref))


SIZES = [1, 2, 3, 7, 10, 31, 100, 1000, 10_000, 1, 5]


def _tail_targets(sizes, tail, seed):
    """One array of CDF targets per band: deep in the lower tail (down to
    1e-120), or in the upper tail (1 - y down to 1e-16)."""
    rng = np.random.default_rng(seed)
    if tail == "lower":
        return [10.0 ** rng.uniform(-120.0, -1.0, m) for m in sizes]
    return [1.0 - 10.0 ** rng.uniform(-16.0, -1.0, m) for m in sizes]


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("a", [1.5, 2.5, 3.5])
def test_joint_inversion_is_one_solve_per_band(a, tail):
    ys = _tail_targets(SIZES, tail, seed=int(2 * a))
    joint = quad._symmetric_betaincinv(a, np.concatenate(ys), SIZES)
    alone = [quad._symmetric_betaincinv(a, y) for y in ys]
    assert _same_bits(joint, np.concatenate(alone))


@pytest.mark.parametrize("a", [1.5, 2.5, 3.5])
def test_joint_band_draws_are_the_draws_band_by_band(a):
    # every ring band, in both tails of the law, with 1 to 10,000 uniforms
    u = (1.0 + quad._ring_t_edges(1e-9)) / 2.0
    lo, hi, upper = quad._band_cdf(a, u[:-1], u[1:])
    assert upper.any() and not upper.all()
    rng = geo.rng_stream(int(2 * a), 0xB1)
    bands = [(lo[i % lo.size], hi[i % lo.size], upper[i % lo.size])
             for i in range(2 * lo.size)]
    uniforms = [rng.random(SIZES[i % len(SIZES)]) for i in range(len(bands))]
    joint = quad._band_quantiles(a, bands, uniforms)
    alone = [quad._band_quantiles(a, [b], [v]) for b, v in zip(bands, uniforms)]
    assert _same_bits(joint, np.concatenate(alone))


def _band_alone(xc, band, count, rng):
    """One band's points as drawn on their own: the band's uniforms, one Beta
    solve for them, then its tangential directions."""
    d = xc.size
    a = (d - 1) / 2.0
    lo, hi, upper = band
    v = lo + rng.random(count) * (hi - lo)
    if upper:
        x = 1.0 - quad._symmetric_betaincinv(a, np.maximum(v, 1e-300))
    else:
        x = quad._symmetric_betaincinv(a, v)
    t = 2.0 * x - 1.0
    dirs = quad._unit_gaussians(rng, count, d - 1) @ quad._complement_basis(xc).T
    return t[:, None] * xc + np.sqrt(np.maximum(1.0 - t ** 2, 0.0))[:, None] * dirs


# the importance sampler as it drew band by band, center by center
def _importance_rule_by_band(n, centers, depth_scale, count, seed):
    centers = [np.asarray(c, dtype=complex) for c in centers]
    d = 2 * n
    a = (d - 1) / 2.0
    xs = [geo.to_real(c / np.linalg.norm(c)) for c in centers]
    t_edges = quad._ring_t_edges(depth_scale)
    u_edges = (1.0 + t_edges) / 2.0
    lo, hi, upper = quad._band_cdf(a, u_edges[:-1], u_edges[1:])
    fracs = hi - lo
    keep = fracs > 1e-300
    fracs = fracs[keep]
    bands = list(zip(lo[keep], hi[keep], upper[keep]))
    u_lo = u_edges[:-1][keep]
    u_hi = u_edges[1:][keep]
    t_sorted_edges = np.concatenate([u_lo, [u_hi[-1]]]) * 2.0 - 1.0
    J, M = len(centers), len(fracs)

    rng = geo.rng_stream(seed, 0x1B0, 0)
    comp = rng.integers(0, 2 * J * M, size=count)
    pts = np.empty((count, d))
    uniform_mask = comp >= J * M
    nu = int(uniform_mask.sum())
    if nu:
        pts[uniform_mask] = quad._unit_gaussians(rng, nu, d)
    for j in range(J):
        for m in range(M):
            sel = comp == j * M + m
            ns = int(sel.sum())
            if ns:
                pts[sel] = _band_alone(xs[j], bands[m], ns, rng)

    boost = np.full(count, 0.5)
    for j in range(J):
        tj = pts @ xs[j]
        band = np.clip(np.searchsorted(t_sorted_edges, tj, side="right") - 1, 0, M - 1)
        in_range = (tj >= t_sorted_edges[0]) & (tj <= t_sorted_edges[-1])
        contrib = np.where(in_range, 1.0 / fracs[band], 0.0)
        boost += 0.5 * contrib / (J * M)
    return pts, quad.sphere_area(n) / boost


def _importance_rule(n, centers, depth_scale, count, seed, monkeypatch):
    seen = {}
    reduce_nodes = quad.reduce_nodes

    def spy(weights, vals, method, error=None):
        seen["w"] = np.array(weights)
        return reduce_nodes(weights, vals, method, error)

    def g(Z):
        seen["x"] = geo.to_real(Z)
        return np.ones(len(Z))

    monkeypatch.setattr(quad, "reduce_nodes", spy)
    quad.integrate_sphere_importance(g, n, centers, depth_scale, count, seed)
    return seen["x"], seen["w"]


E1 = (1.0 + 0j, 0j)
CENTERS = [E1, (0.6 + 0.0j, 0.8j), (0j, -1.0 + 0j)]


@pytest.mark.parametrize("seed", [7, 11, 13])
@pytest.mark.parametrize("depth", [0.3, 1e-4], ids=["shallow", "deep"])
@pytest.mark.parametrize("centers", [CENTERS[:1], CENTERS], ids=["one", "three"])
def test_importance_rule_keeps_its_draw_order(centers, depth, seed, monkeypatch):
    pts, w = _importance_rule(2, centers, depth, 2000, seed, monkeypatch)
    ref_pts, ref_w = _importance_rule_by_band(2, centers, depth, 2000, seed)
    ref_pts = geo.to_real(geo.to_complex(ref_pts))  # as the integrand sees them
    assert _same_bits(pts, ref_pts) and _same_bits(w, ref_w)


# the ring strata as they were built band by band, each band on its stream
def _strata_by_band(d, center, count, seed, d_star):
    a = (d - 1) / 2.0
    t_edges = quad._ring_t_edges(d_star)
    u = (1.0 + t_edges) / 2.0
    n_strata = len(t_edges) - 1
    per = max(count // n_strata, 16)
    lo, hi, upper = quad._band_cdf(a, u[:-1], u[1:])
    pts, wts, slices = [], [], []
    for i in range(n_strata):
        frac = hi[i] - lo[i]
        if frac <= 0.0:
            continue
        pts.append(_band_alone(center, (lo[i], hi[i], upper[i]), per,
                               geo.rng_stream(seed, 0x57A7, i)))
        wts.append(np.full(per, quad.sphere_area_real(d) * frac / per))
        slices.append(slice(per * len(slices), per * (len(slices) + 1)))
    return np.concatenate(pts), np.concatenate(wts), tuple(slices)


def _pole(n):
    """A unit vector of R^{2n} off the coordinate axes."""
    x = np.zeros(2 * n)
    x[:3] = (0.6, 0.0, 0.8)
    return x


@pytest.mark.parametrize("count", [100, 20_000, 100_000])
@pytest.mark.parametrize("eps", [0.1, 1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [7, 11, 13])
def test_ring_strata_are_the_strata_band_by_band(seed, n, eps, count):
    center = tuple(_pole(n))
    build = quad._sphere_nodes_stratified.__wrapped__  # the builder, uncached
    pts, w, strata = build(2 * n, center, count, seed, math.sqrt(eps))
    ref_pts, ref_w, ref_strata = _strata_by_band(2 * n, np.array(center), count,
                                                 seed, math.sqrt(eps))
    assert _same_bits(pts, ref_pts) and _same_bits(w, ref_w)
    assert strata == ref_strata


# the cap as it was drawn: one band, on its own
def _cap_by_band(n, radius, count, seed, complement):
    c = 1.0 - radius ** 2 / 2.0
    u_c = np.clip((1.0 + c) / 2.0, 0.0, 1.0)
    u1, u2 = (0.0, u_c) if complement else (u_c, 1.0)
    band = quad._band_cdf((2 * n - 1) / 2.0, u1, u2)
    pts = _band_alone(_pole(n), band, count, geo.rng_stream(seed, 0xCA9, 0))
    return pts, quad.sphere_area(n) * (band[1] - band[0])


@pytest.mark.parametrize("complement", [False, True], ids=["cap", "complement"])
@pytest.mark.parametrize("radius", [0.3, 1.0, 1.9])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [7, 11, 13])
def test_cap_rule_is_its_band_alone(seed, n, radius, complement):
    seen = {}

    def g(Z):
        seen["x"] = geo.to_real(Z)
        return np.ones(len(Z))

    est = quad.integrate_cap(g, geo.to_complex(_pole(n)), radius, n, 2000, seed,
                             complement=complement)
    ref_pts, ref_mass = _cap_by_band(n, radius, 2000, seed, complement)
    ref_pts = geo.to_real(geo.to_complex(ref_pts))  # as the integrand sees them
    assert _same_bits(seen["x"], ref_pts)
    assert est.value == ref_mass


@pytest.mark.parametrize("eps,count,nodes", [
    (0.1, 100, 96),       # 6 strata of 16
    (1e-12, 100, 384),    # 24 strata of 16
    (0.1, 20_000, 19_998),  # 6 strata of 3333
])
def test_ring_strata_take_n_strata_times_per_stratum_nodes(eps, count, nodes):
    s = quad.parametrized_level_sampler((1.0, 2.0), eps, count, 7,
                                        singular_center=(1, 0))
    n_strata = len(quad._ring_t_edges(math.sqrt(eps))) - 1
    assert s.count == nodes == n_strata * max(count // n_strata, 16)
    assert len(s.strata) == n_strata
