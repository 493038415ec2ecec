"""The rule builders work on whole arrays and give the rules of the
one-at-a-time constructions they replace, bit for bit: the zonal disk rule
against its angle-by-angle build, the cached fold against the full rule, and
the joint Beta-band inversion against one solve per band."""

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


# the importance sampler as it drew band by band: each band's uniforms, its
# Beta inversion and its tangential directions, center by center
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
                bl, bh, bu = bands[m]
                v = bl + rng.random(ns) * (bh - bl)
                if bu:
                    x = 1.0 - quad._symmetric_betaincinv(a, np.maximum(v, 1e-300))
                else:
                    x = quad._symmetric_betaincinv(a, v)
                t = 2.0 * x - 1.0
                dirs = quad._unit_gaussians(rng, ns, d - 1) @ quad._complement_basis(xs[j]).T
                pts[sel] = (t[:, None] * xs[j][None, :]
                            + np.sqrt(np.maximum(1.0 - t ** 2, 0.0))[:, None] * dirs)

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
