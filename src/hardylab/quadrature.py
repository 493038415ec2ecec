"""Surface quadrature: Monte Carlo on spheres and caps, a deterministic zonal
fast path for integrands of one Hermitian pairing, and level-set samplers.

All estimators are pure functions of (inputs, seed).  Randomness is
counter-based (Philox), node evaluation vectorizes, and accumulation uses
numpy's fixed pairwise summation order, so results are reproducible bit for
bit under any parallel scheduling of independent estimates.

An integrand may return a (P, N) stack of values, one row per integrand on
the rule's nodes; every ``integrate_*`` entry point and
``SurfaceSampler.integrate`` passes it through to ``reduce_nodes`` and
returns a list of P estimates, while a region found empty before any
integrand is evaluated still gives one estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincinv, roots_legendre

from .geometry import grad_norm, rng_stream, to_complex, to_real

OVERFLOW_LIMIT = 1e300
SHELL_CHUNK_ROWS = 65_536  # thin-shell proposals evaluated per step
SHELL_EPS_DIVISOR = 10.0   # thin-shell half-width h = eps / 10


class QuadratureError(RuntimeError):
    pass


def sphere_area(n):
    """Euclidean surface area of the unit sphere of C^n: 2 pi^n / (n-1)!."""
    return 2.0 * np.pi ** n / math.factorial(n - 1)


def sphere_area_real(d):
    """Surface area of S^{d-1} in R^d."""
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    stderr: float
    count: int
    method: str
    overflowed: bool = False

    def combined_stderr(self, other):
        return math.hypot(self.stderr, other.stderr)


def reduce_nodes(weights, vals, method, error=None):
    """The one reduction of every rule: node weights and integrand values to
    an IntegralEstimate, of value sum(weights * vals) unless ``error`` is "iid".

    Non-finite integrand values, or a total beyond OVERFLOW_LIMIT, give an
    overflowed estimate.  ``error`` is the sampling model of the nodes, which
    fixes the stderr: None for a deterministic rule (zero); a tuple of slices
    for independently sampled strata; an int for the proposal count of a
    rejection-sampled rule; "iid" for independent draws, where each
    weight * value estimates the whole integral, the value is their mean and
    the stderr their ddof=1 deviation over sqrt(N).  A scalar iid weight
    factors out of the mean, so a constant integrand integrates exactly.

    A (P, N) stack of integrand values, one row per integrand on the same
    nodes, gives a list of P estimates, each row reduced exactly as it would
    be alone.
    """
    weights = np.asarray(weights, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 2:
        return [reduce_nodes(weights, row, method, error) for row in vals]
    count = np.broadcast(weights, vals).size
    if not np.all(np.isfinite(vals)):
        return IntegralEstimate(np.inf, np.inf, count, method, overflowed=True)
    with np.errstate(over="ignore"):  # a total out of float range is flagged below
        y = weights * vals
        if error != "iid":
            total = np.sum(y)
        else:
            total = weights * np.mean(vals) if weights.ndim == 0 else np.mean(y)
        if not np.isfinite(total) or abs(total) > OVERFLOW_LIMIT:
            return IntegralEstimate(np.inf, np.inf, count, method, overflowed=True)
        if error is None:
            var = 0.0
        elif error == "iid":
            var = np.var(y, ddof=1) / count
        elif isinstance(error, tuple):
            var = sum(np.sum(y[sl] ** 2) - np.sum(y[sl]) ** 2 / y[sl].size
                      for sl in error if y[sl].size > 1)
        else:
            var = np.sum(y ** 2) - total ** 2 / error
    return IntegralEstimate(float(total), math.sqrt(max(var, 0.0)), count, method)


# ---------------------------------------------------------------------------
# Monte Carlo on the unit sphere of C^n
# ---------------------------------------------------------------------------

def sample_sphere(n, count, seed, stream=0):
    """Uniform points on the unit sphere of C^n via normalized Gaussians."""
    return to_complex(_unit_gaussians(rng_stream(seed, 0x5F, stream), count, 2 * n))


def _unit_gaussians(rng, count, d):
    """``count`` uniform directions in R^d: normalized Gaussian draws."""
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def integrate_sphere(g, n, count=100_000, seed=7):
    """Unbiased Monte Carlo of g against the unnormalized surface measure."""
    if count < 100:
        raise QuadratureError("count must be >= 100")
    z = sample_sphere(n, count, seed)
    return reduce_nodes(sphere_area(n), g(z), "mc-sphere", "iid")


def integrate_sphere_importance(g, n, centers, depth_scale, count=100_000, seed=7):
    """Unbiased sphere integral with proposals graded toward singular centers.

    The proposal is a mixture of the uniform distribution (weight 1/2) and,
    per center, uniform draws conditioned on geometric chordal bands around
    it.  Conditioned-on-band uniform draws have density (band mass)^-1 times
    uniform, so the mixture density is closed form and the estimator
    mean(g/q) is unbiased for any integrand; the band grading matches the
    octave-by-octave mass profile of the boundary-singular integrands.
    """
    if count < 100:
        raise QuadratureError("count must be >= 100")
    centers = [np.asarray(c, dtype=complex) for c in centers]
    if not centers:
        return integrate_sphere(g, n, count, seed)
    d = 2 * n
    a = (d - 1) / 2.0
    xs = [to_real(c / np.linalg.norm(c)) for c in centers]
    t_edges = _ring_t_edges(depth_scale)
    u_edges = (1.0 + t_edges) / 2.0
    fracs = np.array([_band_fraction(a, u_edges[i], u_edges[i + 1])
                      for i in range(len(u_edges) - 1)])
    keep = fracs > 1e-300
    fracs = fracs[keep]
    u_lo = u_edges[:-1][keep]
    u_hi = u_edges[1:][keep]
    t_sorted_edges = np.concatenate([u_lo, [u_hi[-1]]]) * 2.0 - 1.0
    J, M = len(centers), len(fracs)

    rng = rng_stream(seed, 0x1B0, 0)
    comp = rng.integers(0, 2 * J * M, size=count)  # < J*M: banded; else uniform
    pts = np.empty((count, d))
    uniform_mask = comp >= J * M
    nu = int(uniform_mask.sum())
    if nu:
        pts[uniform_mask] = _unit_gaussians(rng, nu, d)
    for j in range(J):
        for m in range(M):
            sel = comp == j * M + m
            ns = int(sel.sum())
            if ns:
                pts[sel] = _band_points(xs[j], u_lo[m], u_hi[m], ns, rng)

    # mixture density relative to the uniform one
    boost = np.full(count, 0.5)
    for j in range(J):
        tj = pts @ xs[j]
        band = np.clip(np.searchsorted(t_sorted_edges, tj, side="right") - 1, 0, M - 1)
        in_range = (tj >= t_sorted_edges[0]) & (tj <= t_sorted_edges[-1])
        contrib = np.where(in_range, 1.0 / fracs[band], 0.0)
        boost += 0.5 * contrib / (J * M)

    return reduce_nodes(sphere_area(n) / boost, g(to_complex(pts)),
                        "mc-importance", "iid")


def integrate_cap(g, center, radius, n, count=100_000, seed=7, complement=False):
    """Monte Carlo of g over the cap {z in S : |z - center| < radius}.

    Samples the cap directly (cosine in a truncated Beta band, tangential
    direction uniform) so no nodes are wasted outside the region; the cap
    measure enters exactly.  With complement=True, integrates over the rest
    of the sphere instead.
    """
    if radius <= 0:
        raise QuadratureError("empty cap")
    c = 1.0 - radius ** 2 / 2.0  # chordal radius -> cosine threshold
    u_c = np.clip((1.0 + c) / 2.0, 0.0, 1.0)
    u1, u2 = (0.0, u_c) if complement else (u_c, 1.0)
    frac = _band_fraction((2 * n - 1) / 2.0, u1, u2)
    if frac <= 0.0:
        return IntegralEstimate(0.0, 0.0, 0, "exact-empty")
    center = np.asarray(center, dtype=complex)
    xc = to_real(center / np.linalg.norm(center))
    x = _band_points(xc, u1, u2, count, rng_stream(seed, 0xCA9, 0))
    return reduce_nodes(sphere_area(n) * frac, g(to_complex(x)), "mc-cap", "iid")


# ---------------------------------------------------------------------------
# Zonal fast path
#
# For g(z) = gt(<z, zeta>) with |zeta| = 1 the sphere integral reduces to a
# weighted integral over the unit disk:
#     int_S gt(<z, zeta>) dsigma = c_n  int_D gt(lam) (1 - |lam|^2)^{n-2} dA,
# c_n = 2 pi^{n-1} / (n-2)!.  The singular integrands all blow up at lam -> 1
# only, so both the radial and the angular grids refine geometrically toward
# that point.  The constant is calibrated so gt == 1 returns sigma(S).
# ---------------------------------------------------------------------------

ZONAL_RADIAL_PANELS = 40    # panel edges 1 - 2^-j
ZONAL_RADIAL_NODES = 8
ZONAL_ANGULAR_PANELS = 40   # panel edges pi * 2^-j, mirrored in sign
ZONAL_ANGULAR_NODES = 8


@lru_cache(maxsize=32)
def _gl(m):
    x, w = roots_legendre(m)
    return x, w


def _nodes_on_panels(edges, m):
    edges = np.asarray(edges, dtype=float)
    xg, wg = _gl(m)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * xg[None, :]
    w = 0.5 * (b - a) * np.broadcast_to(wg, x.shape)
    return x.ravel(), w.ravel()


def _geometric_edges(lo, hi, jmax):
    """Panel edges on [lo, hi] refining geometrically toward 1."""
    base = 1.0 - 2.0 ** (-np.arange(1, jmax + 1))
    pts = 1.0 - (1.0 - lo) * (1.0 - base)  # maps 1-2^-j onto [lo, 1]
    pts = pts[(pts > lo) & (pts < hi)]
    return np.concatenate([[lo], np.sort(pts), [hi]])


def _radial_interval(theta, c, mode):
    """Radial s-range of {s cos(theta) > c} (cap) or its complement within [0, 1]."""
    ct = math.cos(theta)
    if mode == "cap":
        if ct > 1e-15:
            lo = max(0.0, c / ct)
            return (lo, 1.0) if lo < 1.0 else None
        return (0.0, 1.0) if c < 0.0 else None
    # complement: s cos(theta) <= c
    if ct > 1e-15:
        hi = min(1.0, c / ct)
        return (0.0, hi) if hi > 0.0 else None
    return (0.0, 1.0) if c >= 0.0 else None


def _theta_nodes(c=None):
    """Angular nodes on panels with edges pi 2^-j, plus an edge at acos(c)
    when the pairing threshold c cuts the disk."""
    edges = [0.0] + [np.pi * 2.0 ** (-j)
                     for j in range(ZONAL_ANGULAR_PANELS, -1, -1)]
    if c is not None and -1.0 < c < 1.0:
        edges = sorted(set(edges) | {math.acos(c)})
    return _nodes_on_panels(np.asarray(edges), ZONAL_ANGULAR_NODES)


def _radial_nodes(lo, hi):
    """Radial nodes on [lo, hi], panels refining toward s = 1."""
    return _nodes_on_panels(_geometric_edges(lo, hi, ZONAL_RADIAL_PANELS),
                            ZONAL_RADIAL_NODES)


@lru_cache(maxsize=64)
def _zonal_nodes(n, mode="full", c=None):
    """Flattened (lam, weight) arrays; weights calibrated against sigma(S^{2n-1})."""
    if n < 2:
        raise QuadratureError("zonal path requires n >= 2")
    theta, wtheta = _theta_nodes(None if mode == "full" else c)

    lam_parts, w_parts = [], []
    for th, wt in zip(theta, wtheta):
        if mode == "full":
            interval = (0.0, 1.0)
        else:
            interval = _radial_interval(th, c, mode)
            if interval is None:
                continue
        s, ws = _radial_nodes(*interval)
        w = wt * ws * s * (1.0 - s ** 2) ** (n - 2)
        lam_parts.append(s * np.exp(1j * th))
        w_parts.append(w)
    if not lam_parts:
        return np.zeros(0, dtype=complex), np.zeros(0)
    lam = np.concatenate(lam_parts)
    w = np.concatenate(w_parts)
    # mirror theta -> -theta
    lam = np.concatenate([lam, np.conj(lam)])
    w = np.concatenate([w, w])
    w = w * _zonal_calibration(n)
    return lam, w


@lru_cache(maxsize=16)
def _zonal_calibration(n):
    """sigma(S^{2n-1}) divided by the full-grid estimate of the disk weight mass."""
    theta, wtheta = _theta_nodes()
    s, ws = _radial_nodes(0.0, 1.0)
    mass = 2.0 * np.sum(wtheta) * np.sum(ws * s * (1.0 - s ** 2) ** (n - 2))
    analytic = np.pi / (n - 1)
    if abs(mass / analytic - 1.0) > 1e-10:
        raise QuadratureError(
            f"zonal calibration failure: relative error {abs(mass / analytic - 1.0):.3e}")
    return sphere_area(n) / mass


def integrate_zonal(gt, n, region="full", c=None):
    """Deterministic quadrature of z -> gt(<z, zeta>) over the unit sphere of C^n.

    ``gt`` must be vectorized over a complex array of pairings with |lam| <= 1.
    region "cap"/"complement" restricts to {Re lam > c} and its complement,
    which are the zonal images of a metric cap around zeta and its complement.
    """
    lam, w = _zonal_nodes(n, region, None if region == "full" else float(c))
    return reduce_nodes(w, gt(lam), "zonal")


# ---------------------------------------------------------------------------
# Real-sphere zonal reduction (harmonic kernels)
#
#   int_{S^{d-1}} G(x . y) dsigma(x)
#     = sigma(S^{d-2}) int_0^2 G(1 - u) ((2 - u) u)^{(d-3)/2} du,   |y| = 1,
#
# in the variable u = 1 - x.y.  Working in u keeps the grid representable
# arbitrarily close to the pole direction: the singular scale of the level
# integrands is quadratic in the boundary gap, far below float resolution of
# cosines near 1, so the integrand receives u itself, never 1 - u.
# ---------------------------------------------------------------------------

REAL_ZONAL_NODES = 10   # Gauss-Legendre nodes per panel
GAP_GRADING_SING = 60   # panel edges 2^-j down to 2^-60 toward u = 0
GAP_GRADING_FAR = 40    # panel edges 2 - 2^-j down to 2^-40 toward u = 2


def _gap_edges(u_hi):
    """Panel edges on [0, u_hi] graded toward the singular end u = 0 and,
    when the full range is used, toward the weight endpoint u = 2."""
    near = 2.0 ** (-np.arange(GAP_GRADING_SING, -1, -1.0))     # toward 0
    far = 2.0 - 2.0 ** (-np.arange(0, GAP_GRADING_FAR + 1.0))  # toward 2
    edges = np.concatenate([[0.0], near, [1.0], far, [2.0]])
    edges = np.unique(edges[edges <= u_hi])
    if edges[-1] < u_hi:
        edges = np.concatenate([edges, [u_hi]])
    return edges


@lru_cache(maxsize=64)
def _real_zonal_nodes(d, u_hi):
    u, wu = _nodes_on_panels(_gap_edges(u_hi), REAL_ZONAL_NODES)
    w = wu * ((2.0 - u) * u) ** ((d - 3) / 2.0)
    return u, w * _real_zonal_calibration(d)


@lru_cache(maxsize=16)
def _real_zonal_calibration(d):
    u, wu = _nodes_on_panels(_gap_edges(2.0), REAL_ZONAL_NODES)
    mass = np.sum(wu * ((2.0 - u) * u) ** ((d - 3) / 2.0))
    analytic = sphere_area_real(d) / sphere_area_real(d - 1)
    if abs(mass / analytic - 1.0) > 1e-8:
        raise QuadratureError("real zonal calibration failure")
    return sphere_area_real(d) / mass


def integrate_real_zonal(G, d, u_hi=2.0):
    """Deterministic quadrature of x -> G(1 - x.y) over S^{d-1}.

    ``G`` receives the gap u = 1 - x.y (vectorized); ``u_hi`` restricts the
    integral to the spherical cap {x . y > 1 - u_hi}.
    """
    if d < 3:
        raise QuadratureError("real zonal reduction requires d >= 3")
    if u_hi <= 0.0:
        return IntegralEstimate(0.0, 0.0, 0, "exact-empty")
    u, w = _real_zonal_nodes(d, float(min(u_hi, 2.0)))
    return reduce_nodes(w, G(u), "real-zonal")


# ---------------------------------------------------------------------------
# Surface samplers (level sets, stratified rings, thin shells)
# ---------------------------------------------------------------------------

@dataclass
class SurfaceSampler:
    """Nodes and positive weights approximating integration over a hypersurface.

    ``strata`` slices group nodes into independently sampled strata for the
    variance estimate (None: one stratum); ``proposals`` records the total
    proposal count of a rejection-sampled (thin-shell) rule.
    """

    method: str
    count: int
    points: np.ndarray
    weights: np.ndarray
    strata: tuple = None
    proposals: int = None

    def integrate(self, g):
        error = self.proposals
        if error is None:
            error = self.strata or (slice(None),)
        return reduce_nodes(self.weights, g(self.points), self.method, error)


def _complement_basis(xc):
    """Orthonormal basis of the hyperplane orthogonal to unit vector xc."""
    d = xc.size
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = e1 - xc
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(d)[:, 1:]
    v /= nv
    H = np.eye(d) - 2.0 * np.outer(v, v)  # Householder sends e1 -> xc
    return H[:, 1:]


def _band_fraction(a, u1, u2):
    """Beta(a, a) mass of (u1, u2), using the symmetric tail for precision near 1."""
    if u1 >= 0.5:
        return betainc(a, a, 1.0 - u1) - betainc(a, a, 1.0 - u2)
    return betainc(a, a, u2) - betainc(a, a, u1)


def _sample_band(a, u1, u2, count, rng):
    """Exact uniform-on-sphere cosines within a band, via truncated Beta inversion."""
    u = rng.random(count)
    if u1 >= 0.5:
        g1 = betainc(a, a, 1.0 - u1)
        g2 = betainc(a, a, 1.0 - u2)
        tail = g2 + u * (g1 - g2)
        return 1.0 - betaincinv(a, a, np.maximum(tail, 1e-300))
    f1 = betainc(a, a, u1)
    f2 = betainc(a, a, u2)
    return betaincinv(a, a, f1 + u * (f2 - f1))


MAX_RINGS = 26  # ring strata (chordal radii 2^{1-m}) around a sphere point


def _ring_t_edges(d_star):
    """Cosine edges of geometric chordal rings 2*2^-m around a sphere point."""
    M = int(np.clip(np.ceil(np.log2(2.0 / max(d_star, 1e-9))) + 2, 4, MAX_RINGS))
    m = np.arange(0, M + 1)
    t = 1.0 - 2.0 ** (1.0 - 2.0 * m)  # chordal 2^{1-m} -> t = 1 - d^2/2
    return np.concatenate([t, [1.0]])


def _band_points(xc, u1, u2, count, rng):
    """``count`` uniform points of S^{d-1} whose cosine to the unit vector xc
    lies in (2 u1 - 1, 2 u2 - 1): the cosine by truncated Beta inversion, then
    a uniform tangential direction, both drawn from ``rng`` in that order."""
    d = xc.size
    t = 2.0 * _sample_band((d - 1) / 2.0, u1, u2, count, rng) - 1.0
    v = _unit_gaussians(rng, count, d - 1) @ _complement_basis(xc).T
    return t[:, None] * xc[None, :] + np.sqrt(np.maximum(1.0 - t ** 2, 0.0))[:, None] * v


@lru_cache(maxsize=32)
def _sphere_nodes_stratified(d, center, count, seed, d_star):
    """Stratified uniform nodes on S^{d-1}: geometric rings around ``center``
    (a tuple of floats, so that the rule can be cached on its full input).

    Returns (points (m, d), measure weights (m,), strata slices).  Each stratum
    is sampled uniformly with respect to surface measure, so the estimator is
    unbiased stratum by stratum.  The arrays are shared by every caller with
    the same input and are read-only.
    """
    center = np.asarray(center, dtype=float)
    a = (d - 1) / 2.0
    t_edges = _ring_t_edges(d_star)
    u_edges = (1.0 + t_edges) / 2.0
    n_strata = len(t_edges) - 1
    per = max(count // n_strata, 16)
    total_area = sphere_area_real(d)

    pts, wts, slices = [], [], []
    start = 0
    for i in range(n_strata):
        frac = _band_fraction(a, u_edges[i], u_edges[i + 1])
        if frac <= 0.0:
            continue
        pts.append(_band_points(center, u_edges[i], u_edges[i + 1], per,
                                rng_stream(seed, 0x57A7, i)))
        wts.append(np.full(per, total_area * frac / per))
        slices.append(slice(start, start + per))
        start += per
    pts, wts = np.concatenate(pts), np.concatenate(wts)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts, tuple(slices)


def parametrized_level_sampler(weights, eps, count, seed, singular_center=None):
    """Sampler for {sum a_j |z_j|^2 = 1 - eps}: linear image of the unit sphere.

    The image of a sphere point x under the diagonal map T with coordinate
    scales R_j = sqrt((1-eps)/a_j) carries surface weight |det T| |T^-T x|.
    With ``singular_center`` (a boundary point), nodes are stratified into
    geometric rings around its preimage to tame integrands singular there.
    """
    a = np.asarray(weights, dtype=float)
    n = a.size
    R = np.sqrt((1.0 - eps) / a)
    det = float(np.prod(R ** 2))

    if singular_center is None:
        pts_c = sample_sphere(n, count, seed, stream=0xA11)
        w = np.full(count, sphere_area(n) / count)
        strata = None
    else:
        zc = np.asarray(singular_center, dtype=complex) / R
        zc = zc / np.linalg.norm(zc)
        pts_r, w, strata = _sphere_nodes_stratified(
            2 * n, tuple(float(x) for x in to_real(zc)), count, seed,
            math.sqrt(eps))
        pts_c = to_complex(pts_r)
    jac = det * np.sqrt(np.sum(np.abs(pts_c) ** 2 / R ** 2, axis=-1))
    return SurfaceSampler(method="parametrized", count=len(w),
                          points=pts_c * R, weights=w * jac, strata=strata)


def thin_shell_sampler(domain, eps, proposals, seed, within=None, focus=None):
    """Coarea shell estimator for {rho = -eps}: rejection sampling in a box.

      int_{rho=-eps} g dsigma ~= (1/2h) int_{|rho+eps|<h} g |grad rho| dV,

    with h = eps / SHELL_EPS_DIVISOR, box proposals and accepted nodes weighted
    by |grad rho|/(2h N q), q the proposal density.  ``within`` (center,
    radius) shrinks the proposal box to the cube around a ball outside of
    which the integrand vanishes.
    ``focus`` (a boundary point) switches proposals to an equal-weight mixture
    of nested boxes shrinking geometrically toward it, whose closed-form
    density keeps the estimator unbiased while singular integrands
    concentrated there get sampled at every scale.
    """
    h = eps / SHELL_EPS_DIVISOR
    b = domain.box_halfwidths()
    lo = -np.repeat(b, 2)
    hi = np.repeat(b, 2)
    if within is not None:
        center, radius = within
        c = to_real(np.asarray(center, dtype=complex))
        lo = np.maximum(lo, c - radius)
        hi = np.minimum(hi, c + radius)
        if np.any(lo >= hi):
            raise QuadratureError("restriction box does not meet the domain box")
    span = hi - lo

    if focus is None:
        los, his = lo[None, :], hi[None, :]
    else:
        c = to_real(np.asarray(focus, dtype=complex))
        K = int(np.clip(np.ceil(np.log2(1.0 / math.sqrt(max(eps, 1e-12)))) + 2,
                        2, 16))
        # box 0 spans the whole region; the rest shrink geometrically to c
        half = np.max(span) * 2.0 ** (-np.arange(K, dtype=float))
        los = np.maximum(lo[None, :], c[None, :] - half[:, None])
        his = np.minimum(hi[None, :], c[None, :] + half[:, None])
    vols = np.prod(his - los, axis=1)
    K = len(vols)

    rng = rng_stream(seed, 0x7541)
    accepted, weights = [], []
    batch = min(int(proposals), 2_000_000)
    remaining = int(proposals)
    while remaining > 0:
        nb = min(batch, remaining)
        comp = rng.integers(0, K, size=nb) if K > 1 else np.zeros(nb, dtype=int)
        # U is drawn chunk by chunk: consecutive draws continue one stream, so
        # the proposals and the order of the accepted nodes are those of one
        # draw of the whole batch, without its batch-sized temporaries
        for start in range(0, nb, SHELL_CHUNK_ROWS):
            cc = comp[start:start + SHELL_CHUNK_ROWS]
            U = rng.random((cc.size, 2 * domain.n))
            X = los[cc] + U * (his[cc] - los[cc])
            Z = to_complex(X)
            r = domain.defining.rho(Z)
            mask = np.abs(r + eps) < h
            if mask.any():
                Xa = X[mask]
                Za = Z[mask]
                dens = np.zeros(len(Xa))
                for k in range(K):
                    inside = np.all((Xa >= los[k]) & (Xa <= his[k]), axis=1)
                    dens += inside / (K * vols[k])
                accepted.append(Za)
                weights.append(grad_norm(domain.defining, Za)
                               / (2.0 * h * proposals * dens))
        remaining -= nb
    if not accepted:
        raise QuadratureError("shell not hit")
    pts = np.concatenate(accepted)
    w = np.concatenate(weights)
    return SurfaceSampler(method="thin-shell", count=len(w), points=pts,
                          weights=w, proposals=int(proposals))


def integrate_level_set(g, domain, eps, method="parametrized", count=100_000,
                        seed=7, within=None, singular_center=None):
    """Integral of g over {rho = -eps} against Euclidean surface measure.

    ``within`` (center, radius) restricts the integral to the open ball
    {|Z - center| < radius}, the open set U of local Hardy norms; the
    thin-shell proposal box shrinks to it.
    """
    from .geometry import level_set_sampler  # sampler construction is geometric

    sampler = level_set_sampler(domain, eps, method=method, count=count, seed=seed,
                                singular_center=singular_center, within=within)
    if within is None:
        return sampler.integrate(g)
    center, radius = within
    c = np.asarray(center, dtype=complex)
    return sampler.integrate(lambda Z: np.asarray(g(Z), dtype=float)
                             * (np.linalg.norm(Z - c, axis=-1) < radius))
