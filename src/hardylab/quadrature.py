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
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .geometry import box_halfwidths, grad_norm, rng_stream, to_complex, to_real

OVERFLOW_LIMIT = 1e300
MIN_COUNT = 100  # fewest nodes a sphere Monte Carlo rule, or --count, takes
SHELL_CHUNK_ROWS = 65_536  # thin-shell proposals evaluated per step
SHELL_EPS_DIVISOR = 10.0   # thin-shell half-width h = eps / 10
SHELL_SCREEN_MARGIN = 1e-12  # screen slack, relative to the uncancelled |rho|
SHELL_MAX_WORKERS = 4  # thin-shell threads, this one included; each adds a malloc arena


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


def inside_only(g, center, radius, complement=False):
    """g at the nodes inside the open ball {|Z - center| < radius} (outside it
    with ``complement``), 0 at the others, where g is not evaluated."""
    c = np.asarray(center, dtype=complex)

    def restricted(Z):
        inside = (np.linalg.norm(Z - c, axis=-1) < radius) != complement
        vals = np.asarray(g(Z[inside]), dtype=float)
        out = np.zeros(vals.shape[:-1] + inside.shape)
        out[..., inside] = vals
        return out

    return restricted


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
    if count < MIN_COUNT:
        raise QuadratureError(f"count must be >= {MIN_COUNT}")
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
    if count < MIN_COUNT:
        raise QuadratureError(f"count must be >= {MIN_COUNT}")
    centers = [np.asarray(c, dtype=complex) for c in centers]
    if not centers:
        return integrate_sphere(g, n, count, seed)
    d = 2 * n
    a = (d - 1) / 2.0
    xs = [to_real(c / np.linalg.norm(c)) for c in centers]
    t_edges = _ring_t_edges(depth_scale)
    u_edges = (1.0 + t_edges) / 2.0
    lo, hi, upper = _band_cdf(a, u_edges[:-1], u_edges[1:])
    fracs = hi - lo
    keep = fracs > 1e-300
    fracs = fracs[keep]
    bands = list(zip(lo[keep], hi[keep], upper[keep]))
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
                pts[sel] = _band_points(xs[j], bands[m], ns, rng)

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
    band = _band_cdf((2 * n - 1) / 2.0, u1, u2)
    frac = band[1] - band[0]
    if frac <= 0.0:
        return IntegralEstimate(0.0, 0.0, 0, "exact-empty")
    center = np.asarray(center, dtype=complex)
    xc = to_real(center / np.linalg.norm(center))
    x = _band_points(xc, band, count, rng_stream(seed, 0xCA9, 0))
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


# Gauss-Legendre nodes in (0, 1) and their weights, for the rule sizes the
# zonal paths use; the rules are symmetric, so the negative half mirrors them.
# The hex literals are scipy's roots_legendre bit for bit (numpy's leggauss
# differs in the last bit).
_GL_HALF = {
    8: (("0x1.77ac94f3c7346p-3", "0x1.0d129583284b4p-1",
         "0x1.97e4ab249f41ep-1", "0x1.ebab1cb0acc67p-1"),
        ("0x1.736360b199344p-2", "0x1.413c50a25561bp-2",
         "0x1.c76fb531d2b9fp-3", "0x1.9ea1d04ca0346p-4")),
    10: (("0x1.30e507891e278p-3", "0x1.bbcc009016adcp-2",
          "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f2p-1",
          "0x1.f2a3e062af2d8p-1"),
         ("0x1.2e9de7014d6f7p-2", "0x1.13baa7a559c05p-2",
          "0x1.c0b059d00bc38p-3", "0x1.32138c878efe3p-3",
          "0x1.1115f8b62dbd7p-4")),
}


@lru_cache(maxsize=None)
def _gl(m):
    """The m-node Gauss-Legendre rule on [-1, 1], nodes ascending."""
    x, w = (np.array([float.fromhex(h) for h in half]) for half in _GL_HALF[m])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


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


def _radial_interval(theta, c, complement):
    """Radial s-range of {s cos(theta) > c} (a cap) or of its complement
    within [0, 1]."""
    ct = math.cos(theta)
    if not complement:
        if ct > 1e-15:
            lo = max(0.0, c / ct)
            return (lo, 1.0) if lo < 1.0 else None
        return (0.0, 1.0) if c < 0.0 else None
    # complement: s cos(theta) <= c
    if ct > 1e-15:
        hi = min(1.0, c / ct)
        return (0.0, hi) if hi > 0.0 else None
    return (0.0, 1.0) if c >= 0.0 else None


def _theta_nodes(c):
    """Angular nodes on panels with edges pi 2^-j, plus an edge at acos(c)
    when the pairing threshold c cuts the disk."""
    edges = [0.0] + [np.pi * 2.0 ** (-j)
                     for j in range(ZONAL_ANGULAR_PANELS, -1, -1)]
    if -1.0 < c < 1.0:
        edges = sorted(set(edges) | {math.acos(c)})
    return _nodes_on_panels(np.asarray(edges), ZONAL_ANGULAR_NODES)


def _radial_nodes(lo, hi):
    """Radial nodes on [lo, hi], panels refining toward s = 1."""
    return _nodes_on_panels(_geometric_edges(lo, hi, ZONAL_RADIAL_PANELS),
                            ZONAL_RADIAL_NODES)


@lru_cache(maxsize=64)
def _zonal_nodes(n, c, complement):
    """Flattened (lam, weight) arrays of the disk region {Re lam > c}, or of
    its complement; weights calibrated against sigma(S^{2n-1})."""
    if n < 2:
        raise QuadratureError("zonal path requires n >= 2")
    theta, wtheta = _theta_nodes(c)

    lam_parts, w_parts = [], []
    for th, wt in zip(theta, wtheta):
        interval = _radial_interval(th, c, complement)
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
    theta, wtheta = _theta_nodes(-1.0)
    s, ws = _radial_nodes(0.0, 1.0)
    mass = 2.0 * np.sum(wtheta) * np.sum(ws * s * (1.0 - s ** 2) ** (n - 2))
    analytic = np.pi / (n - 1)
    if abs(mass / analytic - 1.0) > 1e-10:
        raise QuadratureError(
            f"zonal calibration failure: relative error {abs(mass / analytic - 1.0):.3e}")
    return sphere_area(n) / mass


def integrate_zonal(gt, n, c=-1.0, complement=False, even=False):
    """Deterministic quadrature of z -> gt(<z, zeta>) over the unit sphere of C^n.

    ``gt`` must be vectorized over a complex array of pairings with |lam| <= 1.
    The integral runs over {Re lam > c}, or its complement with
    ``complement``: the zonal images of a metric cap around zeta and of its
    complement.  The default c = -1 is the whole sphere.

    ``even`` promises that gt(conj(lam)) equals gt(lam) bit for bit.  The
    rule's second half is its first mirrored, lam -> conj(lam) with the same
    weights, so gt is then evaluated on the first half only and reduced with
    doubled weights.  The estimate is the full rule's bit for bit: doubling
    is exact, and every non-empty rule has 2N > 128 nodes with N % 8 == 0,
    where numpy's pairwise sum splits the 2N terms at N, so their sum is
    twice the sum of one half.  Only a product of weight and value below the
    normal range (2^-1022) could round differently when doubled.  The
    estimate reports the full rule's node count.
    """
    lam, w = _zonal_nodes(n, float(c), complement)
    if not even:
        return reduce_nodes(w, gt(lam), "zonal")
    half = lam.size // 2
    est = reduce_nodes(2.0 * w[:half], gt(lam[:half]), "zonal")
    if isinstance(est, IntegralEstimate):
        return replace(est, count=lam.size)
    return [replace(e, count=lam.size) for e in est]


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


BAND_TAYLOR_PHI = 1.0   # below it S_m(phi) is summed as a Taylor series
NEWTON_RTOL = 1e-10     # a relative step this small leaves an error ~ m rtol^2
NEWTON_MAX_STEPS = 40   # n <= 4 needs 4-6; the cap ends only a stall at rounding noise


@lru_cache(maxsize=16)
def _sin_power_series(m):
    """S_m(pi) and the Taylor coefficients c_j of
    S_m(phi) = int_0^phi sin^{2m} = phi^{2m+1} sum_j c_j phi^{2j},
    enough of them that the first one left out is below 1e-18 c_0 at
    phi = BAND_TAYLOR_PHI."""
    s_pi = math.pi * math.prod((2 * k - 1) / (2 * k) for k in range(1, m + 1))
    terms = 40 + 2 * m
    sinc = [(-1) ** k / math.factorial(2 * k + 1) for k in range(terms)]
    b = [1.0] + [0.0] * (terms - 1)  # series of (sin x / x)^{2m} in x^2
    for _ in range(2 * m):
        b = [sum(b[i] * sinc[j - i] for i in range(j + 1)) for j in range(terms)]
    c = [bj / (2 * m + 2 * j + 1) for j, bj in enumerate(b)]
    x2 = BAND_TAYLOR_PHI ** 2
    while len(c) > 1 and abs(c[-1]) * x2 ** (len(c) - 1) < 1e-18 * c[0]:
        c.pop()
    return s_pi, tuple(c)


def _sin_power_integral(phi, m, coeffs):
    """S_m(phi) = int_0^phi sin^{2m} and its derivative sin^{2m}(phi).

    Above BAND_TAYLOR_PHI the reduction S_k = ((2k-1) S_{k-1} - sin^{2k-1} cos)
    / (2k) from S_0 = phi; below it the Taylor series, since the reduction
    cancels to about phi^2 per step there.
    """
    s, c = np.sin(phi), np.cos(phi)
    sc, s2 = s * c, s * s
    red, power = phi, np.ones_like(phi)  # S_0 and sin^0
    for k in range(1, m + 1):
        red = ((2 * k - 1) * red - power * sc) / (2 * k)
        power = power * s2
    x2 = phi * phi
    poly = np.full_like(phi, coeffs[-1])
    for cj in coeffs[-2::-1]:
        poly = poly * x2 + cj
    taylor = phi * x2 ** m * poly
    return np.where(phi < BAND_TAYLOR_PHI, taylor, red), power


def _sin_power_order(a):
    """m with a = m + 1/2: the closed forms of the Beta(a, a) law need a
    half-integer a >= 1/2."""
    m = a - 0.5
    if m < 0 or m != int(m):
        raise QuadratureError(f"the band law needs a half-integer a >= 1/2, got {a}")
    return int(m)


def _beta_cdf(a, x):
    """I_x(a, a) elementwise, for half-integer a = m + 1/2: S_m(phi) / S_m(pi)
    with x = sin^2(phi/2)."""
    m = _sin_power_order(a)
    s_pi, coeffs = _sin_power_series(m)
    phi = 2.0 * np.arcsin(np.sqrt(x))
    return _sin_power_integral(phi, m, coeffs)[0] / s_pi


def _band_cdf(a, u1, u2):
    """The Beta(a, a) CDF values (lo, hi) that bound each band (u1, u2),
    elementwise, and whether the band is held in its upper tail; the band's
    mass is hi - lo.  A band with u1 >= 1/2 is measured from u = 1,
    lo = I_{1-u2} and hi = I_{1-u1}, so that a mass near 1 does not cancel
    against 1.  One call covers every edge of a rule."""
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    upper = u1 >= 0.5
    lo, hi = _beta_cdf(a, np.where(upper, [1.0 - u2, 1.0 - u1], [u1, u2]))
    return lo, hi, upper


def _symmetric_betaincinv(a, y):
    """x with I_x(a, a) = y, for half-integer a = m + 1/2.

    With x = sin^2(phi/2), I_x(a, a) = S_m(phi) / S_m(pi), S_m(phi) the
    integral of sin^{2m} over [0, phi].  The law is symmetric, so the solve
    runs on min(y, 1 - y), whose root lies in [0, pi/2] where S_m is convex:
    Newton from the power-law start phi^{2m+1} / (2m + 1) = S_m(phi) lands
    above the root and then falls to it monotonically.
    """
    m = _sin_power_order(a)
    s_pi, coeffs = _sin_power_series(m)
    y = np.asarray(y, dtype=float)
    upper = y > 0.5
    t = np.where(upper, 1.0 - y, y) * s_pi
    phi = np.minimum(((2 * m + 1) * t) ** (1.0 / (2 * m + 1)), np.pi / 2)
    for _ in range(NEWTON_MAX_STEPS):
        S, dS = _sin_power_integral(phi, m, coeffs)
        step = np.divide(S - t, dS, out=np.zeros_like(phi), where=dS > 0)
        phi = np.clip(phi - step, phi / 2, np.pi / 2)
        if np.all(np.abs(step) <= NEWTON_RTOL * phi):
            break
    half = np.sin(phi / 2) ** 2
    return np.where(upper, 1.0 - half, half)


def _band_draws(a, band, count, rng):
    """``count`` draws of the Beta(a, a) law truncated to one band, given as
    its (lo, hi, upper) from ``_band_cdf``, by inverting the CDF."""
    lo, hi, upper = band
    v = lo + rng.random(count) * (hi - lo)
    if upper:
        return 1.0 - _symmetric_betaincinv(a, np.maximum(v, 1e-300))
    return _symmetric_betaincinv(a, v)


MAX_RINGS = 26  # ring strata (chordal radii 2^{1-m}) around a sphere point


def _ring_t_edges(d_star):
    """Cosine edges of geometric chordal rings 2*2^-m around a sphere point."""
    M = int(np.clip(np.ceil(np.log2(2.0 / max(d_star, 1e-9))) + 2, 4, MAX_RINGS))
    m = np.arange(0, M + 1)
    t = 1.0 - 2.0 ** (1.0 - 2.0 * m)  # chordal 2^{1-m} -> t = 1 - d^2/2
    return np.concatenate([t, [1.0]])


def _band_points(xc, band, count, rng):
    """``count`` uniform points of S^{d-1} whose cosine t to the unit vector xc
    has (1 + t) / 2 in ``band``, given as its (lo, hi, upper) from
    ``_band_cdf``: the cosine by truncated Beta inversion, then a uniform
    tangential direction, both drawn from ``rng`` in that order."""
    d = xc.size
    t = 2.0 * _band_draws((d - 1) / 2.0, band, count, rng) - 1.0
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

    lo, hi, upper = _band_cdf(a, u_edges[:-1], u_edges[1:])
    pts, wts, slices = [], [], []
    start = 0
    for i in range(n_strata):
        frac = hi[i] - lo[i]
        if frac <= 0.0:
            continue
        pts.append(_band_points(center, (lo[i], hi[i], upper[i]), per,
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


def shell_workers():
    """Threads of the thin-shell sampler: the usable cores, at most
    SHELL_MAX_WORKERS."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, SHELL_MAX_WORKERS))


def philox_skip(state, k):
    """A Philox bit generator standing ``k`` uint64 draws past the Philox
    ``state`` (a ``bit_generator.state`` dict), reached without drawing them.

    Philox is counter-based: block c of four uint64 depends only on c and the
    key (Salmon et al., SC'11).  A state whose buffer holds block ``counter``
    draws its word ``buffer_pos`` next, and an empty buffer (``buffer_pos``
    4) draws block ``counter`` + 1.  The copy sets the counter one block
    before the target's, empties the buffer and draws the target's offset
    within its block.  It keeps the state's ``has_uint32``/``uinteger``, so
    bounded-integer draws continue as they would have.
    """
    s = state["state"]
    counter = sum(int(word) << (64 * i) for i, word in enumerate(s["counter"]))
    blocks, rest = divmod(state["buffer_pos"] + int(k), 4)
    counter = (counter + blocks - 1) % (1 << 256)
    words = [(counter >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(4)]
    bits = np.random.Philox(key=s["key"])
    bits.state = {**state, "buffer_pos": 4,
                  "state": {"counter": np.array(words, dtype=np.uint64),
                            "key": s["key"]}}
    bits.random_raw(rest)
    return bits


def shell_screen(X, domain, eps, h):
    """Mask of the real proposals X (rows x1, y1, ..., xn, yn) that may lie in
    the shell |rho + eps| < h of the domain's rho = c exp(warps x1)
    (sum_j a_j |z_j|^2 - 1).

    The quadric is evaluated in real coordinates and a row is dropped only
    when it misses the shell by more than SHELL_SCREEN_MARGIN times the
    uncancelled size c exp(warps x1) (sum_j a_j |z_j|^2 + 1).  That margin
    is far above the rounding gap to the exact rho, so every row the exact
    test accepts passes, and far below h at every grid level.
    """
    s = (X * X) @ np.repeat(domain.weights, 2)
    m = domain.multiplier(X[:, 0])
    return np.abs(m * (s - 1.0) + eps) < h + SHELL_SCREEN_MARGIN * m * (s + 1.0)


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
    b = box_halfwidths(domain)
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
    spans = his - los
    vols = np.prod(spans, axis=1)
    K = len(vols)
    d = 2 * domain.n
    proposals = int(proposals)
    workers = shell_workers()
    # one pair of chunk buffers per thread, all allocated on this thread: its
    # heap has room left by earlier work, while a pool thread's starts empty
    buffers = [(np.empty((SHELL_CHUNK_ROWS, d)), np.empty((SHELL_CHUNK_ROWS, d)))
               for _ in range(workers)]
    local = threading.local()

    def chunk(cc, state, skip):
        """Accepted nodes and weights of the proposals ``cc``, whose uniforms
        start ``skip`` draws past the Philox ``state``."""
        if not hasattr(local, "U"):
            local.U, local.X = buffers.pop()
        U, X = local.U[:cc.size], local.X[:cc.size]
        np.random.Generator(philox_skip(state, skip)).random(out=U)
        # X = spans[cc] * U + los[cc]; "clip" only because the default mode
        # copies through a buffer when given out=, and cc is in range
        np.take(spans, cc, axis=0, out=X, mode="clip")
        X *= U
        X += np.take(los, cc, axis=0, out=U, mode="clip")
        # the exact rho only decides among the proposals the screen keeps
        X = X[shell_screen(X, domain, eps, h)]
        Z = to_complex(X)
        mask = np.abs(domain.rho(Z) + eps) < h
        if not mask.any():
            return None
        Xa = X[mask]
        Za = Z[mask]
        dens = np.zeros(len(Xa))
        for k in range(K):
            inside = np.all((Xa >= los[k]) & (Xa <= his[k]), axis=1)
            dens += inside / (K * vols[k])
        return Za, grad_norm(domain, Za) / (2.0 * h * proposals * dens)

    rng = rng_stream(seed, 0x7541)
    jobs, pending = [], {}
    pool = ThreadPoolExecutor(max(workers - 1, 1))  # threads start on submit
    try:
        # the stream holds each 2M-row batch's comp, then its U.  comp is
        # drawn chunk by chunk, which continues the stream exactly as one
        # draw of the batch does, and is held in bytes (K <= 16)
        for first in range(0, proposals, 2_000_000):
            nb = min(2_000_000, proposals - first)
            starts = range(0, nb, SHELL_CHUNK_ROWS)
            comp = np.zeros(nb, dtype=np.uint8)
            if K > 1:
                for s in starts:
                    part = comp[s:s + SHELL_CHUNK_ROWS]
                    part[:] = rng.integers(0, K, size=part.size)
            # each chunk draws its U from its own copy of the stream, set to
            # where one draw of the batch's U would reach it; the pool starts
            # on them while the next batch's comp is drawn
            state = rng.bit_generator.state
            for s in starts:
                j = len(jobs)
                jobs.append((comp[s:s + SHELL_CHUNK_ROWS], state, d * s))
                if j % workers:
                    pending[j] = pool.submit(chunk, *jobs[j])
            rng.bit_generator.state = philox_skip(state, d * nb).state
        own = {j: chunk(*jobs[j]) for j in range(0, len(jobs), workers)}
        results = [own[j] if j in own else pending[j].result()
                   for j in range(len(jobs))]
    finally:  # no chunk outlives the call, also when one raises
        pool.shutdown(cancel_futures=True)
    results = [r for r in results if r is not None]
    if not results:
        raise QuadratureError("shell not hit")
    pts = np.concatenate([r[0] for r in results])
    w = np.concatenate([r[1] for r in results])
    return SurfaceSampler(method="thin-shell", count=len(w), points=pts,
                          weights=w, proposals=proposals)


def integrate_level_set(g, domain, eps, method="parametrized", count=100_000,
                        seed=7, within=None, singular_center=None):
    """Integral of g over {rho = -eps} against Euclidean surface measure.

    ``within`` (center, radius) restricts the integral to the open ball
    {|Z - center| < radius}, the open set U of local Hardy norms: g sees only
    the nodes inside it, and the thin-shell proposal box shrinks to it.
    """
    from .geometry import level_set_sampler  # sampler construction is geometric

    sampler = level_set_sampler(domain, eps, method=method, count=count, seed=seed,
                                singular_center=singular_center, within=within)
    return sampler.integrate(g if within is None else inside_only(g, *within))
