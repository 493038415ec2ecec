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

from . import geometry
from .geometry import (_unit_gaussians, box_halfwidths, grad_norm, rng_stream,
                       to_complex, to_real)

OVERFLOW_LIMIT = 1e300
MIN_COUNT = 100  # fewest nodes a Monte Carlo rule, or --count, takes
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
    with ``complement``), 0 at the others, where g is not evaluated.  A node
    is inside when its squared distance, summed in real arithmetic over the
    coordinates, is below radius^2."""
    c = np.asarray(center, dtype=complex)
    r2 = radius * radius

    def restricted(Z):
        dist2 = np.zeros(Z.shape[:-1])
        for j, cj in enumerate(c):
            dx = Z.real[..., j] - cj.real
            dy = Z.imag[..., j] - cj.imag
            dx *= dx
            dy *= dy
            dx += dy
            dist2 += dx
        inside = (dist2 < r2) != complement
        vals = np.asarray(g(Z[inside]), dtype=float)
        out = np.zeros(vals.shape[:-1] + inside.shape)
        out[..., inside] = vals
        return out

    return restricted


# ---------------------------------------------------------------------------
# Monte Carlo on the unit sphere of C^n
# ---------------------------------------------------------------------------

def sample_sphere(n, count, seed):
    """Uniform points on the unit sphere of C^n via normalized Gaussians."""
    return to_complex(_unit_gaussians(rng_stream(seed, 0x5F, 0), count, 2 * n))


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
    xs = [to_real(c / np.linalg.norm(c)) for c in centers]
    _, bands, fracs, t_edges = _ring_bands((d - 1) / 2.0, _ring_t_edges(depth_scale))
    J, M = len(centers), len(fracs)

    rng = rng_stream(seed, 0x1B0, 0)
    comp = rng.integers(0, 2 * J * M, size=count)  # < J*M: banded; else uniform
    pts = np.empty((count, d))
    uniform_mask = comp >= J * M
    nu = int(uniform_mask.sum())
    if nu:
        pts[uniform_mask] = _unit_gaussians(rng, nu, d)
    # the drawn (center, band) cells, center by center, and their nodes in
    # the order of comp and then of index
    sizes = np.bincount(comp, minlength=2 * J * M)[:J * M]
    cells = np.flatnonzero(sizes)
    if cells.size:
        banded = np.argsort(comp, kind="stable")[:count - nu]
        pts[banded] = _band_points([xs[k // M] for k in cells],
                                   [bands[k % M] for k in cells], sizes[cells],
                                   [rng] * cells.size)

    # mixture density relative to the uniform one
    boost = np.full(count, 0.5)
    for j in range(J):
        tj = pts @ xs[j]
        band = np.clip(np.searchsorted(t_edges, tj, side="right") - 1, 0, M - 1)
        in_range = (tj >= t_edges[0]) & (tj <= t_edges[-1])
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
    if count < MIN_COUNT:
        raise QuadratureError(f"count must be >= {MIN_COUNT}")
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
    x = _band_points([xc], [band], [count], [rng_stream(seed, 0xCA9, 0)])
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
ZONAL_GRADED_CUT = 0.8      # cuts c below it grade the angular panels toward acos(c)
ZONAL_CUT_EDGES = 8         # graded edges on each side, at 2^-j of its width
# Angles per array step of a disk-rule build, about 3 ms for the whole disk.
# One step over all ~330 angles is 1 ms faster but frees about 10 MB of
# temporaries at once, after which the later ball-zonal commands of a
# process take more minor page faults (seed 7: lemma 2.5 0.7k instead of
# 0.1-0.3k, the Cauchy scan 114 instead of 18).
ZONAL_BUILD_BLOCK = 16


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


def _panel_nodes(a, b, m):
    """m Gauss-Legendre nodes and weights on each panel [a_i, b_i], flattened
    panel by panel."""
    xg, wg = _gl(m)
    a = a[:, None]
    b = b[:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * xg[None, :]
    w = 0.5 * (b - a) * np.broadcast_to(wg, x.shape)
    return x.ravel(), w.ravel()


def _nodes_on_panels(edges, m):
    edges = np.asarray(edges, dtype=float)
    return _panel_nodes(edges[:-1], edges[1:], m)


def _geometric_points(lo, jmax):
    """The points 1 - 2^-j, j = 1..jmax, mapped onto [lo, 1], ascending; one
    row per entry of an array ``lo``."""
    base = 1.0 - 2.0 ** (-np.arange(1, jmax + 1))
    return 1.0 - (1.0 - np.asarray(lo)[..., None]) * (1.0 - base)


def _geometric_edges(lo, hi, jmax):
    """Panel edges on [lo, hi] refining geometrically toward 1."""
    pts = _geometric_points(lo, jmax)
    pts = pts[(pts > lo) & (pts < hi)]
    return np.concatenate([[lo], np.sort(pts), [hi]])


def _radial_limits(theta, c, complement):
    """Radial s-ranges [lo, hi] of {s cos(theta) > c} (a cap) or of its
    complement within [0, 1], one per angle, and whether each is non-empty:
    the cap is s > c / cos(theta) where cos(theta) > 0 and s < c / cos(theta)
    where cos(theta) < 0.  An angle with |cos(theta)| <= 1e-15 has
    s cos(theta) = 0, so its cap is the whole ray or none."""
    ct = np.fromiter(map(math.cos, theta), float, len(theta))  # libm, as scalars
    flat = np.abs(ct) <= 1e-15
    above = (ct > 0.0) != complement  # s > t; else s < t
    with np.errstate(divide="ignore", invalid="ignore"):  # flat angles skip t
        t = c / ct
        lo = np.where(above & ~flat, np.maximum(t, 0.0), 0.0)
        hi = np.where(above | flat, 1.0, np.minimum(t, 1.0))
    keep = np.where(flat, (c < 0.0) != complement,
                    np.where(above, lo < 1.0, hi > 0.0))
    return lo, hi, keep


def _theta_nodes(c):
    """Angular nodes on panels with edges pi 2^-j, plus an edge at acos(c)
    when the pairing threshold c cuts the disk.

    Below c = ZONAL_GRADED_CUT the panels also refine geometrically toward
    acos(c) from both sides, ZONAL_CUT_EDGES edges each: the radial limit
    c / cos(theta) has its pole at pi/2, about |c| from the cut, and panels
    wider than that distance converge slowly.  At and above it the rule is
    unchanged."""
    edges = [0.0] + [np.pi * 2.0 ** (-j)
                     for j in range(ZONAL_ANGULAR_PANELS, -1, -1)]
    if -1.0 < c < 1.0:
        cut = math.acos(c)
        edges.append(cut)
        if c < ZONAL_GRADED_CUT:
            steps = 2.0 ** -np.arange(1.0, ZONAL_CUT_EDGES + 1.0)
            edges += [*(cut - cut * steps), *(cut + (np.pi - cut) * steps)]
        edges = sorted(set(edges))
    return _nodes_on_panels(np.asarray(edges), ZONAL_ANGULAR_NODES)


def _radial_nodes(lo, hi):
    """Radial nodes on [lo, hi], panels refining toward s = 1."""
    return _nodes_on_panels(_geometric_edges(lo, hi, ZONAL_RADIAL_PANELS),
                            ZONAL_RADIAL_NODES)


def _half_disk(n, c, complement):
    """The upper half-disk rule of {Re lam > c}, or of its complement, before
    calibration: at each angle theta in (0, pi) the radial nodes s on that
    angle's range, panels refining toward s = 1, with lam = s e^{i theta}
    and weight w_theta w_s s (1 - s^2)^{n-2}; angle by angle, ascending.

    The angles are taken ZONAL_BUILD_BLOCK at a time as arrays.  An angle's
    panel edges are its range's ends with the geometric points strictly
    inside, which ascend already, and every node and weight comes from the
    same elementwise operations, in the same order, as a build of that angle
    alone."""
    return _disk_blocks(n, c, lambda theta: _radial_limits(theta, c, complement))


def _disk_blocks(n, c, limits):
    """The half-disk rule on the angles of ``_theta_nodes(c)``, each on the
    radial range [lo, hi] that ``limits(theta)`` gives with whether it is
    kept, built as ``_half_disk`` describes."""
    theta, wtheta = _theta_nodes(c)
    lo, hi, keep = limits(theta)
    theta, wtheta, lo, hi = theta[keep], wtheta[keep], lo[keep], hi[keep]
    lam_parts, w_parts = [np.zeros(0, dtype=complex)], [np.zeros(0)]
    for i in range(0, theta.size, ZONAL_BUILD_BLOCK):
        blk = slice(i, i + ZONAL_BUILD_BLOCK)
        pts = _geometric_points(lo[blk], ZONAL_RADIAL_PANELS)
        inner = (pts > lo[blk, None]) & (pts < hi[blk, None])
        ends = np.ones((inner.shape[0], 1), dtype=bool)
        # panel i of an angle runs from its i-th lower to its i-th upper edge
        a = np.concatenate([lo[blk, None], pts], axis=1)[np.hstack([ends, inner])]
        b = np.concatenate([pts, hi[blk, None]], axis=1)[np.hstack([inner, ends])]
        s, ws = _panel_nodes(a, b, ZONAL_RADIAL_NODES)
        nodes = ZONAL_RADIAL_NODES * (inner.sum(axis=1) + 1)
        w_parts.append(np.repeat(wtheta[blk], nodes) * ws * s
                       * (1.0 - s ** 2) ** (n - 2))
        lam_parts.append(s * np.repeat(np.exp(1j * theta[blk]), nodes))
    return np.concatenate(lam_parts), np.concatenate(w_parts)


@lru_cache(maxsize=64)
def _zonal_fold(n, c, complement):
    """The cached zonal rule of {Re lam > c}, or of its complement, in the
    form a conjugation-even integrand reads: the half-disk nodes and their
    doubled weights, calibrated against sigma(S^{2n-1}).  Read-only."""
    if n < 2:
        raise QuadratureError("zonal path requires n >= 2")
    lam, w = _half_disk(n, c, complement)
    w = 2.0 * (w * _zonal_calibration(n))
    _keep_freed_heap(64 * lam.size)  # twice the full rule's complex nodes
    lam.flags.writeable = False
    w.flags.writeable = False
    return lam, w


def _keep_freed_heap(nbytes):
    """Keep glibc from handing the heap that a zonal integral's temporaries
    occupy (about 5 MB on the whole-disk rule) back to the system after each
    integral, so that the next one does not fault those pages in anew.
    glibc trims the top of the heap once more than twice the largest block
    it has unmapped lies free there; mapping and freeing one untouched block
    of ``nbytes`` raises that limit and touches no page.  Without it,
    lemma 2.2 takes 64k minor faults on seed 7; with it, 2.8k."""
    np.empty(nbytes, dtype=np.uint8)


def _unfold(lam, w2):
    """The full rule of a fold: the half-disk nodes, then their mirror
    theta -> -theta, each with half the doubled weight (exactly)."""
    w = 0.5 * w2
    return np.concatenate([lam, np.conj(lam)]), np.concatenate([w, w])


def _zonal_nodes(n, c, complement):
    """Flattened (lam, weight) arrays of the disk region {Re lam > c}, or of
    its complement, weights calibrated against sigma(S^{2n-1}): the half-disk
    rule of ``_half_disk`` followed by its mirror lam -> conj(lam) with the
    same weights.  Rebuilt on each call from the cached fold."""
    return _unfold(*_zonal_fold(n, c, complement))


# the counters of the one zonal rule cache, under the name the benchmark reads
_zonal_nodes.cache_info = _zonal_fold.cache_info


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


def _quadric_ball_limits(theta, a, zeta1, radius):
    """Radial |lam|-ranges [lo, hi] of the region of ``quadric_chart``'s
    cut, one per angle theta, and whether each is non-empty.  In x = t |lam|
    the ball is A x^2 - 2 B x + C < 0 with B = zeta1 cos(theta), an interval
    between the roots q / A and C / q, q = B + sign(B) sqrt(B^2 - A C) (a
    half-line when A = 0), cut to [0, X]; x maps back to
    |lam| = x sqrt(a2 / (1 - (a1 - a2) x^2))."""
    a1, a2 = a
    A = 1.0 - a1 / a2
    C = zeta1 * zeta1 + 1.0 / a2 - radius * radius
    X = math.sqrt(1.0 / a1)
    B = zeta1 * np.cos(theta)
    D = B * B - A * C
    with np.errstate(divide="ignore", invalid="ignore"):  # A = 0, D < 0: no root
        q = B + np.copysign(np.sqrt(D), B)
        x_lo = np.maximum(np.minimum(q / A, C / q), 0.0)
        x_hi = np.minimum(np.maximum(q / A, C / q), X)
        radius_of = lambda x: x * np.sqrt(a2 / (1.0 - (a1 - a2) * x * x))
        lo = np.where(x_lo > 0.0, radius_of(x_lo), 0.0)
        hi = np.where(x_hi < X, np.minimum(radius_of(x_hi), 1.0), 1.0)
        return lo, hi, (x_lo < x_hi) & (lo < hi)  # a NaN root keeps nothing


def _chart_rule(a, lam, w):
    """The folded chart rule of {a1 |z1|^2 + a2 |z2|^2 = 1} from a folded
    disk rule (lam, w) of n = 2: nodes z1 = t lam and weights
    w t^3 |grad rho| / d_t rho = w sqrt(a1^2 u + a2^2 (1 - u)) / s^(5/2),
    with u = |lam|^2, s = a1 u + a2 (1 - u) and t = s^(-1/2)."""
    a1, a2 = a
    u = lam.real ** 2 + lam.imag ** 2
    s = a2 + (a1 - a2) * u
    t = 1.0 / np.sqrt(s)
    z1 = lam * t
    w = w * np.sqrt(a2 * a2 + (a1 * a1 - a2 * a2) * u) * t ** 5
    z1.flags.writeable = False
    w.flags.writeable = False
    return z1, w


@lru_cache(maxsize=8)
def _whole_chart(a):
    """The cached chart rule of the whole surface, from the whole-disk fold."""
    return _chart_rule(a, *_zonal_fold(2, -1.0, False))


def quadric_chart(a, ball=None):
    """The disk chart of the quadric surface S = {a1 |z1|^2 + a2 |z2|^2 = 1}
    of C^2, as a folded rule for ``integrate_zonal(rule=...)``: its nodes are
    the first coordinates z1 of points of S, even under z1 -> conj(z1), and
    its weights the surface measure, so it integrates any g(z1) over S.
    ``ball`` = (zeta1, radius), zeta1 > 0, restricts S to the open ball
    B((zeta1, 0), radius), then with a1 <= a2; None when the ball misses S.

    The chart writes S as the radial graph t theta, with
    theta = (lam, sqrt(1 - |lam|^2)) for lam in the unit disk,
    t = s^(-1/2) and s = a1 |lam|^2 + a2 (1 - |lam|^2), and the
    radial-graph form of the coarea formula gives the surface measure
        t^3 |grad rho| / d_t rho dsigma(theta),
    with |grad rho| / d_t rho = sqrt(a1^2 |lam|^2 + a2^2 (1 - |lam|^2)) / s
    and dsigma = 2 pi dA(lam) after the circle of z2's phase: the zonal disk
    rule of n = 2 carries it (``_chart_rule``).  The whole surface takes the
    cached whole-disk rule.  The ball is the region
    {t^2 - 2 zeta1 t Re lam + zeta1^2 < radius^2} of the disk; in
    x = t |lam| = |z1| it reads A x^2 - 2 zeta1 cos(arg lam) x + C < 0, with
    A = 1 - a1 / a2 >= 0 and C = zeta1^2 + 1 / a2 - radius^2, for x in
    [0, X], X = a1^(-1/2): one radial interval per angle
    (``_quadric_ball_limits``).  Its angular panels take an edge where the
    cut meets |lam| = 1, at cos = (X^2 + zeta1^2 - radius^2) / (2 X zeta1),
    graded toward it as ``_theta_nodes`` grades a zonal cut, and its radial
    ranges are built as ``_half_disk`` builds them.  The farthest point of S
    from (zeta1, 0) is (-X, 0) and the nearest lies at arg lam = 0, so a
    ball that holds all of S takes the whole rule.  A cut rule is built
    anew on each call.
    """
    a = tuple(float(aj) for aj in a)
    if ball is None:
        return _whole_chart(a)
    zeta1, radius = ball
    a1, a2 = a
    X = math.sqrt(1.0 / a1)
    if X + zeta1 < radius:
        return _whole_chart(a)
    A = 1.0 - a1 / a2
    x = X if A * X <= zeta1 else zeta1 / A  # the nearest point's |z1|
    if A * x * x - 2.0 * zeta1 * x + zeta1 * zeta1 + 1.0 / a2 >= radius * radius:
        return None
    edge = (X * X + zeta1 * zeta1 - radius * radius) / (2.0 * X * zeta1)
    limits = lambda theta: _quadric_ball_limits(theta, a, zeta1, radius)
    lam, w = _disk_blocks(2, edge, limits)
    return _chart_rule(a, lam, 2.0 * (w * _zonal_calibration(2)))


def integrate_zonal(gt, n, c=-1.0, complement=False, even=False, rule=None):
    """Deterministic quadrature of z -> gt(<z, zeta>) over the unit sphere of C^n.

    ``gt`` must be vectorized over a complex array of pairings with |lam| <= 1.
    The integral runs over {Re lam > c}, or its complement with
    ``complement``: the zonal images of a metric cap around zeta and of its
    complement.  The default c = -1 is the whole sphere.  A ``rule`` in the
    folded form of the cache, such as ``quadric_chart``'s, replaces the
    cached rule of (c, complement): gt then reads that rule's nodes.

    The estimate's stderr is 0, but the value is not exact: against the
    closed-form ball values (2F1), a zonal value is exact to about 1e-8
    relative within k <= 29 of the radial grid 1 - 2^-k, and degrades past
    k ~ 34, where the radial panels end at 2^-40.

    ``even`` promises that gt(conj(lam)) equals gt(lam) bit for bit.  The
    rule's second half is its first mirrored, lam -> conj(lam) with the same
    weights, so gt is then evaluated on the first half only and reduced with
    doubled weights.  The estimate is the full rule's bit for bit: doubling
    is exact, and every non-empty rule has 2N > 128 nodes with N % 8 == 0,
    where numpy's pairwise sum splits the 2N terms at N, so their sum is
    twice the sum of one half.  Only a product of weight and value below the
    normal range (2^-1022) could round differently when doubled.  The
    estimate reports the full rule's node count.

    The rule cache holds that folded form (``_zonal_fold``): an even gt reads
    the cached arrays as they are, and any other gt gets the full rule
    rebuilt from them on each call (``_unfold``), the same bit for bit.
    """
    lam, w = rule or _zonal_fold(n, float(c), complement)
    if not even:
        lam, w = _unfold(lam, w)
        return reduce_nodes(w, gt(lam), "zonal")
    est = reduce_nodes(w, gt(lam), "zonal")
    if isinstance(est, IntegralEstimate):
        return replace(est, count=2 * lam.size)
    return [replace(e, count=2 * lam.size) for e in est]


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

    ``blocks`` holds the nodes as a tuple of (m, n) complex arrays, in rule
    order: one block for the parametrized rule, one per proposal chunk with
    accepted nodes for the thin shell, so its nodes are never copied into one
    array.  ``weights`` is one array over all of them.  ``strata`` slices
    group nodes into independently sampled strata for the variance estimate
    (None: one stratum); ``proposals`` records the total proposal count of a
    rejection-sampled (thin-shell) rule.
    """

    method: str
    blocks: tuple
    weights: np.ndarray
    strata: tuple = None
    proposals: int = None

    @property
    def points(self):
        """The nodes as one (count, n) array, read-only (it has no setter):
        the block itself for a rule of one block, else a new concatenation of
        the blocks."""
        if len(self.blocks) == 1:
            return self.blocks[0]
        return np.concatenate(self.blocks)

    @property
    def count(self):
        """The rule's node count."""
        return len(self.weights)

    def integrate(self, g):
        """The estimate(s) of the integral of g, evaluated one block at a time.

        g must act node by node, as every integrand here does, so its values
        on a block are those it gives the same nodes in one array.  Only the
        value rows are concatenated, and ``reduce_nodes`` reduces them once,
        so the estimate is bit for bit that of g on ``points``.
        """
        error = self.proposals
        if error is None:
            error = self.strata or (slice(None),)
        vals = [np.asarray(g(block), dtype=float) for block in self.blocks]
        vals = vals[0] if len(vals) == 1 else np.concatenate(vals, axis=-1)
        return reduce_nodes(self.weights, vals, self.method, error)


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
    s2 = np.sin(phi)
    sc = s2 * np.cos(phi)
    s2 *= s2
    red, power = phi, np.ones_like(phi)  # S_0 and sin^0
    for k in range(1, m + 1):
        red = ((2 * k - 1) * red - power * sc) / (2 * k)
        power *= s2
    x2 = phi * phi
    poly = np.full_like(phi, coeffs[-1])
    for cj in coeffs[-2::-1]:
        poly *= x2
        poly += cj
    x2 **= m
    poly *= phi * x2  # the Taylor value phi^{2m+1} sum_j c_j phi^{2j}
    return np.where(phi < BAND_TAYLOR_PHI, poly, red), power


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


def _symmetric_betaincinv(a, y, sizes=None):
    """x with I_x(a, a) = y, for half-integer a = m + 1/2.

    With x = sin^2(phi/2), I_x(a, a) = S_m(phi) / S_m(pi), S_m(phi) the
    integral of sin^{2m} over [0, phi].  The law is symmetric, so the solve
    runs on min(y, 1 - y), whose root lies in [0, pi/2] where S_m is convex:
    Newton from the power-law start phi^{2m+1} / (2m + 1) = S_m(phi) lands
    above the root and then falls to it monotonically.

    ``sizes`` splits the flattened y into consecutive non-empty bands (None:
    one band) that take their Newton steps together, as one array.  A band
    stops at the first step after which every one of its own targets has
    converged, so its roots are those of a solve of that band alone, bit for
    bit: every operation of the step is elementwise.
    """
    m = _sin_power_order(a)
    s_pi, coeffs = _sin_power_series(m)
    y = np.asarray(y, dtype=float)
    upper = y > 0.5
    t = (np.where(upper, 1.0 - y, y) * s_pi).ravel()
    phi = np.minimum(((2 * m + 1) * t) ** (1.0 / (2 * m + 1)), np.pi / 2)
    sizes = np.array([t.size] if sizes is None else sizes)
    # once some bands have stopped: root holds every target's phi, live the
    # places of the targets still stepping, in phi's order
    root = live = None
    for _ in range(NEWTON_MAX_STEPS if t.size else 0):
        S, dS = _sin_power_integral(phi, m, coeffs)
        step = np.divide(S - t, dS, out=np.zeros_like(phi), where=dS > 0)
        phi = np.clip(phi - step, phi / 2, np.pi / 2)
        done = np.logical_and.reduceat(np.abs(step) <= NEWTON_RTOL * phi,
                                       np.cumsum(sizes) - sizes)
        if done.all():
            break
        if done.any():
            go = np.repeat(~done, sizes)
            if root is None:
                root, live = phi, np.flatnonzero(go)
            else:
                root[live] = phi
                live = live[go]
            phi, t, sizes = phi[go], t[go], sizes[~done]
    if root is not None:
        root[live] = phi
        phi = root
    half = np.sin(phi.reshape(y.shape) / 2) ** 2
    return np.where(upper, 1.0 - half, half)


def _band_quantiles(a, bands, uniforms):
    """Draws of the Beta(a, a) law truncated to each of ``bands``, given as
    their (lo, hi, upper) from ``_band_cdf``, at the band's array of
    ``uniforms`` in [0, 1); concatenated band by band, each band non-empty.
    One CDF inversion serves every band, a band in its upper tail solved
    from u = 1."""
    sizes = [u.size for u in uniforms]
    lo, hi, upper = (np.repeat(np.asarray(col), sizes) for col in zip(*bands))
    v = lo + np.concatenate(uniforms) * (hi - lo)
    x = _symmetric_betaincinv(a, np.where(upper, np.maximum(v, 1e-300), v), sizes)
    return np.where(upper, 1.0 - x, x)


MAX_RINGS = 26  # ring strata (chordal radii 2^{1-m}) around a sphere point


def _ring_t_edges(d_star):
    """Cosine edges of geometric chordal rings 2*2^-m around a sphere point."""
    M = int(np.clip(np.ceil(np.log2(2.0 / max(d_star, 1e-9))) + 2, 4, MAX_RINGS))
    m = np.arange(0, M + 1)
    t = 1.0 - 2.0 ** (1.0 - 2.0 * m)  # chordal 2^{1-m} -> t = 1 - d^2/2
    return np.concatenate([t, [1.0]])


def _ring_bands(a, t_edges):
    """The ring-band table of the Beta(a, a) law on the rings of ``t_edges``
    (from ``_ring_t_edges``), without the bands of mass at most 1e-300: each
    kept band's index among the rings, its (lo, hi, upper) from
    ``_band_cdf`` and its mass, and the cosine edges of the kept bands."""
    u = (1.0 + t_edges) / 2.0
    lo, hi, upper = _band_cdf(a, u[:-1], u[1:])
    keep = np.flatnonzero(hi - lo > 1e-300)
    edges = np.concatenate([u[:-1][keep], [u[1:][keep][-1]]]) * 2.0 - 1.0
    return keep, list(zip(lo[keep], hi[keep], upper[keep])), (hi - lo)[keep], edges


def _band_points(xcs, bands, sizes, rngs):
    """Uniform points of S^{d-1} in cosine bands, concatenated band by band:
    sizes[i] > 0 points whose cosine t to the unit vector xcs[i] has
    (1 + t) / 2 in bands[i], a (lo, hi, upper) from ``_band_cdf``.  Band i
    draws its uniforms, then its tangential directions v, from rngs[i]
    (bands may share a stream); one Beta inversion serves every band, and
    a point is t xc + sqrt(1 - t^2) v, formed in place over the v."""
    d = len(xcs[0])
    ends = np.cumsum(sizes)
    pts = np.empty((ends[-1], d))
    uniforms = []
    for xc, size, end, rng in zip(xcs, sizes, ends, rngs):
        uniforms.append(rng.random(size))
        np.matmul(_unit_gaussians(rng, size, d - 1), _complement_basis(xc).T,
                  out=pts[end - size:end])
    t = 2.0 * _band_quantiles((d - 1) / 2.0, bands, uniforms) - 1.0
    pts *= np.sqrt(np.maximum(1.0 - t ** 2, 0.0))[:, None]
    for xc, size, end in zip(xcs, sizes, ends):
        pts[end - size:end] += t[end - size:end, None] * xc
    return pts


@lru_cache(maxsize=32)
def _sphere_nodes_stratified(d, center, count, seed, d_star):
    """Stratified uniform nodes on S^{d-1}: geometric rings around ``center``
    (a tuple of floats, so that the rule can be cached on its full input).

    Returns (points (m, d), measure weights (m,), strata slices).  Each of the
    n_strata rings of ``_ring_t_edges(d_star)`` is a stratum of
    max(count // n_strata, 16) nodes, drawn from stream (seed, 0x57A7, i) for
    ring i, so the rule has n_strata * max(count // n_strata, 16) nodes, not
    ``count`` (a ring of Beta mass at most 1e-300 would be left out; none is
    for d <= 40).  Each stratum is sampled uniformly with respect to surface
    measure, so the estimator is unbiased stratum by stratum.  The arrays are
    shared by every caller with the same input and are read-only.
    """
    t_edges = _ring_t_edges(d_star)
    n_strata = len(t_edges) - 1
    per = max(count // n_strata, 16)
    index, bands, fracs, _ = _ring_bands((d - 1) / 2.0, t_edges)
    k = len(bands)
    wts = np.repeat(sphere_area_real(d) * fracs / per, per)
    pts = _band_points([np.asarray(center, dtype=float)] * k, bands, [per] * k,
                       [rng_stream(seed, 0x57A7, i) for i in index])
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts, tuple(slice(i * per, (i + 1) * per) for i in range(k))


def parametrized_level_sampler(weights, eps, count, seed, singular_center=None):
    """Sampler for {sum a_j |z_j|^2 = 1 - eps}: linear image of the unit sphere.

    The image of a sphere point x under the diagonal map T with coordinate
    scales R_j = sqrt((1-eps)/a_j) carries surface weight |det T| |T^-T x|.
    With ``singular_center`` (a boundary point), nodes are stratified into
    geometric rings around its preimage to tame integrands singular there,
    and the rule has n_strata * max(count // n_strata, 16) nodes for its
    n_strata rings (``_sphere_nodes_stratified``); without it, ``count``.
    """
    if count < MIN_COUNT:
        raise QuadratureError(f"count must be >= {MIN_COUNT}")
    a = np.asarray(weights, dtype=float)
    n = a.size
    R = np.sqrt((1.0 - eps) / a)
    det = float(np.prod(R ** 2))

    if singular_center is None:
        pts_r = _unit_gaussians(rng_stream(seed, 0x5F, 0xA11), count, 2 * n)
        w = np.full(count, sphere_area(n) / count)
        strata = None
    else:
        zc = np.asarray(singular_center, dtype=complex) / R
        zc = zc / np.linalg.norm(zc)
        pts_r, w, strata = _sphere_nodes_stratified(
            2 * n, tuple(float(x) for x in to_real(zc)), count, seed,
            math.sqrt(eps))
    # from the real rows (x_1, y_1, ..., x_n, y_n) of the sphere points:
    # |T^-T x|^2 = sum_j (x_j^2 + y_j^2) / R_j^2, and the points R_j (x_j + i y_j)
    # as a complex view of the rows scaled by (R_1, R_1, ..., R_n, R_n)
    sq = pts_r * pts_r
    jac = det * np.sqrt(sum((sq[:, 2 * j] + sq[:, 2 * j + 1]) / R[j] ** 2
                            for j in range(n)))
    points = (pts_r * np.repeat(R, 2)).view(complex)
    return SurfaceSampler(method="parametrized", blocks=(points,), weights=w * jac,
                          strata=strata)


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


def shell_boxes(domain, eps, within=None, focus=None):
    """Lower and upper corners, each (K, 2n), of the thin shell's proposal
    boxes: the domain's box cut to the cube around ``within``, or with
    ``focus`` K nested boxes shrinking geometrically toward it."""
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
    if focus is None:
        return lo[None, :], hi[None, :]
    c = to_real(np.asarray(focus, dtype=complex))
    K = int(np.clip(np.ceil(np.log2(1.0 / math.sqrt(max(eps, 1e-12)))) + 2,
                    2, 16))
    # box 0 spans the whole region; the rest shrink geometrically to c
    half = np.max(hi - lo) * 2.0 ** (-np.arange(K, dtype=float))
    return (np.maximum(lo[None, :], c[None, :] - half[:, None]),
            np.minimum(hi[None, :], c[None, :] + half[:, None]))


def shell_band(domain, eps, h, los, his):
    """Bounds (lo, hi) on s = sum_j a_j |z_j|^2 outside of which no proposal
    in the boxes ``los``/``his`` passes ``shell_screen``.

    The multiplier m = c exp(warps x1) is monotone in x1, so on the boxes it
    lies between its values at their smallest and largest x1, and the shell
    |m (s - 1) + eps| < h puts s - 1 between the extremes of t / m over
    t in {-eps - h, h - eps} and those two m.  The band is widened by the
    screen's margin at the largest s in the boxes, SHELL_SCREEN_MARGIN
    (1 + s_max), so every row the screen keeps lies in it.
    """
    m = domain.multiplier(np.array([los[:, 0].min(), his[:, 0].max()]))
    ends = np.array([-eps - h, h - eps])[:, None] / m
    s_max = np.max(np.maximum(los * los, his * his) @ np.repeat(domain.weights, 2))
    margin = SHELL_SCREEN_MARGIN * (1.0 + s_max)
    return 1.0 + ends.min() - margin, 1.0 + ends.max() + margin


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

    The accepted nodes stay in the blocks their chunks of SHELL_CHUNK_ROWS
    proposals produced (``SurfaceSampler.blocks``), in chunk order, and are
    never copied into one array; only the weights are joined, after the
    chunk buffers and box indices are freed.
    """
    h = eps / SHELL_EPS_DIVISOR
    los, his = shell_boxes(domain, eps, within, focus)
    proposals = int(proposals)
    hits = [r for r in _shell_chunks(domain, eps, h, los, his, proposals, seed)
            if r is not None]
    if not hits:
        raise QuadratureError("shell not hit")
    return SurfaceSampler(method="thin-shell", blocks=tuple(r[0] for r in hits),
                          weights=np.concatenate([r[1] for r in hits]),
                          proposals=proposals)


def _shell_chunks(domain, eps, h, los, his, proposals, seed):
    """The thin shell's (accepted nodes, weights) of each chunk of
    SHELL_CHUNK_ROWS proposals, None for a chunk without one, in chunk
    order; see ``thin_shell_sampler``."""
    spans = his - los
    vols = np.prod(spans, axis=1)
    K = len(vols)
    d = 2 * domain.n
    weights2 = np.repeat(domain.weights, 2)
    s_lo, s_hi = shell_band(domain, eps, h, los, his)
    # prefix_dens[m]: the mixture density of a point in boxes 0..m-1, summed
    # in box order from 0.0 as one add per box would sum it
    prefix_dens = np.concatenate(([0.0], np.cumsum(1.0 / (K * vols))))
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
        # the band in s, with X * X written over the spent U, keeps 0.5-16%
        # of the rows on lemma 3.1's warped levels; the screen, then the
        # exact rho, decide among those.  Gathering them by index takes a
        # fifth of the time of a boolean mask
        s = np.square(X, out=U) @ weights2
        rows = np.flatnonzero((s >= s_lo) & (s <= s_hi))
        del s  # 8 bytes a proposal, freed before the rows it keeps are gathered
        X = X[rows]
        X = X[shell_screen(X, domain, eps, h)]
        Z = to_complex(X)
        mask = np.abs(domain.rho(Z) + eps) < h
        if not mask.any():
            return None
        Xa = X[mask]
        Za = Z[mask]
        # the boxes are nested (lo_k rises with k, hi_k falls), so a row lies
        # in boxes 0..m-1 and its density is prefix_dens[m]
        m = np.full(len(Xa), K)
        for j in range(d):
            np.minimum(m, np.searchsorted(los[:, j], Xa[:, j], "right"), out=m)
            np.minimum(m, np.searchsorted(-his[:, j], -Xa[:, j], "right"), out=m)
        return Za, grad_norm(domain, Za) / (2.0 * h * proposals * prefix_dens[m])

    rng = rng_stream(seed, 0x7541)
    jobs, futures = [], []
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
                jobs.append((comp[s:s + SHELL_CHUNK_ROWS], state, d * s))
                if workers > 1:
                    futures.append(pool.submit(chunk, *jobs[-1]))
            rng.bit_generator.state = philox_skip(state, d * nb).state
        # the draws done, this thread takes chunks from the back of the queue
        # until it meets one a pool thread has started: cancel() fails on it
        own = []
        n = len(jobs)
        while n and (workers == 1 or futures[n - 1].cancel()):
            n -= 1
            own.append(chunk(*jobs[n]))
        return [f.result() for f in futures[:n]] + own[::-1]
    finally:  # no chunk outlives the call, also when one raises
        pool.shutdown(cancel_futures=True)


def integrate_level_set(g, domain, eps, method="parametrized", count=100_000,
                        seed=7, within=None, singular_center=None):
    """Integral of g over {rho = -eps} against Euclidean surface measure.

    ``within`` (center, radius) restricts the integral to the open ball
    {|Z - center| < radius}, the open set U of local Hardy norms: g sees only
    the nodes inside it, and the thin-shell proposal box shrinks to it.
    g is evaluated one node block of the rule at a time
    (``SurfaceSampler.integrate``), so it must act node by node; on the thin
    shell, whose blocks are its proposal chunks' accepted nodes, its
    temporaries are those of one block.
    """
    sampler = geometry.level_set_sampler(
        domain, eps, method=method, count=count, seed=seed,
        singular_center=singular_center, within=within)
    return sampler.integrate(g if within is None else inside_only(g, *within))
