"""Hardy-type norm scans along boundary-approaching grids, divergence
classification, local and level-set variants, and the metric on intersection
spaces.

A scan evaluates I(r) = int |f(r z)|^p dsigma (or its level-set analogue
I(eps)) along a geometric grid approaching the boundary, then ``classify``
decides between Bounded, LogDivergent and PowerDivergent growth, which is the
trichotomy the membership thresholds of the function zoo exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import functions as fn
from . import quadrature as quad
from .geometry import GeometryError, _number, level_weights

LN2 = math.log(2.0)
GRID_FLOOR = 1e-9
LEVEL_EPS0 = 0.2        # level grids eps_k = LEVEL_EPS0 2^-k
MC_GUARD_DEPTH = 1e-2   # 1 - r below which noisy sphere MC is rejected
MC_GUARD_REL = 0.02     # ... when stderr/value exceeds this


class NormError(RuntimeError):
    pass


class NotInSpaceError(NormError):
    pass


# ---------------------------------------------------------------------------
# Grids and surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproachGrid:
    """Boundary-approaching grid: radial r_k = 1 - 2^-k or level
    eps_k = LEVEL_EPS0 2^-k."""

    kind: str
    k_min: int = 2
    k_max: int = 12

    def __post_init__(self):
        if self.kind not in ("radial", "level"):
            raise NormError(f"unknown grid kind {self.kind!r}")
        if self.k_max < self.k_min:
            raise NormError("empty grid")
        if self.k_min < 0:
            raise NormError(f"grid index k_min = {self.k_min} < 0 is no approach "
                            "to the boundary")
        vals = self.values()
        if self.kind == "radial" and np.any(1.0 - vals < GRID_FLOOR):
            raise NormError("radial grid exceeds the 1 - r >= 1e-9 floor")
        if self.kind == "level" and np.any(vals < GRID_FLOOR):
            raise NormError("level grid exceeds the eps >= 1e-9 floor")

    def ks(self):
        return np.arange(self.k_min, self.k_max + 1)

    def values(self):
        k = np.arange(self.k_min, self.k_max + 1)
        if self.kind == "radial":
            return 1.0 - 2.0 ** (-k.astype(float))
        return LEVEL_EPS0 * 2.0 ** (-k.astype(float))


# defaults, one per surface (``_default_grid``): deep grids for the
# deterministic paths, shallow for MC-backed scans; k_max 29 keeps
# 1 - r >= 1e-9 (2^-30 would cross the floor), and the harmonic depth
# certifies boundedness at exponents hugging the threshold
RADIAL_ZONAL = ApproachGrid("radial", 2, 29)
RADIAL_MC = ApproachGrid("radial", 2, 12)
LEVEL_GRID = ApproachGrid("level", 0, 12)
LEVEL_HARMONIC = ApproachGrid("level", 0, 24)


def _check_radius(radius):
    """Only radius**2 enters a ball's cut, so a radius <= 0 would pass for
    its absolute value or cut nothing; such balls are refused."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise NormError(f"radius {radius:g} must be positive and finite")


@dataclass(frozen=True)
class OpenBall:
    """Open Euclidean ball in the ambient space (the U of local Hardy norms)."""

    center: tuple
    radius: float

    def __post_init__(self):
        fn._vector_tuple(self, "center")
        _check_radius(self.radius)

    def describe(self):
        return _region_text(self.center, self.radius)


def _region_text(center, radius):
    """center=...;r=... of a ball or cap, numbers as short as they read back."""
    return f"center={fn._vector_text(center)};r={_number(float(radius))}"


@dataclass(frozen=True)
class SphereSurface:
    n: int

    def describe(self):
        return f"sphere:n={self.n}"


@dataclass(frozen=True)
class CapSurface:
    n: int
    center: tuple
    radius: float
    complement: bool = False

    def __post_init__(self):
        fn._vector_tuple(self, "center")
        _check_radius(self.radius)
        if len(self.center) != self.n:
            raise NormError(f"cap center has {len(self.center)} coordinates, "
                            f"expected n = {self.n}")
        if not abs(np.linalg.norm(np.asarray(self.center, dtype=complex)) - 1.0) <= 1e-9:
            raise NormError("cap center must lie on the unit sphere")

    def describe(self):
        side = "complement" if self.complement else "cap"
        return f"{side}:n={self.n};{_region_text(self.center, self.radius)}"


@dataclass(frozen=True)
class LevelSurface:
    """The level sets {rho = -eps} of a domain, restricted to U if given."""

    domain: object
    restrict: OpenBall = None

    def describe(self):
        u = f";U:{self.restrict.describe()}" if self.restrict is not None else ""
        return f"level:{self.domain.describe()}{u}"


@dataclass(frozen=True)
class RealLevelSurface:
    """Inner level spheres {|x|^2 = 1 - eps} of the real unit ball."""

    n: int
    restrict: OpenBall = None

    def describe(self):
        u = f";U:{self.restrict.describe()}" if self.restrict is not None else ""
        return f"real-level:n={self.n}{u}"


@dataclass(frozen=True)
class QuadConfig:
    seed: int = 7
    count: int = 100_000            # nodes of a sphere, cap or parametrized rule
    thin_shell_proposals: int = 4_000_000
    force_mc: bool = False          # disable deterministic fast paths (oracles)


# ---------------------------------------------------------------------------
# Single-point integrals
# ---------------------------------------------------------------------------

def _point_seed(cfg, k):
    return (cfg.seed * 0x9E3779B1 + 0x51ED + int(k)) & 0x7FFFFFFFFFFFFFFF


def _mc_guard(est, r):
    """Flag of a sphere Monte Carlo estimate too noisy to trust near the boundary."""
    if 1.0 - r < MC_GUARD_DEPTH and \
            est.stderr > MC_GUARD_REL * max(abs(est.value), 1e-300):
        return "failed: mc variance guard (stderr/value > 0.02 near boundary)"
    return ""


def _region(surface):
    """(ball, complement): the surface is the part inside the open ball
    (outside it with ``complement``), all of it for None.  A cap's ball is
    tested on the unit sphere before scaling by r, a U in ambient coordinates."""
    if isinstance(surface, CapSurface):
        return OpenBall(surface.center, surface.radius), surface.complement
    if isinstance(surface, (LevelSurface, RealLevelSurface)):
        return surface.restrict, False
    return None, False


def _surface_dim(surface):
    """n of the C^n or R^n that holds the surface."""
    return surface.domain.n if isinstance(surface, LevelSurface) else surface.n


def _check_surface(fspec, surface):
    """Refuse f on a surface it is not defined on: a pole of f in another
    dimension than the surface's, a harmonic kernel on a complex surface,
    or any other function on the real level spheres."""
    n = _surface_dim(surface)
    for pole in fn.singular_points(fspec):
        if len(pole) != n:
            raise NormError(f"{fn.describe(fspec)} has a pole in dimension "
                            f"{len(pole)}, the surface {surface.describe()} "
                            f"lies in dimension {n}")
    if isinstance(fspec, fn.HarmonicKernel) != isinstance(surface, RealLevelSurface):
        raise NormError(f"{fn.describe(fspec)} on {surface.describe()}: the "
                        f"harmonic kernel, and only it, is scanned on the real "
                        f"level spheres")


def _zonal_ok(fspec, surface, cfg):
    """Whether point_integral takes the deterministic zonal rule on ``surface``:
    f is zonal, fast paths are on, the surface is a sphere up to scale in
    C^n, n >= 2 (``quadrature.integrate_zonal`` needs n >= 2), and any cap
    or restriction is centered on the zonal center."""
    zc = fn.zonal_center(fspec)
    if zc is None or cfg.force_mc:
        return False
    if isinstance(surface, LevelSurface):
        if surface.domain.warps or not surface.domain.ball:
            return False
    elif not isinstance(surface, (SphereSurface, CapSurface)):
        return False
    if _surface_dim(surface) < 2:
        return False
    ball, _ = _region(surface)
    if ball is None:
        return True
    if isinstance(zc, str):  # a constant: zonal about any cap's center, not a U's
        return isinstance(surface, CapSurface)
    return np.allclose(np.asarray(ball.center), zc, atol=1e-12)


def _chart_ok(fspec, surface, cfg):
    """Whether point_integrals takes the disk chart (``_chart_integral``):
    fast paths are on, the surface is a level set of an unwarped quadric in
    C^2, f is a Levi kernel of an unwarped quadric with its pole
    zeta = (zeta1, 0), zeta1 > 0, and any restriction is a ball centered at
    zeta on a domain with a1 <= a2, where the ball cuts one radial interval
    per angle of the chart."""
    if cfg.force_mc or not isinstance(surface, LevelSurface):
        return False
    domain = surface.domain
    if domain.warps or domain.n != 2:
        return False
    if not isinstance(fspec, (fn.LeviReciprocal, fn.LeviPower)) or fspec.domain.warps:
        return False
    zeta = np.asarray(fspec.zeta, dtype=complex)
    if zeta.size != 2 or zeta[1] != 0 or zeta[0].imag != 0 or not zeta[0].real > 0:
        return False
    ball = surface.restrict
    if ball is None:
        return True
    return domain.a[0] <= domain.a[1] and np.allclose(np.asarray(ball.center), zeta,
                                                      atol=1e-12)


def _chart_integral(fspec, ps, surface, eps):
    """(estimates, area factor) of the level set {rho = -eps} on the disk
    chart (``quadrature.quadric_chart``).

    On a quadric the level set is R times S = {a1 |z1|^2 + a2 |z2|^2 = 1},
    R = sqrt(1 - eps / c), so its integral is R^3 times that of
    |f(R z)|^p over S, restricted to B(zeta / R, r / R) for a ball B(zeta, r).
    The Levi kernel depends on z1 alone, and |f| is even in z1 -> conj(z1),
    so the chart's folded nodes carry it."""
    _, eps_eff = level_weights(surface.domain, eps)
    R = math.sqrt(1.0 - eps_eff)
    ball = surface.restrict
    if ball is not None:
        ball = (complex(fspec.zeta[0]).real / R, ball.radius / R)
    rule = quad.quadric_chart(surface.domain.a, ball)
    if rule is None:  # the ball misses the level set
        return quad.IntegralEstimate(0.0, 0.0, 0, "exact-empty"), 1.0
    gt = lambda z1: _powers(fn.chart_abs(fspec, R * z1), ps)
    return quad.integrate_zonal(gt, 2, even=True, rule=rule), R ** 3


def _powers(a, ps):
    """The (P, N) stack of a ** p over the exponents ``ps``, raised one scalar
    exponent at a time so each row is bit for bit the one-exponent integrand."""
    out = np.empty((len(ps),) + np.shape(a))
    for i, p in enumerate(ps):
        out[i] = a ** p
    return out


def _zonal_integral(fspec, ps, surface, x):
    """(estimates, area factor) on the zonal path.

    Every zonal surface is a sphere of radius R, whole (c = -1) or cut by a
    ball B(center, radius) centered on the zonal direction.  On the sphere of
    radius rho where the ball is tested the cut is {Re lam > c},
    c = (rho^2 + 1 - radius^2) / (2 rho): rho = 1 for a cap, R for a level set.
    """
    R, factor, rho = x, 1.0, 1.0
    if isinstance(surface, LevelSurface):
        _, eps_eff = level_weights(surface.domain, x)
        R = rho = math.sqrt(1.0 - eps_eff)
        factor = R ** (2 * surface.domain.n - 1)
    ball, complement = _region(surface)
    c = -1.0 if ball is None else (rho * rho + 1.0 - ball.radius ** 2) / (2.0 * rho)
    gt = lambda lam: _powers(fn.zonal_abs(fspec, R * lam), ps)
    if not -1.0 < c < 1.0:  # the ball holds all of the sphere or none of it
        if (c <= -1.0) == complement:  # the region is empty
            return quad.IntegralEstimate(0.0, 0.0, 0, "exact-empty"), factor
        c, complement = -1.0, False  # the whole sphere: one cached rule
    return quad.integrate_zonal(gt, _surface_dim(surface), c, complement,
                                even=fn.conjugation_even(fspec)), factor


def _sphere_mc(fspec, ps, surface, r, cfg, seed):
    """Monte Carlo on the sphere or a cap of it: importance sampling around
    the singular points inside the region, else uniform nodes; f is
    evaluated only inside the region."""
    g = lambda Z: _powers(np.abs(fn.evaluate(fspec, r * Z)), ps)
    centers = fn.singular_points(fspec)
    depth = math.sqrt(2.0 * (1.0 - r))
    ball, complement = _region(surface)
    if ball is None:
        if centers:
            return quad.integrate_sphere_importance(g, surface.n, centers, depth,
                                                    cfg.count, seed)
        return quad.integrate_sphere(g, surface.n, cfg.count, seed)
    in_region = [c for c in centers
                 if (np.linalg.norm(np.asarray(c) - np.asarray(ball.center))
                     < ball.radius) != complement]
    if in_region:
        return quad.integrate_sphere_importance(
            quad.inside_only(g, ball.center, ball.radius, complement), surface.n,
            in_region, depth, cfg.count, seed)
    return quad.integrate_cap(g, ball.center, ball.radius, surface.n,
                              cfg.count, seed, complement=complement)


def _level_mc(fspec, ps, surface, eps, cfg, seed):
    """Level-set Monte Carlo on U if given: thin shell if warped, else ring strata."""
    g = lambda Z: _powers(fn.level_abs(fspec, Z), ps)
    U, _ = _region(surface)
    centers = [np.asarray(c, dtype=complex) for c in fn.singular_points(fspec)]
    method, count = (("thin-shell", cfg.thin_shell_proposals) if surface.domain.warps
                     else ("parametrized", cfg.count))
    return quad.integrate_level_set(
        g, surface.domain, eps, method=method, count=count, seed=seed,
        within=(U.center, U.radius) if U is not None else None,
        singular_center=centers[0] if centers else None)


def _harmonic_integral(fspec, ps, surface, eps):
    """(estimates, area factor) of a harmonic kernel on a real level sphere."""
    n = surface.n
    R = math.sqrt(1.0 - eps)
    gap = eps / (1.0 + R)  # 1 - R without cancellation
    expos = [-((n - 2) * p / 2.0) for p in ps]
    # |R x - y|^2 = (1-R)^2 + 2 R u in the gap variable u = 1 - x.y
    G = lambda u: _powers(gap * gap + 2.0 * R * u, expos)
    u_hi = 2.0
    U, _ = _region(surface)
    if U is not None:
        if not np.allclose(np.asarray(U.center), fspec.y, atol=1e-12):
            raise NormError("harmonic restriction must be centered at the pole")
        u_hi = (U.radius ** 2 - gap * gap) / (2.0 * R)
    return quad.integrate_real_zonal(G, n, u_hi=u_hi), R ** (n - 1)


# Exact (fspec, surface, x, p) results kept per process, oldest dropped first.
EXACT_MEMO_ENTRIES = 4096
_exact_memo = {}


def _exact_integrals(integral, fspec, ps, surface, x):
    """``integral``'s (IntegralEstimate, flag) per exponent, each integrated
    once per process: the exponents met before at (fspec, surface, x) are
    read from the memo, and one rule and one evaluation of |f| serve the
    rest.  Each row of ``_powers`` and of the reduction is computed alone,
    so a result does not depend on the exponents integrated beside it."""
    found = {p: _exact_memo.get((fspec, surface, x, p)) for p in ps}
    missing = [p for p, hit in found.items() if hit is None]
    if missing:
        ests, factor = integral(fspec, missing, surface, x)
        if isinstance(ests, quad.IntegralEstimate):  # empty region: nothing evaluated
            ests = [ests] * len(missing)
        for p, est in zip(missing, ests):
            est = replace(est, value=est.value * factor, stderr=est.stderr * factor)
            found[p] = _exact_memo[(fspec, surface, x, p)] = \
                (est, "overflow" if est.overflowed else "")
            if len(_exact_memo) > EXACT_MEMO_ENTRIES:
                del _exact_memo[next(iter(_exact_memo))]
    return [found[p] for p in ps]


def point_integrals(fspec, ps, surface, xval, cfg, k=0):
    """Surface integrals of |f|^p at one grid point for every exponent in
    ``ps``: one rule and one evaluation of |f|, shared by all of them.

    Returns one (IntegralEstimate, flag) per exponent, each equal to
    ``point_integral`` at that exponent.  The exact paths (harmonic, zonal
    and disk chart) depend on neither the seed nor ``k``, so each of their
    results is integrated once per process and kept in a memo of at most
    EXACT_MEMO_ENTRIES results keyed by (fspec, surface, x, p); ``cfg``
    only picks the path.  Monte Carlo results, which are seeded, and points
    that raise are never kept.
    """
    x = float(xval)
    if isinstance(surface, RealLevelSurface):
        return _exact_integrals(_harmonic_integral, fspec, ps, surface, x)
    if _zonal_ok(fspec, surface, cfg):
        return _exact_integrals(_zonal_integral, fspec, ps, surface, x)
    if _chart_ok(fspec, surface, cfg):
        return _exact_integrals(_chart_integral, fspec, ps, surface, x)
    guarded = False
    if isinstance(surface, LevelSurface):
        ests = _level_mc(fspec, ps, surface, x, cfg, _point_seed(cfg, k))
    elif isinstance(surface, (SphereSurface, CapSurface)):
        ests = _sphere_mc(fspec, ps, surface, x, cfg, _point_seed(cfg, k))
        guarded = True
    else:
        raise NormError(f"unknown surface {surface!r}")
    if isinstance(ests, quad.IntegralEstimate):  # empty region: nothing evaluated
        ests = [ests] * len(ps)
    return [(est, "overflow" if est.overflowed else (_mc_guard(est, x) if guarded else ""))
            for est in ests]


def point_integral(fspec, p, surface, xval, cfg, k=0):
    """One surface integral of |f|^p; returns (IntegralEstimate, flag)."""
    return point_integrals(fspec, (p,), surface, xval, cfg, k)[0]


def radial_integral(fspec, p, r, cfg=None):
    """I(r) = int_S |f(r z)|^p dsigma(z), zonal fast path when available."""
    cfg = cfg or QuadConfig()
    if not 0.0 < r < 1.0:
        raise NormError("radius must lie in (0, 1)")
    if p < 1.0:
        raise NormError("p must be >= 1")
    est, flag = point_integral(fspec, p, SphereSurface(fn.ambient_dim(fspec)),
                               r, cfg)
    if flag.startswith("failed"):
        raise NormError(flag)
    return est


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

DETERMINISTIC_METHODS = ("zonal", "real-zonal", "exact-empty")


@dataclass
class NormScan:
    p: float
    grid: ApproachGrid
    surface: object
    fspec: object
    values: np.ndarray
    stderrs: np.ndarray
    flags: list
    methods: list

    def usable_mask(self):
        """Points trusted for fits and sups: finite, unflagged, and either
        deterministic or with relative error below 5% (a Monte Carlo zero
        carries no information and is dropped)."""
        v = self.values
        s = self.stderrs
        ok = np.isfinite(v) & np.isfinite(s)
        for i, fl in enumerate(self.flags):
            if fl:
                ok[i] = False
        det = np.array([m in DETERMINISTIC_METHODS for m in self.methods])
        with np.errstate(invalid="ignore"):
            rel_ok = (v > 0) & (s <= 0.05 * v)
        return ok & (det | rel_ok)

    def has_overflow(self):
        return any(f == "overflow" for f in self.flags)

    def describe(self):
        """f, p, the surface and the rules the points took, first seen first."""
        rules = ",".join(dict.fromkeys(m for m in self.methods if m))
        return (f"scan(f={fn.describe(self.fspec)}, p={self.p:g}, "
                f"surface={self.surface.describe()}, rule={rules})")


def scans(fspec, ps, grid, surface, cfg=None):
    """One scan of |f|^p along the grid per exponent in ``ps``, each equal to
    ``scan`` at that exponent; every grid point builds one rule and evaluates
    |f| once for all the exponents still live there.  A grid of None is the
    surface's default (``_default_grid``).

    f is checked against the surface first (``_check_surface``), which
    raises NormError.  A failed point (a ``failed:`` flag such as the MC
    variance guard) ends the scan of its exponent and marks the rest of that
    grid ``truncated``; a package error raised at a point fails and
    truncates every live scan.
    """
    cfg = cfg or QuadConfig()
    _check_surface(fspec, surface)
    if grid is None:
        grid = _default_grid(fspec, surface, cfg)
    xs = grid.values()
    n = len(xs)
    out = [NormScan(p=p, grid=grid, surface=surface, fspec=fspec,
                    values=np.full(n, np.nan), stderrs=np.full(n, np.nan),
                    flags=[""] * n, methods=[""] * n) for p in ps]
    live = out
    for i, (k, x) in enumerate(zip(grid.ks(), xs)):
        if not live:
            break
        try:
            if len(live) == 1:  # keeps the per-point span perfbench records
                results = [point_integral(fspec, live[0].p, surface, x, cfg, k=int(k))]
            else:
                results = point_integrals(fspec, [sc.p for sc in live], surface,
                                          x, cfg, k=int(k))
        except (NormError, quad.QuadratureError, fn.FunctionError,
                GeometryError) as exc:  # record and truncate per the scan contract
            results = [(None, f"failed: {exc}")] * len(live)
        for sc, (est, flag) in zip(live, results):
            sc.flags[i] = flag
            if est is not None:
                sc.values[i] = est.value
                sc.stderrs[i] = est.stderr
                sc.methods[i] = est.method
            if flag.startswith("failed"):
                sc.flags[i + 1:] = ["truncated"] * (n - i - 1)
        live = [sc for sc in live if not sc.flags[i].startswith("failed")]
    return out


def scan(fspec, p, grid, surface, cfg=None):
    """Surface integrals of |f|^p along the grid: the one-exponent case of
    ``scans``.  The first failed point truncates the scan."""
    return scans(fspec, (p,), grid, surface, cfg)[0]


# ---------------------------------------------------------------------------
# Divergence classification
# ---------------------------------------------------------------------------

@dataclass
class DivergenceVerdict:
    klass: str               # Bounded | LogDivergent | PowerDivergent | Inconclusive
    rate: float = float("nan")
    r2: float = float("nan")
    sup_estimate: float = float("nan")
    n_used: int = 0
    note: str = ""

    @property
    def divergent(self):
        return self.klass in ("LogDivergent", "PowerDivergent")


def _linfit(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


MIN_POINTS = 6
POWER_SLOPE_MIN = 0.05
FIT_R2_MIN = 0.98
BOUNDED_TAIL_FRAC = 0.05


def classify(sc):
    """Trichotomy verdict for a scan: power model first, then log model, then
    a bounded tail test; anything else is Inconclusive.

    Models are fit against x = k ln 2, so that a scan growing like
    log(1/(1-r)) is linear and one growing like (1-r)^-alpha is linear in the
    log of the values with slope alpha.
    """
    mask = sc.usable_mask()
    x_all = sc.grid.ks().astype(float) * LN2
    x = x_all[mask]
    y = sc.values[mask]
    n_used = int(mask.sum())

    if sc.has_overflow():
        note = "overflow forced divergent classification"
        if n_used >= 2 and np.all(y > 0):
            slope, r2 = _linfit(x, np.log(y))
            return DivergenceVerdict("PowerDivergent", rate=slope, r2=r2,
                                     n_used=n_used, note=note)
        return DivergenceVerdict("PowerDivergent", n_used=n_used, note=note)

    if n_used < MIN_POINTS:
        return DivergenceVerdict("Inconclusive", n_used=n_used,
                                 note="insufficient usable points")

    if np.all(y > 0):
        slope_p, r2_p = _linfit(x, np.log(y))
        if slope_p > POWER_SLOPE_MIN and r2_p >= FIT_R2_MIN:
            return DivergenceVerdict("PowerDivergent", rate=slope_p, r2=r2_p,
                                     n_used=n_used)
    slope_l, r2_l = _linfit(x, y)
    # positive slope must describe growth above float noise on the window
    grows = slope_l * (x[-1] - x[0]) > 1e-9 * float(np.max(np.abs(y)))
    if grows and r2_l >= FIT_R2_MIN:
        return DivergenceVerdict("LogDivergent", rate=slope_l, r2=r2_l,
                                 n_used=n_used)
    i23 = (2 * len(y)) // 3
    y_max = float(np.max(y))
    if y_max - y[i23] <= BOUNDED_TAIL_FRAC * y_max:
        return DivergenceVerdict("Bounded", rate=slope_l, r2=r2_l,
                                 sup_estimate=y_max, n_used=n_used)
    return DivergenceVerdict("Inconclusive", rate=slope_l, r2=r2_l, n_used=n_used,
                             note="neither fit accepted and tail still rising")


GROWTH_ALPHAS = np.linspace(-3.0, 3.0, 601)  # the first grid of growth_exponent
GROWTH_REFINE = 3      # finer grids, each over the two cells around the best
GROWTH_REL_FLOOR = 1e-3  # a residual's scale is at least this share of I


def growth_exponent(sc):
    """The growth exponent alpha of the model I_k = A + B (2^(alpha k) - 1) /
    alpha (B k ln 2 at alpha = 0), fitted to a scan's usable points by
    variable projection: for each alpha on a grid, (A, B) solve the linear
    least squares with residual weights 1 / max(stderr, GROWTH_REL_FLOOR I),
    and alpha minimizes the weighted residual, refined on GROWTH_REFINE
    finer grids.  I_k grows like 2^((p - n) k), so alpha > 0 means
    divergence.  An overflowing scan gives +inf, a scan with fewer than
    three usable points NaN."""
    if sc.has_overflow():
        return math.inf
    mask = sc.usable_mask()
    if mask.sum() < 3:
        return math.nan
    k = sc.grid.ks()[mask].astype(float)
    y = sc.values[mask]
    w = 1.0 / np.maximum(sc.stderrs[mask], GROWTH_REL_FLOOR * np.abs(y))

    def residuals(alphas):
        """The weighted residual of the best (A, B) at each alpha: the
        normal equations of the columns w and w e against w y."""
        al = alphas[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            e = w * np.where(al == 0.0, k * LN2, np.expm1(al * k * LN2) / al)
        v = w * y
        s00, s01, s11 = np.sum(w * w), e @ w, np.sum(e * e, axis=1)
        t0, t1 = np.sum(w * v), e @ v
        det = s00 * s11 - s01 * s01
        A = (s11 * t0 - s01 * t1) / det
        B = (s00 * t1 - s01 * t0) / det
        return np.sum((A[:, None] * w + B[:, None] * e - v) ** 2, axis=1)

    alphas = GROWTH_ALPHAS
    for _ in range(GROWTH_REFINE + 1):
        i = int(np.argmin(residuals(alphas)))
        lo, hi = alphas[max(i - 1, 0)], alphas[min(i + 1, alphas.size - 1)]
        best = alphas[i]
        alphas = np.linspace(lo, hi, 101)
    return float(best)


# ---------------------------------------------------------------------------
# Membership and named scan variants
# ---------------------------------------------------------------------------

@dataclass
class Membership:
    status: str              # In | Out | Inconclusive
    verdict: DivergenceVerdict
    scan: NormScan


def membership_from_verdict(v):
    if v.klass == "Bounded":
        return "In"
    if v.divergent:
        return "Out"
    return "Inconclusive"


def membership_verdicts(fspec, ps, surface, grid=None, cfg=None):
    """In/Out/Inconclusive decisions for f against the Hardy-type spaces of
    every exponent in ``ps``, from one ``scans`` call."""
    out = []
    for sc in scans(fspec, ps, grid, surface, cfg):
        v = classify(sc)
        out.append(Membership(membership_from_verdict(v), v, sc))
    return out


def membership_verdict(fspec, p, surface, grid=None, cfg=None):
    """In/Out/Inconclusive decision for f against one Hardy-type space."""
    return membership_verdicts(fspec, (p,), surface, grid, cfg)[0]


def _default_grid(fspec, surface, cfg):
    """The grid ``scans`` takes on ``surface`` when given none."""
    if isinstance(surface, RealLevelSurface):
        return LEVEL_HARMONIC
    if isinstance(surface, LevelSurface):
        return LEVEL_GRID
    return RADIAL_ZONAL if _zonal_ok(fspec, surface, cfg) else RADIAL_MC


def local_scan_ball(fspec, p, center, radius, grid=None, cfg=None, complement=False):
    """Radial scan restricted to the cap G = S cap B(center, radius)."""
    surface = CapSurface(fn.ambient_dim(fspec), tuple(complex(c) for c in center),
                         float(radius), complement=complement)
    return scan(fspec, p, grid, surface, cfg)


def level_scan_domain(fspec, p, domain, grid=None, cfg=None, restrict=None):
    """Scan of level-set integrals of |f|^p over {rho = -eps}, optionally
    restricted to an open set U.  ``point_integrals`` picks each level's
    rule from the domain: the zonal rule on a ball (``_zonal_ok``), the disk
    chart for a Levi kernel in C^2 (``_chart_ok``), else ``_level_mc``."""
    return scan(fspec, p, grid, LevelSurface(domain, restrict), cfg)


def harmonic_scan(y, p, n, grid=None, cfg=None, restrict=None):
    """Scan of intphi_y^p over the inner level spheres of the real unit ball."""
    if n < 3:
        raise NormError("harmonic scans require n >= 3")
    fspec = fn.HarmonicKernel(tuple(float(v) for v in y), n)
    return scan(fspec, p, grid, RealLevelSurface(n, restrict=restrict), cfg)


def seminorm_estimate(sc):
    """Grid estimate sup_k I_k^{1/p} over usable points (lower bound of the norm)."""
    mask = sc.usable_mask()
    if not mask.any():
        raise NormError("no usable scan points for a seminorm estimate")
    return float(np.max(sc.values[mask]) ** (1.0 / sc.p))


def hardy_seminorm(fspec, p, grid=None, cfg=None):
    """sup over the grid of I^{1/p} on the unit sphere; raises if the scan
    diverges."""
    sc = scan(fspec, p, grid, SphereSurface(fn.ambient_dim(fspec)), cfg)
    v = classify(sc)
    if v.divergent:
        raise NotInSpaceError(f"not in H^p: {sc.describe()} classified {v.klass}")
    return seminorm_estimate(sc)


# ---------------------------------------------------------------------------
# The metric on intersection spaces
# ---------------------------------------------------------------------------

MAX_METRIC_TERMS = 53  # exponent ladder terms; p_J = 54 at q = infinity


@dataclass(frozen=True)
class IntersectionMetricSpec:
    """Exponent ladder p_j = q - (q-1)/2^j (j+1 for q = infinity) rising to q,
    truncated at J terms.

    Every term stacks one row of |f|^p_j at each grid point, so J is capped
    at MAX_METRIC_TERMS, which also bounds q = infinity.  A finite q needs
    p_J < q as well: in floating point p_j rounds to q itself from j = 50
    to 54, depending on q."""

    q: float
    J: int = 20

    def __post_init__(self):
        if self.J < 1:
            raise NormError(f"J = {self.J} terms: the metric needs at least one")
        if self.J > MAX_METRIC_TERMS:
            raise NormError(f"J = {self.J} terms: the metric takes at most "
                            f"{MAX_METRIC_TERMS}")
        p_last = float(self.p_list()[-1])
        if not p_last < self.q:
            raise NormError(f"J = {self.J} terms: p_J = {p_last!r} rounds to "
                            f"q = {self.q!r}, not below it")

    def p_list(self):
        j = np.arange(1, self.J + 1)
        if math.isinf(self.q):
            return (j + 1).astype(float)
        return self.q - (self.q - 1.0) / 2.0 ** j


@dataclass
class MetricResult:
    value: float
    uncertainty: float
    terms: tuple     # (p_j, seminorm estimate, classification)


def intersection_metric(f, g, mspec, grid=None, cfg=None):
    """Truncated metric d(f, g) = sum_j 2^-j N_j/(1+N_j), N_j = ||f-g||_{p_j}
    on the unit sphere.

    Seminorms are grid sups, lower estimates of the true norms.  Because the
    exponent ladder hugs q, the component scans of in-space functions
    legitimately look divergent on any finite grid (their saturation horizon
    exceeds the deepest reachable radius), so per-term classifications are
    reported in the result rather than being fatal; only a scan overflowing
    float range raises, at the first such p_j, which certifies f - g outside
    the space.

    The whole ladder is one ``scans`` call: each grid point builds its rule
    and evaluates f - g once for every exponent.
    """
    diff = fn.subtract(f, g)
    p_values = mspec.p_list()
    tail = 2.0 ** (-len(p_values))
    if fn.is_zero(diff):
        return MetricResult(0.0, tail, ())
    value = 0.0
    uncertainty = tail
    terms = []
    ladder = scans(diff, [float(pj) for pj in p_values], grid,
                   SphereSurface(fn.ambient_dim(diff)), cfg)
    for j, (pj, sc) in enumerate(zip(p_values, ladder), start=1):
        v = classify(sc)
        if sc.has_overflow():
            raise NotInSpaceError(
                f"not in intersection space: ||f-g||_{pj:g} overflowed")
        mask = sc.usable_mask()
        if not mask.any():
            raise NormError(f"no usable points for metric term p={pj:g}")
        idx = int(np.argmax(np.where(mask, sc.values, -np.inf)))
        norm_j = sc.values[idx] ** (1.0 / pj)
        dnorm = (sc.stderrs[idx] / pj) * sc.values[idx] ** (1.0 / pj - 1.0) \
            if sc.values[idx] > 0 else 0.0
        w = 2.0 ** (-j)
        value += w * norm_j / (1.0 + norm_j)
        uncertainty += w * dnorm / (1.0 + norm_j) ** 2
        terms.append((float(pj), float(norm_j), v.klass))
    return MetricResult(float(value), float(uncertainty), tuple(terms))


def power_kernel_norm(n, q, p):
    """||PowerCauchy(w, q)||_p on the unit ball of C^n in closed form, for
    0 < p < q; it is the same for every pole w.

    |f|^p = |1 - <z, w>|^{-s} with s = np/q, whose sphere integral is
    sigma Gamma(n) Gamma(n - s) / Gamma(n - s/2)^2, sigma the sphere's area
    (Rudin, Function Theory in the Unit Ball, Prop. 1.4.10).  The integral
    over r S rises with r, so this boundary value is the norm.
    """
    s = n * p / q
    if not 0.0 < s < n:
        raise NormError(f"||power kernel||_{p:g} is finite only for 0 < p < "
                        f"q = {q:g}")
    log_integral = (math.log(quad.sphere_area(n)) + math.lgamma(n)
                    + math.lgamma(n - s) - 2.0 * math.lgamma(n - s / 2.0))
    return math.exp(log_integral / p)


def power_sum_metric_bound(n, scale, mspec):
    """Certified upper bound on the untruncated metric d(f, g) of the ladder
    ``mspec`` when f - g is a sum of ``PowerCauchy(w, mspec.q)`` kernels on
    the unit ball of C^n whose coefficients have absolute sum at most
    ``scale``.

    By the triangle inequality ||f - g||_{p_j} <= u_j = scale N_{p_j}, N the
    closed form of ``power_kernel_norm``; x/(1 + x) rises with x, so
    d <= sum_{j <= J} 2^-j u_j/(1 + u_j) + 2^-J, the last term bounding the
    terms past J.  The result is exact arithmetic: uncertainty 0, terms
    (p_j, u_j, "closed form").
    """
    value = 2.0 ** -mspec.J
    terms = []
    for j, pj in enumerate(mspec.p_list(), start=1):
        u = scale * power_kernel_norm(n, mspec.q, float(pj))
        value += 2.0 ** (-j) * u / (1.0 + u)
        terms.append((float(pj), u, "closed form"))
    return MetricResult(value, 0.0, tuple(terms))
