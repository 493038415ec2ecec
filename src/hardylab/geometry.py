"""Domains cut out by defining functions, Levi-form data, and boundary access.

Conventions used throughout the package:

* A point of C^n is a numpy ``complex128`` array of shape ``(n,)``; batches of
  points stack along leading axes, shape ``(..., n)``.
* The Hermitian pairing is ``<z, w> = sum_j z_j * conj(w_j)``.
* Real coordinates: ``z_j = x_j + i*y_j``.  The real gradient of a real-valued
  rho relates to the complex one by ``|grad rho| = 2 * ||d rho/dz||``.
* A defining function rho is negative inside the domain, zero on the boundary
  and has non-vanishing gradient there.  Inner level hypersurfaces are
  ``{rho = -eps}`` with ``eps > 0``.
* A domain is its defining function: ``UnitBall``, ``Ellipsoid``, or either
  under ``Rescaled`` and ``Warped`` wrappers, as ``parse_domain`` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BOUNDARY_TOL = 1e-12

# margin below which a Levi-estimate sample counts as a violation (float noise floor)
_VIOLATION_TOL = -1e-10


class GeometryError(ValueError):
    pass


def hermitian(z, w):
    """Hermitian pairing <z, w> = sum_j z_j conj(w_j), broadcasting over leading axes."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.sum(z * np.conj(w), axis=-1)


def to_real(Z):
    """View (..., n) complex as (..., 2n) real, interleaved (x1, y1, ..., xn, yn)."""
    Z = np.asarray(Z, dtype=complex)
    out = np.empty(Z.shape[:-1] + (2 * Z.shape[-1],))
    out[..., 0::2] = Z.real
    out[..., 1::2] = Z.imag
    return out


def to_complex(X):
    X = np.asarray(X, dtype=float)
    return X[..., 0::2] + 1j * X[..., 1::2]


# ---------------------------------------------------------------------------
# Defining functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitBall:
    """rho(z) = |z|^2 - 1."""

    n: int

    def rho(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.sum(np.abs(Z) ** 2, axis=-1) - 1.0

    def dz(self, Z):
        return np.conj(np.asarray(Z, dtype=complex))

    def hess_zz(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.zeros(Z.shape + (self.n,), dtype=complex)

    def hess_zzbar(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.broadcast_to(np.eye(self.n, dtype=complex), Z.shape + (self.n,)).copy()

    @property
    def weights(self):
        return np.ones(self.n)

    def describe(self):
        return f"ball:n={self.n}"


@dataclass(frozen=True)
class Ellipsoid:
    """rho(z) = sum_j a_j |z_j|^2 - 1 with all a_j > 0."""

    a: tuple

    def __post_init__(self):
        if any(aj <= 0 for aj in self.a):
            raise GeometryError("ellipsoid weights must be positive")

    @property
    def n(self):
        return len(self.a)

    def rho(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.sum(np.asarray(self.a) * np.abs(Z) ** 2, axis=-1) - 1.0

    def dz(self, Z):
        return np.asarray(self.a) * np.conj(np.asarray(Z, dtype=complex))

    def hess_zz(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.zeros(Z.shape + (self.n,), dtype=complex)

    def hess_zzbar(self, Z):
        Z = np.asarray(Z, dtype=complex)
        h = np.diag(np.asarray(self.a, dtype=complex))
        return np.broadcast_to(h, Z.shape + (self.n,)).copy()

    @property
    def weights(self):
        return np.asarray(self.a, dtype=float)

    def describe(self):
        return "ellipsoid:a=" + ",".join(f"{aj:g}" for aj in self.a)


@dataclass(frozen=True)
class Rescaled:
    """rho = c * rho_base with c > 0: same domain, rescaled defining function."""

    base: object
    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise GeometryError("rescale factor must be positive")

    @property
    def n(self):
        return self.base.n

    def rho(self, Z):
        return self.c * self.base.rho(Z)

    def dz(self, Z):
        return self.c * self.base.dz(Z)

    def hess_zz(self, Z):
        return self.c * self.base.hess_zz(Z)

    def hess_zzbar(self, Z):
        return self.c * self.base.hess_zzbar(Z)

    def describe(self):
        return f"rescaled:base={self.base.describe()};c={self.c:g}"


def warp_multiplier(x1, warps=1):
    """exp(warps * x1): the multiplier u(z) = exp(Re z_1) of Warped, raised to
    the number of nested warps, at points whose Re z_1 is x1."""
    return np.exp(warps * x1)


@dataclass(frozen=True)
class Warped:
    """rho = u * rho_base with the smooth positive multiplier u(z) = exp(Re z_1)."""

    base: object

    @property
    def n(self):
        return self.base.n

    def _u(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return warp_multiplier(Z[..., 0].real)

    def rho(self, Z):
        return self._u(Z) * self.base.rho(Z)

    def dz(self, Z):
        # d(u rho) = u_z rho + u rho_z ;  u_{z1} = u/2 for u = exp(Re z1)
        Z = np.asarray(Z, dtype=complex)
        u = self._u(Z)
        out = u[..., None] * self.base.dz(Z)
        out[..., 0] += 0.5 * u * self.base.rho(Z)
        return out

    def hess_zz(self, Z):
        Z = np.asarray(Z, dtype=complex)
        u = self._u(Z)
        r = self.base.rho(Z)
        dr = self.base.dz(Z)
        h = u[..., None, None] * self.base.hess_zz(Z)
        # u_{z1 z1} = u/4, u_{z1} = u/2, zero in other coordinates
        h[..., 0, 0] += 0.25 * u * r
        h[..., 0, :] += 0.5 * u[..., None] * dr
        h[..., :, 0] += 0.5 * u[..., None] * dr
        return h

    def hess_zzbar(self, Z):
        Z = np.asarray(Z, dtype=complex)
        u = self._u(Z)
        r = self.base.rho(Z)
        dr = self.base.dz(Z)
        h = u[..., None, None] * self.base.hess_zzbar(Z)
        h[..., 0, 0] += 0.25 * u * r
        # u_{z1} rho_{zbar k} = (u/2) conj(rho_{z k}) along the first row
        h[..., 0, :] += 0.5 * u[..., None] * np.conj(dr)
        h[..., :, 0] += 0.5 * u[..., None] * dr
        return h

    def describe(self):
        return f"warped:base={self.base.describe()};u=x1"


def grad_norm(defining, Z):
    """Norm of the real 2n-gradient of rho, equal to 2*||d rho/dz||."""
    return 2.0 * np.linalg.norm(defining.dz(Z), axis=-1)


def quadric(defining):
    """(base, c, warps): the UnitBall or Ellipsoid under the Rescaled and
    Warped wrappers of ``defining``, the product c of the rescale factors,
    and the number of warps."""
    c, warps = 1.0, 0
    while isinstance(defining, (Rescaled, Warped)):
        if isinstance(defining, Rescaled):
            c *= defining.c
        else:
            warps += 1
        defining = defining.base
    return defining, c, warps


def level_weights(domain, eps):
    """(weights, eps_eff) with {rho = -eps} = {sum_j w_j |z_j|^2 = 1 - eps_eff},
    or None for a warped domain; raises if that level set is empty."""
    base, c, warps = quadric(domain)
    if warps:
        return None
    eps_eff = eps / c
    if eps_eff >= 1.0:
        raise GeometryError("level set empty")
    return base.weights, eps_eff


def box_halfwidths(domain):
    """Per-complex-coordinate half-width of a box containing the closure."""
    return 1.0 / np.sqrt(quadric(domain)[0].weights)


def eps_max(domain):
    """Largest eps for which {rho = -eps} is guaranteed nonempty and smooth."""
    _, c, warps = quadric(domain)
    # each multiplier exp(x1) is >= exp(-b1) on the bounding box
    return 0.9 * (c * np.exp(-box_halfwidths(domain)[0]) ** warps)


def parse_domain(text):
    """The defining function of a domain, from a config string.

    Examples: "ball:n=2", "ellipsoid:a=1,2",
    "rescaled:base=ellipsoid:a=1,2;c=2", "warped:base=ball:n=2;u=x1".
    """
    kind, _, rest = text.strip().partition(":")
    kv = {}
    for part in rest.split(";"):
        if not part:
            continue
        key, _, val = part.partition("=")
        kv[key.strip()] = val.strip()
    if kind == "ball":
        return UnitBall(int(kv["n"]))
    if kind == "ellipsoid":
        a = tuple(float(x) for x in kv["a"].split(","))
        return Ellipsoid(a)
    if kind == "rescaled":
        return Rescaled(parse_domain(kv["base"]), float(kv["c"]))
    if kind == "warped":
        if kv.get("u", "x1") != "x1":
            raise GeometryError(f"unknown multiplier {kv['u']!r}")
        return Warped(parse_domain(kv["base"]))
    raise GeometryError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# Seeded sampling helpers (counter-based, safe to parallelize by stream)
# ---------------------------------------------------------------------------

def rng_stream(seed, *streams):
    """Philox generator keyed by (seed, stream ids); counter-based and reproducible."""
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    mix = np.uint64(0x9E3779B97F4A7C15)
    for s in streams:
        key = np.uint64((int(key) * 0x100000001B3 + int(s) + 0x51) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=[int(key), int(mix)]))


def _kronecker_alpha(d):
    """The R_d generator: alpha_j = phi_d^-(j+1), phi_d the positive root of
    x^(d+1) = x + 1 (M. Roberts, "The unreasonable effectiveness of
    quasirandom sequences", 2018)."""
    phi = 2.0
    for _ in range(64):  # x <- (1 + x)^(1/(d+1)) contracts to the root
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return phi ** -np.arange(1.0, d + 1.0)


def boundary_dense_sequence(domain, count, seed=7):
    """Deterministic quasi-uniform points on the boundary hypersurface.

    The R_d Kronecker sequence in [0, 1)^{2n}, with a Cranley-Patterson shift
    drawn from the seed, turned into Gaussian vectors by Box-Muller pairs
    (2n is even) and so into directions on the unit sphere of R^{2n}, then
    radially projected onto {rho = 0}.  The first k points do not depend on
    count; the empirical covering radius decreases as count grows.
    """
    if count < 1:
        raise GeometryError("count must be >= 1")
    d = 2 * domain.n
    shift = rng_stream(seed, 0xB0D).random(d)
    u = (shift + np.arange(1.0, count + 1.0)[:, None] * _kronecker_alpha(d)) % 1.0
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))  # 1 - u lies in (0, 1]
    angle = 2.0 * np.pi * u[:, 1::2]
    g = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    g = g.reshape(count, d)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    dirs = to_complex(g)
    t = _boundary_scale(domain, dirs)
    return dirs * t[:, None]


def _boundary_scale(domain, dirs):
    """Solve rho(t * x) = 0 for t > 0 along each direction x (star-shaped rho)."""
    base, _, warps = quadric(domain)
    if not warps:  # the quadric's radial scale does not depend on c
        return 1.0 / np.sqrt(np.sum(base.weights * np.abs(dirs) ** 2, axis=-1))
    # bisection on t; all supported definings are products of a positive factor
    # with a star-shaped quadratic, so rho(t x) is increasing in t near the root
    lo = np.zeros(dirs.shape[0])
    hi = np.full(dirs.shape[0], 4.0 * np.max(box_halfwidths(domain)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        inside = domain.rho(dirs * mid[:, None]) < 0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def project_to_boundary(domain, z):
    """Project a point onto {rho = 0}.

    Radial scaling for ball/ellipsoid defining functions, Newton steps along
    the real gradient otherwise.  The result w satisfies |rho(w)| <= 1e-12.
    """
    z = np.asarray(z, dtype=complex)
    if np.max(np.abs(z)) > 4.0 * np.max(box_halfwidths(domain)):
        raise GeometryError("point outside the bounding box")
    base, _, warps = quadric(domain)
    if not warps:
        if np.linalg.norm(z) == 0:
            raise GeometryError("cannot project the origin radially")
        return z * (1.0 / np.sqrt(np.sum(base.weights * np.abs(z) ** 2)))
    w = z.copy()
    if np.linalg.norm(w) == 0:
        w = np.full(domain.n, 1e-3 + 0j)
    for _ in range(100):
        r = float(domain.rho(w))
        if abs(r) <= BOUNDARY_TOL:
            return w
        dzv = domain.dz(w)
        gsq = 4.0 * float(np.sum(np.abs(dzv) ** 2))
        if gsq == 0:
            raise GeometryError("vanishing gradient during projection")
        w = w - r * 2.0 * np.conj(dzv) / gsq
    if abs(float(domain.rho(w))) <= BOUNDARY_TOL:
        return w
    raise GeometryError("projection did not converge in 100 iterations")


# ---------------------------------------------------------------------------
# Levi form and the modified Levi polynomial
# ---------------------------------------------------------------------------

LEVI_SHELL = 0.1  # depth of the boundary neighborhood sampled for the Levi form


def levi_form_min_eigenvalue(domain, samples=200, seed=7):
    """Minimum eigenvalue of the complex Hessian over a boundary neighborhood.

    Samples boundary points scaled inward by factors in (1 - LEVI_SHELL, 1]
    and returns the smallest Hessian eigenvalue seen; one third of this value
    is the constant used in the quadratic lower estimate for the Levi
    polynomial.
    """
    if samples < 1:
        raise GeometryError("samples must be >= 1")
    pts = boundary_dense_sequence(domain, samples, seed=seed)
    rng = rng_stream(seed, 0x1E71)
    t = 1.0 - LEVI_SHELL * rng.random(samples)
    pts = pts * t[:, None]
    H = domain.hess_zzbar(pts)
    eigs = np.linalg.eigvalsh(H)
    out = float(np.min(eigs))
    if out <= 0:
        raise GeometryError("not strictly plurisubharmonic on region")
    return out


def levi_polynomial(domain, z, zeta):
    """Modified Levi polynomial Q(z, zeta), holomorphic and quadratic in z.

    Q = -[ 2 sum_j drho(zeta)/dzeta_j (z_j - zeta_j)
           + sum_jk d2rho(zeta)/dzeta_j dzeta_k (z_j - zeta_j)(z_k - zeta_k) ],
    with the pure holomorphic Hessian as quadratic coefficients.  Q(zeta, zeta) = 0.
    """
    z = np.asarray(z, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    d = domain.dz(zeta)
    A = domain.hess_zz(zeta)
    delta = z - zeta
    lin = 2.0 * np.sum(d * delta, axis=-1)
    quad = np.einsum("...j,...jk,...k->...", delta, A, delta)
    return -(lin + quad)


@dataclass
class LeviEstimateReport:
    """Sampled check of Re Q >= rho(zeta) - rho(z) + beta |zeta - z|^2."""

    beta: float
    eta: float
    sample_count: int
    worst_margin: float
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def check_levi_estimate(domain, beta, eta, pairs=None, count=10_000, seed=7):
    """Check the quadratic lower bound for Re Q on sampled (z, zeta) pairs.

    zeta is drawn on the boundary and z in the closed domain with
    |z - zeta| <= eta.  Explicit pairs (Z, Zeta) arrays may be supplied instead.
    Margin per pair: Re Q - rho(zeta) + rho(z) - beta |zeta - z|^2.
    """
    if beta <= 0 or eta <= 0:
        raise GeometryError("beta and eta must be positive")
    if pairs is not None:
        Z, Zeta = (np.asarray(a, dtype=complex) for a in pairs)
        if Z.size == 0:
            raise GeometryError("no samples")
    else:
        if count < 1:
            raise GeometryError("no samples")
        Zeta = boundary_dense_sequence(domain, count, seed=seed)
        rng = rng_stream(seed, 0x7A1)
        g = rng.standard_normal((count, 2 * domain.n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radius = eta * rng.random(count) ** 0.5
        delta = to_complex(g) * radius[:, None]
        Z = Zeta + delta
        for _ in range(80):
            outside = domain.rho(Z) > 0.0
            if not outside.any():
                break
            delta = np.where(outside[:, None], 0.5 * delta, delta)
            Z = Zeta + delta
    q = levi_polynomial(domain, Z, Zeta)
    rho_z = domain.rho(Z)
    rho_zeta = domain.rho(Zeta)
    dist2 = np.sum(np.abs(Z - Zeta) ** 2, axis=-1)
    margin = q.real - rho_zeta + rho_z - beta * dist2
    bad = margin < _VIOLATION_TOL
    violations = [
        (Z[i].copy(), Zeta[i].copy(), float(margin[i])) for i in np.nonzero(bad)[0][:100]
    ]
    return LeviEstimateReport(
        beta=float(beta),
        eta=float(eta),
        sample_count=int(margin.size),
        worst_margin=float(np.min(margin)),
        violations=violations,
    )


def level_set_sampler(domain, eps, method="parametrized", count=100_000, seed=7,
                      singular_center=None, within=None):
    """Quadrature sampler for the inner level hypersurface {rho = -eps}.

    method "parametrized": linear image of the unit sphere with exact Jacobian
    weight; available for ball/ellipsoid defining functions (and rescalings).
    method "thin-shell": coarea-based shell estimator valid for any defining
    function.  ``singular_center`` switches the parametrized node generator to
    geometric ring strata around the preimage of that boundary point.
    """
    # local import: quadrature imports geometry at module level
    from . import quadrature

    if eps <= 0 or eps >= eps_max(domain):
        raise GeometryError(
            f"eps={eps:g} outside (0, {eps_max(domain):g}) for {domain.describe()}")
    if method == "parametrized":
        level = level_weights(domain, eps)
        if level is None:
            raise GeometryError("parametrized sampler requires ball/ellipsoid structure")
        return quadrature.parametrized_level_sampler(
            *level, count, seed, singular_center=singular_center)
    if method == "thin-shell":
        return quadrature.thin_shell_sampler(
            domain, eps, count, seed, within=within, focus=singular_center)
    raise GeometryError(f"unknown level-set method {method!r}")
