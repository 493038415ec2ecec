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
* A domain is its defining function, one ``Quadric``: rho = c exp(warps Re z_1)
  (sum_j a_j |z_j|^2 - 1), as ``parse_domain`` builds it.  Each geometric
  question is a read of its fields.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

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

def _number(x):
    """x in %g form where that reads back as x ("2", "0.5"), else repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class Quadric:
    """rho(z) = m(z) q(z): the quadric q = sum_j a_j |z_j|^2 - 1, a_j > 0,
    times the multiplier m = c exp(warps Re z_1), c > 0.

    ``c`` rescales the defining function and ``warps`` counts the factors
    exp(Re z_1) that lemma 3.1 compares defining functions with; neither
    moves the boundary.  ``ball`` is read from the weights: all 1 is the
    unit ball, however it was spelled.
    """

    a: tuple
    c: float = 1.0
    warps: int = 0

    def __post_init__(self):
        a = tuple(float(aj) for aj in self.a)
        if not a or not all(0 < aj < math.inf for aj in a):
            raise GeometryError("quadric weights must be positive and finite")
        if not 0 < self.c < math.inf:
            raise GeometryError("rescale factor must be positive and finite")
        if self.warps != int(self.warps) or self.warps < 0:
            raise GeometryError("warps must be a whole number >= 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "warps", int(self.warps))

    @property
    def n(self):
        return len(self.a)

    @property
    def ball(self):
        return all(aj == 1.0 for aj in self.a)

    @property
    def weights(self):
        return np.asarray(self.a)

    def _q(self, Z):
        return np.sum(self.weights * np.abs(Z) ** 2, axis=-1) - 1.0

    def _dq(self, Z):
        # the ball's a_j = 1 stay out: complex 1 * conj(z) can flip a zero's sign
        return np.conj(Z) if self.ball else self.weights * np.conj(Z)

    def multiplier(self, x1):
        """m = c exp(warps x1) at points whose Re z_1 is x1."""
        return self._scaled(np.exp(self.warps * x1))

    def _scaled(self, x):
        """c x; unchanged, not multiplied by 1, when c = 1."""
        return x if self.c == 1.0 else self.c * x

    def rho(self, Z):
        Z = np.asarray(Z, dtype=complex)
        if self.warps:
            return self.multiplier(Z[..., 0].real) * self._q(Z)
        return self._scaled(self._q(Z))

    def dz(self, Z):
        # d(m q) = m dq + q dm, with m_{z1} = (warps / 2) m
        Z = np.asarray(Z, dtype=complex)
        dq = self._dq(Z)
        if not self.warps:
            return self._scaled(dq)
        m = self.multiplier(Z[..., 0].real)
        out = m[..., None] * dq
        out[..., 0] += self.warps / 2 * m * self._q(Z)
        return out

    def hess_zz(self, Z):
        return self._hessian(Z, np.zeros((self.n, self.n), dtype=complex), False)

    def hess_zzbar(self, Z):
        return self._hessian(Z, np.diag(self.weights.astype(complex)), True)

    def _hessian(self, Z, H, mixed):
        """m H for the quadric's constant Hessian H, plus, when warped, the
        multiplier's terms: q m_{z1 z1} = q m_{z1 zbar1} = (warps^2 / 4) m q
        at (0, 0), and m_{z1} = (warps / 2) m times dq down the first column
        and along the first row, conjugated there in the ``mixed`` Hessian."""
        Z = np.asarray(Z, dtype=complex)
        H = np.broadcast_to(H, Z.shape + (self.n,))
        if not self.warps:
            return self._scaled(H.copy())
        m = self.multiplier(Z[..., 0].real)
        dq = self._dq(Z)
        h = m[..., None, None] * H
        h[..., 0, 0] += self.warps ** 2 / 4 * m * self._q(Z)
        mz = self.warps / 2 * m[..., None]
        h[..., 0, :] += mz * (np.conj(dq) if mixed else dq)
        h[..., :, 0] += mz * dq
        return h

    def describe(self):
        """The one spelling of the domain: the rescaling outermost, then the
        warps, then the ball (every weight 1) or ellipsoid; ``parse_domain``
        reads it back."""
        text = (f"ball:n={self.n}" if self.ball
                else "ellipsoid:a=" + ",".join(map(_number, self.a)))
        for _ in range(self.warps):
            text = f"warped:base={text};u=x1"
        if self.c != 1.0:
            text = f"rescaled:base={text};c={_number(self.c)}"
        return text


def grad_norm(defining, Z):
    """Norm of the real 2n-gradient of rho, equal to 2*||d rho/dz||."""
    return 2.0 * np.linalg.norm(defining.dz(Z), axis=-1)


def level_weights(domain, eps):
    """(weights, eps_eff) with {rho = -eps} = {sum_j w_j |z_j|^2 = 1 - eps_eff},
    or None for a warped domain; raises if that level set is empty."""
    if domain.warps:
        return None
    eps_eff = eps / domain.c
    if eps_eff >= 1.0:
        raise GeometryError("level set empty")
    return domain.weights, eps_eff


def box_halfwidths(domain):
    """Per-complex-coordinate half-width of a box containing the closure."""
    return 1.0 / np.sqrt(domain.weights)


def eps_max(domain):
    """Largest eps for which {rho = -eps} is guaranteed nonempty and smooth."""
    # each multiplier exp(x1) is >= exp(-b1) on the bounding box
    return 0.9 * (domain.c * np.exp(-box_halfwidths(domain)[0]) ** domain.warps)


# parse_domain's kinds: the key that a base reads, or that a wrapper adds
_BASE_KEYS = {"ball": "n", "ellipsoid": "a"}
_WRAPPER_KEYS = {"rescaled": "c", "warped": "u"}


def parse_domain(text):
    """The defining function of a domain, from a config string.

    A chain of "rescaled:base=" and "warped:base=" prefixes ends in
    "ball:n=N" or "ellipsoid:a=A1,...,An"; then come that base's key and one
    key per prefix, in any order: c=C for each rescaling (c is their
    product) and u=x1 for each warp.  A missing, repeated or unknown key
    raises GeometryError.  Examples: "ball:n=2", "ellipsoid:a=1,2",
    "rescaled:base=ellipsoid:a=1,2;c=2", "warped:base=ball:n=2;u=x1",
    "rescaled:base=warped:base=ball:n=2;u=x1;c=2".
    """
    chain, rest = [], text.strip()
    while True:
        kind, _, rest = rest.partition(":")
        if kind not in _WRAPPER_KEYS:
            break
        if not rest.startswith("base="):
            raise GeometryError(f"domain {text!r}: {kind} needs base=<domain>")
        chain.append(kind)
        rest = rest[len("base="):]
    if kind not in _BASE_KEYS:
        raise GeometryError(f"unknown domain kind {kind!r}")
    want = Counter([_BASE_KEYS[kind]] + [_WRAPPER_KEYS[k] for k in chain])
    got = {}
    for part in rest.split(";"):
        if part.strip():
            key, _, val = part.partition("=")
            got.setdefault(key.strip(), []).append(val.strip())
    unknown = [key for key in got if key not in want]
    if unknown:
        raise GeometryError(f"domain {text!r}: unknown key {unknown[0]!r}")
    for key, count in want.items():
        given = len(got.get(key, ()))
        if given != count:
            raise GeometryError(f"domain {text!r}: expected {count} '{key}=', "
                                f"got {given}")
    if any(u != "x1" for u in got.get("u", ())):
        raise GeometryError(f"domain {text!r}: unknown multiplier, only u=x1")
    try:
        if kind == "ball":
            a = (1.0,) * int(got["n"][0])
        else:
            a = tuple(float(x) for x in got["a"][0].split(","))
        c = math.prod(float(x) for x in got.get("c", ()))
    except ValueError as exc:
        raise GeometryError(f"domain {text!r}: {exc}") from None
    return Quadric(a, c, warps=len(got.get("u", ())))


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


def _unit_gaussians(rng, count, d):
    """``count`` uniform directions in R^d: normalized Gaussian draws."""
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


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
    """The t > 0 with rho(t x) = 0 along each direction x: the multiplier
    c exp(warps Re z_1) is positive, so {rho = 0} = {q = 0}, and t is the
    quadric's radial scale 1 / sqrt(sum_j a_j |x_j|^2)."""
    return 1.0 / np.sqrt(np.sum(domain.weights * np.abs(dirs) ** 2, axis=-1))


def project_to_boundary(domain, z):
    """The radial projection of a point onto {rho = 0}; the result w
    satisfies |rho(w)| <= 1e-15."""
    z = np.asarray(z, dtype=complex)
    if np.max(np.abs(z)) > 4.0 * np.max(box_halfwidths(domain)):
        raise GeometryError("point outside the bounding box")
    if np.linalg.norm(z) == 0:
        raise GeometryError("cannot project the origin radially")
    return z * _boundary_scale(domain, z)


# ---------------------------------------------------------------------------
# Levi form and the modified Levi polynomial
# ---------------------------------------------------------------------------

LEVI_SHELL = 0.1  # depth of the boundary neighborhood sampled for the Levi form


def levi_form_min_eigenvalue(domain, seed=7):
    """Minimum eigenvalue of the complex Hessian over a boundary neighborhood.

    Samples 200 boundary points scaled inward by factors in
    (1 - LEVI_SHELL, 1] and returns the smallest Hessian eigenvalue seen; one
    third of this value is the constant used in the quadratic lower estimate
    for the Levi polynomial.
    """
    pts = boundary_dense_sequence(domain, 200, seed=seed)
    rng = rng_stream(seed, 0x1E71)
    t = 1.0 - LEVI_SHELL * rng.random(len(pts))
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
    delta = z - zeta
    if not domain.warps:  # hess_zz of a quadric is 0: only a zero's sign moves
        q = np.sum(d * delta, axis=-1)
        q *= -2.0  # in place, so no temporary of the node count is left
        return q
    lin = 2.0 * np.sum(d * delta, axis=-1)
    A = domain.hess_zz(zeta)
    quad = np.einsum("...j,...jk,...k->...", delta, A, delta)
    return -(lin + quad)


@dataclass
class LeviEstimateReport:
    """Sampled check of Re Q >= rho(zeta) - rho(z) + beta |zeta - z|^2."""

    sample_count: int
    worst_margin: float
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def check_levi_estimate(domain, beta, eta, count=10_000, seed=7):
    """Check the quadratic lower bound for Re Q on sampled (z, zeta) pairs.

    zeta is drawn on the boundary and z in the closed domain with
    |z - zeta| <= eta.  Margin per pair:
    Re Q - rho(zeta) + rho(z) - beta |zeta - z|^2.
    """
    if beta <= 0 or eta <= 0:
        raise GeometryError("beta and eta must be positive")
    if count < 1:
        raise GeometryError("no samples")
    Zeta = boundary_dense_sequence(domain, count, seed=seed)
    rng = rng_stream(seed, 0x7A1)
    g = _unit_gaussians(rng, count, 2 * domain.n)
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
