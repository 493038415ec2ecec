"""The singular-function zoo: Cauchy-type kernels on the ball, their logs and
fractional powers, reciprocal Levi polynomials on ellipsoids, and the harmonic
kernel on real balls.

Every spec is a small frozen dataclass; ``evaluate`` is vectorized over
batches of points and raises on inputs outside the declared domain of the
function.  Specs whose values depend on the input only through one Hermitian
pairing expose a zonal form (``zonal_center`` / ``zonal_eval``) that the
quadrature layer exploits; ``zonal_abs`` gives the modulus the norms
integrate, for the power and log kernels in real arithmetic.  On level sets
``level_abs`` gives the modulus at points, for the Levi kernels of an
unwarped quadric in real arithmetic, and ``chart_abs`` from the first
coordinates of points of C^2, where those kernels depend on z1 alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .geometry import _number, hermitian, levi_polynomial


class FunctionError(ValueError):
    pass


@dataclass(frozen=True)
class Const:
    c: complex = 1.0
    n: int = 2


@dataclass(frozen=True)
class Poly:
    """Polynomial sum of c * prod_j z_j^{e_j}; terms ((c, (e_1..e_n)), ...)."""

    terms: tuple
    n: int = 2

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple((c, tuple(exps)) for c, exps in self.terms))


def _vector_tuple(obj, name):
    """Store the vector field ``name`` of a frozen dataclass, given as any
    sequence (an array among them), as the tuple of its elements: the object
    then hashes, as the memo of ``norms.point_integrals`` needs, and
    describes as before.  ``Poly`` and ``Sum`` store their terms the same
    way."""
    object.__setattr__(obj, name, tuple(getattr(obj, name)))


def _check_unit(v, name):
    if not abs(np.linalg.norm(np.asarray(v, dtype=complex)) - 1.0) <= 1e-9:
        raise FunctionError(f"{name} must lie on the unit sphere")


def _check_q(q):
    if not q > 1:
        raise FunctionError("q must exceed 1")


def _check_boundary(domain, zeta):
    if len(zeta) != domain.n:
        raise FunctionError(f"zeta must have the domain's dimension {domain.n}")
    if not abs(float(domain.rho(np.asarray(zeta, dtype=complex)))) <= 1e-9:
        raise FunctionError("zeta must lie on the boundary of the domain")


@dataclass(frozen=True)
class Cauchy:
    """f(z) = 1 / (1 - <z, zeta>) with zeta on the unit sphere."""

    zeta: tuple

    def __post_init__(self):
        _vector_tuple(self, "zeta")
        _check_unit(self.zeta, "zeta")


@dataclass(frozen=True)
class LogCauchy:
    """Principal-branch log of the Cauchy kernel; |Im| < pi/2 on the ball."""

    zeta: tuple

    def __post_init__(self):
        _vector_tuple(self, "zeta")
        _check_unit(self.zeta, "zeta")


@dataclass(frozen=True)
class PowerCauchy:
    """exp((n/q) log f_zeta): modulus |f_zeta|^{n/q}, membership threshold q > 1."""

    zeta: tuple
    q: float

    def __post_init__(self):
        _vector_tuple(self, "zeta")
        _check_unit(self.zeta, "zeta")
        _check_q(self.q)


@dataclass(frozen=True)
class LeviReciprocal:
    """1/Q(., zeta) for the zero-free Levi polynomial of an ellipsoid, zeta a
    boundary point."""

    domain: object
    zeta: tuple

    def __post_init__(self):
        _vector_tuple(self, "zeta")
        _check_boundary(self.domain, self.zeta)


@dataclass(frozen=True)
class LeviPower:
    """exp((n/q) log(1/Q(., zeta))), modulus |Q|^{-n/q}, q > 1, on an ellipsoid."""

    domain: object
    zeta: tuple
    q: float

    def __post_init__(self):
        _vector_tuple(self, "zeta")
        _check_boundary(self.domain, self.zeta)
        _check_q(self.q)


@dataclass(frozen=True)
class HarmonicKernel:
    """phi_y(x) = |x - y|^{2-n} on R^n, n >= 3, singular at boundary point y."""

    y: tuple
    n: int

    def __post_init__(self):
        _vector_tuple(self, "y")
        if self.n < 3:
            raise FunctionError("harmonic kernel requires n >= 3")
        if len(self.y) != self.n:
            raise FunctionError(f"harmonic kernel pole must have {self.n} coordinates")
        _check_unit(self.y, "harmonic kernel pole")


@dataclass(frozen=True)
class Sum:
    """Linear combination sum_k c_k * f_k; terms ((c_k, spec_k), ...)."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((c, s) for c, s in self.terms))


def ambient_dim(spec):
    if isinstance(spec, (Const, Poly)):
        return spec.n
    if isinstance(spec, (Cauchy, LogCauchy, PowerCauchy)):
        return len(spec.zeta)
    if isinstance(spec, (LeviReciprocal, LeviPower)):
        return spec.domain.n
    if isinstance(spec, HarmonicKernel):
        return spec.n
    if isinstance(spec, Sum):
        dims = {ambient_dim(s) for _, s in spec.terms}
        if len(dims) != 1:
            raise FunctionError("mixed ambient dimensions in sum")
        return dims.pop()
    raise FunctionError(f"unknown spec {spec!r}")


def singular_points(spec):
    """Boundary points near which the function blows up (may be empty)."""
    if isinstance(spec, (Cauchy, LogCauchy, PowerCauchy, LeviReciprocal, LeviPower)):
        return (spec.zeta,)
    if isinstance(spec, HarmonicKernel):
        return (spec.y,)
    if isinstance(spec, Sum):
        out = []
        for _, s in spec.terms:
            out.extend(singular_points(s))
        return tuple(out)
    return ()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _check_in_ball(Z):
    norms = np.sqrt(np.sum(np.abs(Z) ** 2, axis=-1))
    if np.any(norms >= 1.0):
        raise FunctionError("evaluation point outside the open unit ball")


def _cauchy_denominator(Z, zeta):
    return 1.0 - hermitian(Z, np.asarray(zeta, dtype=complex))


def _levi_value(spec, Z):
    q = levi_polynomial(spec.domain, Z, np.asarray(spec.zeta, dtype=complex))
    if np.any(q.real <= 0.0):
        raise FunctionError("outside zero-free region")
    return q


def evaluate(spec, Z):
    """Evaluate a function spec at points Z of shape (..., n); vectorized."""
    Z = np.asarray(Z)
    if isinstance(spec, Const):
        return np.full(Z.shape[:-1], complex(spec.c))
    if isinstance(spec, Poly):
        Zc = Z.astype(complex)
        out = np.zeros(Z.shape[:-1], dtype=complex)
        for c, exps in spec.terms:
            term = np.full(Z.shape[:-1], complex(c))
            for j, e in enumerate(exps):
                if e:
                    term = term * Zc[..., j] ** e
            out += term
        return out
    if isinstance(spec, Cauchy):
        _check_in_ball(Z)
        return 1.0 / _cauchy_denominator(Z, spec.zeta)
    if isinstance(spec, LogCauchy):
        _check_in_ball(Z)
        return -np.log(_cauchy_denominator(Z, spec.zeta))
    if isinstance(spec, PowerCauchy):
        _check_in_ball(Z)
        n = len(spec.zeta)
        return np.exp(-(n / spec.q) * np.log(_cauchy_denominator(Z, spec.zeta)))
    if isinstance(spec, LeviReciprocal):
        return 1.0 / _levi_value(spec, Z)
    if isinstance(spec, LeviPower):
        n = spec.domain.n
        return np.exp(-(n / spec.q) * np.log(_levi_value(spec, Z)))
    if isinstance(spec, HarmonicKernel):
        X = np.asarray(Z, dtype=float)
        d = X - np.asarray(spec.y, dtype=float)
        dist = np.linalg.norm(d, axis=-1)
        if np.any(dist == 0.0):
            raise FunctionError("harmonic kernel evaluated at its singularity")
        return dist ** (2.0 - spec.n) + 0j
    if isinstance(spec, Sum):
        out = None
        for c, s in spec.terms:
            # term * c, never c * term: numpy computes a large temporary's
            # product in place with the operands swapped, and complex
            # products differ in the last bit between the two orders
            v = evaluate(s, Z) * complex(c)
            out = v if out is None else out + v
        if out is None:
            return np.zeros(Z.shape[:-1], dtype=complex)
        return out
    raise FunctionError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# Zonal structure
# ---------------------------------------------------------------------------

def _ball_levi_scale(domain):
    """c such that Q(z, zeta) = 2c(1 - <z, zeta>) on the (rescaled) unit ball."""
    return domain.c if domain.ball and not domain.warps else None


def zonal_center(spec):
    """Unit vector zeta with f(z) = gt(<z, zeta>), "any" for constants, else None."""
    if isinstance(spec, Const):
        return "any"
    if isinstance(spec, Poly):
        if all(all(e == 0 for e in exps[1:]) for _, exps in spec.terms):
            e1 = np.zeros(spec.n, dtype=complex)
            e1[0] = 1.0
            return e1
        return None
    if isinstance(spec, (Cauchy, LogCauchy, PowerCauchy)):
        return np.asarray(spec.zeta, dtype=complex)
    if isinstance(spec, (LeviReciprocal, LeviPower)):
        if _ball_levi_scale(spec.domain) is not None:
            return np.asarray(spec.zeta, dtype=complex)
        return None
    if isinstance(spec, Sum):
        center = "any"
        for _, s in spec.terms:
            c = zonal_center(s)
            if c is None:
                return None
            if isinstance(c, str):
                continue
            if isinstance(center, str):
                center = c
            elif not np.allclose(center, c, atol=1e-12):
                return None
        return center
    return None


def _cauchy_polar(w, with_arg=True, buf=None):
    """(h2, t) = (|1 - w|^2, arg 1/(1 - w)) from a = 1 - Re w and b = -Im w:
    h2 = a^2 + b^2 and t = -atan2(b, a) = atan2(Im w, a), so the Cauchy
    kernel is h2^(-1/2) e^{it}.  Real arrays only, no complex temporary;
    t is None unless asked for, and b^2 goes to ``buf`` when given."""
    h2 = np.subtract(1.0, w.real, out=np.empty(w.shape))
    t = np.arctan2(w.imag, h2) if with_arg else None
    h2 *= h2
    h2 += np.square(w.imag, out=buf)
    return h2, t


def _levi_exponent(spec):
    """s with |f| = |Q|^-s for a Levi kernel: 1 for the reciprocal, n/q for
    the power."""
    return 1.0 if isinstance(spec, LeviReciprocal) else spec.domain.n / spec.q


def _power_atom(spec):
    """(kappa, s) with f(w) = (kappa (1 - w))^-s for the zonal power atoms,
    the Levi kernels on a (rescaled) ball among them, else None."""
    if isinstance(spec, PowerCauchy):
        return 1.0, len(spec.zeta) / spec.q
    if isinstance(spec, (LeviReciprocal, LeviPower)):
        return 2.0 * _ball_levi_scale(spec.domain), _levi_exponent(spec)
    return None


def _power_modulus(h2, kappa, s):
    """|f| = (kappa h)^-s = (kappa^2 h2)^(-s/2) of a power atom, in h2's place."""
    h2 *= kappa * kappa
    return np.power(h2, -0.5 * s, out=h2)


def zonal_eval(spec, w):
    """Evaluate a zonal spec given the pairing w = <z, zeta> of its argument.

    With h = |1 - w| and t = arg 1/(1 - w) from ``_cauchy_polar``, the power
    atoms are (kappa h)^-s e^{ist} and the log is -log h + it."""
    w = np.asarray(w, dtype=complex)
    if isinstance(spec, Const):
        return np.full(w.shape, complex(spec.c))
    if isinstance(spec, Poly):
        out = np.zeros(w.shape, dtype=complex)
        for c, exps in spec.terms:
            out += w ** exps[0] * complex(c)  # term * c, as in evaluate
        return out
    if isinstance(spec, Cauchy):
        return 1.0 / (1.0 - w)
    if isinstance(spec, (PowerCauchy, LeviReciprocal, LeviPower, LogCauchy)):
        out = np.empty(w.shape, dtype=complex)
        re, im = out.real, out.imag
        h2, t = _cauchy_polar(w, buf=re)
        if isinstance(spec, LogCauchy):
            np.log(h2, out=re)
            re *= -0.5
            im[...] = t
            return out
        kappa, s = _power_atom(spec)
        m = _power_modulus(h2, kappa, s)
        t *= s
        np.cos(t, out=re)
        re *= m
        np.sin(t, out=im)
        im *= m
        return out
    if isinstance(spec, Sum):
        out = np.zeros(w.shape, dtype=complex)
        for coeff, s in spec.terms:
            out += zonal_eval(s, w) * complex(coeff)  # term * c, as in evaluate
        return out
    raise FunctionError(f"spec {spec!r} is not zonal")


def conjugation_even(spec):
    """Whether |f| at the pairing conj(w) is |f| at w bit for bit, as
    ``quadrature.integrate_zonal(even=True)`` needs.

    It holds when every atom is a Cauchy, log or power kernel or a Levi
    kernel on a (rescaled) ball, whose value at conj(w) is the conjugate of
    the value at w, and every coefficient and constant of a Sum, Poly or
    Const is real, so that the combination keeps that symmetry.  A complex
    constant breaks it inside a sum: |conj(g) + c| is not |g + c|.
    """
    if isinstance(spec, Const):
        return complex(spec.c).imag == 0
    if isinstance(spec, Poly):
        return all(complex(c).imag == 0 for c, _ in spec.terms)
    if isinstance(spec, (Cauchy, LogCauchy, PowerCauchy)):
        return True
    if isinstance(spec, (LeviReciprocal, LeviPower)):
        return _ball_levi_scale(spec.domain) is not None
    if isinstance(spec, Sum):
        return all(complex(c).imag == 0 and conjugation_even(s)
                   for c, s in spec.terms)
    return False


def zonal_abs(spec, w):
    """|zonal_eval(spec, w)|.  The power atoms' (kappa h)^-s and the log's
    |log h - it| = sqrt((log h)^2 + t^2) are computed in place from
    ``_cauchy_polar``; every other spec takes the modulus of ``zonal_eval``."""
    w = np.asarray(w, dtype=complex)
    atom = _power_atom(spec)
    if atom is not None:
        return _power_modulus(_cauchy_polar(w, with_arg=False)[0], *atom)
    if isinstance(spec, LogCauchy):
        h2, t = _cauchy_polar(w)
        np.log(h2, out=h2)
        h2 *= h2
        h2 *= 0.25
        t *= t
        h2 += t
        return np.sqrt(h2, out=h2)
    return np.abs(zonal_eval(spec, w))


def level_abs(spec, Z):
    """|evaluate(spec, Z)| at points Z of shape (..., n), the point-set
    sibling of ``zonal_abs``.

    On an unwarped quadric the Levi polynomial is Q = -2 S with
    S = sum_j d_j (z_j - zeta_j) and d = drho(zeta), so the Levi kernels'
    |Q|^-s = (4 h2)^(-s/2), h2 = |S|^2, are formed from the real and
    imaginary parts of Z, with s = 1 or n/q.  The same FunctionError as
    ``evaluate``'s is raised where Re Q <= 0.  Warped domains, Sums and
    every other spec take the modulus of ``evaluate``.
    """
    Z = np.asarray(Z)
    if not isinstance(spec, (LeviReciprocal, LeviPower)) or spec.domain.warps:
        return np.abs(evaluate(spec, Z))
    zeta = np.asarray(spec.zeta, dtype=complex)
    re, im = _levi_pairing(spec.domain.dz(zeta), zeta, Z)
    if np.any(re >= 0.0):  # Re Q = -2 Re S
        raise FunctionError("outside zero-free region")
    re *= re
    im *= im
    re += im
    return _power_modulus(re, 2.0, _levi_exponent(spec))


def chart_abs(spec, z1):
    """|evaluate(spec, Z)| at points Z of C^2 whose first coordinates are
    ``z1``, for a Levi kernel of an unwarped quadric whose pole
    zeta = (zeta1, 0) has zeta1 > 0.

    There Q = -2 d1 (z1 - zeta1) with d1 = drho(zeta)_1 real, so the
    kernels' |Q|^-s = (4 d1^2 h2)^(-s/2), s = 1 or n/q, depend on z1 alone
    through h2 = (zeta1 - Re z1)^2 + (Im z1)^2, even in z1 -> conj(z1) bit
    for bit.  The same FunctionError as ``evaluate``'s is raised where
    Re Q <= 0.
    """
    zeta1 = complex(spec.zeta[0]).real
    d1 = spec.domain.dz(np.asarray(spec.zeta, dtype=complex))[0].real
    h2 = zeta1 - z1.real
    if np.any(h2 <= 0.0):  # Re Q = 2 d1 (zeta1 - Re z1)
        raise FunctionError("outside zero-free region")
    h2 *= h2
    h2 += np.square(z1.imag)
    return _power_modulus(h2, 2.0 * d1, _levi_exponent(spec))


def _levi_pairing(d, zeta, Z):
    """(Re S, Im S) of S = sum_j d_j (z_j - zeta_j) in real arithmetic:
    d_j (x + iy) = (a x - b y) + i (a y + b x) with a + ib = d_j, each
    product left out where its factor a or b is 0."""
    re = np.zeros(Z.shape[:-1])
    im = np.zeros(Z.shape[:-1])
    for j, dj in enumerate(d):
        x = Z.real[..., j] - zeta[j].real
        y = Z.imag[..., j] - zeta[j].imag
        a, b = dj.real, dj.imag
        if a:
            re += a * x
            im += a * y
        if b:
            re -= b * y
            im += b * x
    return re, im


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------

def _flatten(coeff, spec, acc):
    if isinstance(spec, Sum):
        for c, s in spec.terms:
            _flatten(coeff * complex(c), s, acc)
    else:
        acc.append((coeff, spec))


def combine(*weighted):
    """Linear combination of specs with exact cancellation of repeated atoms;
    zero constants contribute nothing and are dropped."""
    acc = []
    for coeff, spec in weighted:
        _flatten(complex(coeff), spec, acc)
    merged = {}
    order = []
    for c, s in acc:
        if is_zero(s):
            continue
        if s in merged:
            merged[s] += c
        else:
            merged[s] = c
            order.append(s)
    terms = tuple((merged[s], s) for s in order if merged[s] != 0)
    if not terms:
        return Const(0.0, n=ambient_dim(weighted[0][1]) if weighted else 2)
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return Sum(terms)


def subtract(f, g):
    return combine((1.0, f), (-1.0, g))


def is_zero(spec):
    return isinstance(spec, Const) and spec.c == 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_vector(text):
    return tuple(complex(part) for part in text.split(","))


# an optional coefficient, parenthesized (a complex number as describe writes
# it) or a real number with an optional exponent and i/j, then one monomial
_MONOMIAL = re.compile(r"^(?:\((?P<cp>.+)\)"
                       r"|(?P<c>(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+\-]?\d+)?)?[ij]?))"
                       r"\*?(?:z(?P<j>\d+)(?:\^(?P<e>\d+))?)?$")
_EXPONENT_SIGN = re.compile(r"[\d.][eE]$")  # a sign after this is an exponent's


def _poly_terms(body):
    """The terms of a polynomial string, each with its sign: the string is
    cut before every + or - outside parentheses that is not the sign of an
    exponent, as in 1e-09."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and not _EXPONENT_SIGN.search(body, 0, i):
            terms.append(body[start:i])
            start = i
    terms.append(body[start:])
    return terms


def _parse_poly(body, n):
    terms = []
    for raw in _poly_terms(body):
        raw = raw.strip()
        if raw.startswith("+"):
            raw = raw[1:].strip()
        if not raw:
            continue
        neg = raw.startswith("-")
        if neg:
            raw = raw[1:]
        m = _MONOMIAL.match(raw)
        if not m or not (m.group("c") or m.group("cp") or m.group("j")):
            raise FunctionError(f"cannot parse polynomial term {raw!r}")
        ctext = m.group("cp") or m.group("c")
        coeff = complex(ctext.replace("i", "j")) if ctext else 1.0
        if neg:
            coeff = -coeff
        exps = [0] * n
        if m.group("j"):
            j = int(m.group("j"))
            if not 1 <= j <= n:
                raise FunctionError(f"coordinate z{j} out of range")
            exps[j - 1] = int(m.group("e") or 1)
        terms.append((coeff, tuple(exps)))
    return Poly(tuple(terms), n)


# the keys each kind of parse_function reads, every one exactly once
_KEYS = {"cauchy": ("zeta",), "log": ("zeta",), "power": ("q", "zeta"),
         "levi": ("domain", "zeta"), "levipow": ("domain", "q", "zeta"),
         "harmonic": ("n", "y")}


def parse_function(text):
    """Build a function spec on C^2 (harmonic: R^n) from a config string.

    Examples: "cauchy:zeta=1,0", "log:zeta=1,0", "power:q=1.5;zeta=1,0",
    "levi:domain=ellipsoid:a=1,2;zeta=1,0", "levipow:domain=...;q=1.5;zeta=1,0",
    "harmonic:n=3;y=1,0,0", "const:1", "poly:z1^2+3".  A missing, repeated or
    unknown key raises FunctionError.  The keys of a levi or levipow domain
    follow among the function's and go to ``geometry.parse_domain``, as c=2
    does in "levi:domain=rescaled:base=ball:n=2;c=2;zeta=1,0".
    """
    from .geometry import parse_domain

    kind, _, rest = text.strip().partition(":")
    if kind == "const":
        return Const(complex(rest or 1), n=2)
    if kind == "poly":
        return _parse_poly(rest, 2)
    if kind not in _KEYS:
        raise FunctionError(f"unknown function kind {kind!r}")
    kv, domain_keys = {}, []
    for part in rest.split(";"):
        if not part.strip():
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if key in kv:
            raise FunctionError(f"function {text!r}: key {key!r} repeated")
        if key in _KEYS[kind]:
            kv[key] = val.strip()
        elif "domain" in _KEYS[kind]:  # the domain's own keys, e.g. c=2
            domain_keys.append(part)
        else:
            raise FunctionError(f"function {text!r}: unknown key {key!r}")
    missing = [key for key in _KEYS[kind] if key not in kv]
    if missing:
        raise FunctionError(f"function {text!r}: missing key {missing[0]!r}")
    if "domain" in kv:
        kv["domain"] = ";".join([kv["domain"], *domain_keys])
    if kind == "cauchy":
        return Cauchy(_parse_vector(kv["zeta"]))
    if kind == "log":
        return LogCauchy(_parse_vector(kv["zeta"]))
    if kind == "power":
        return PowerCauchy(_parse_vector(kv["zeta"]), float(kv["q"]))
    if kind == "levi":
        return LeviReciprocal(parse_domain(kv["domain"]), _parse_vector(kv["zeta"]))
    if kind == "levipow":
        return LeviPower(parse_domain(kv["domain"]), _parse_vector(kv["zeta"]),
                         float(kv["q"]))
    return HarmonicKernel(tuple(float(x.real) for x in _parse_vector(kv["y"])),
                          int(kv["n"]))


def describe(spec):
    """Config-style string for reports; inverse of parse_function where possible."""
    if isinstance(spec, Const):
        c = complex(spec.c)
        return f"const:{_number(c.real)}" if c.imag == 0 else f"const:{c}"
    if isinstance(spec, Poly):
        return "poly:" + "+".join(
            _describe_monomial(c, e) for c, e in spec.terms)
    if isinstance(spec, Cauchy):
        return "cauchy:zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, LogCauchy):
        return "log:zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, PowerCauchy):
        return f"power:q={_number(spec.q)};zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, LeviReciprocal):
        return f"levi:domain={spec.domain.describe()};zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, LeviPower):
        return (f"levipow:domain={spec.domain.describe()};q={_number(spec.q)};zeta="
                + _vector_text(spec.zeta))
    if isinstance(spec, HarmonicKernel):
        return f"harmonic:n={spec.n};y=" + ",".join(map(_number, spec.y))
    if isinstance(spec, Sum):
        return "sum(" + ",".join(f"{_coefficient_text(c)}*[{describe(s)}]"
                                 for c, s in spec.terms) + ")"
    return repr(spec)


def _vector_text(v):
    return ",".join(_number(x.real) if x.imag == 0 else str(x)
                    for x in map(complex, v))


def _coefficient_text(c):
    """A coefficient that reads back exactly: real ones as ``_number``,
    complex ones parenthesized."""
    c = complex(c)
    return _number(c.real) if c.imag == 0 else f"({c})"


def _describe_monomial(c, exps):
    ctext = _coefficient_text(c)
    var = "".join(f"z{j+1}^{e}" if e > 1 else f"z{j+1}"
                  for j, e in enumerate(exps) if e)
    if not var:
        return ctext
    if ctext == "1":
        return var
    return f"{ctext}*{var}"
