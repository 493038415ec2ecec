"""The singular-function zoo: Cauchy-type kernels on the ball, their logs and
fractional powers, reciprocal Levi polynomials on ellipsoids, and the harmonic
kernel on real balls.

Every spec is a small frozen dataclass; ``evaluate`` is vectorized over
batches of points and raises on inputs outside the declared domain of the
function.  Specs whose values depend on the input only through one Hermitian
pairing expose a zonal form (``zonal_center`` / ``zonal_eval``) that the
quadrature layer exploits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, Rescaled, UnitBall, hermitian, levi_polynomial

_EVAL_TOL = 1e-12


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


@dataclass(frozen=True)
class Cauchy:
    """f(z) = 1 / (1 - <z, zeta>) with zeta on the unit sphere."""

    zeta: tuple


@dataclass(frozen=True)
class LogCauchy:
    """Principal-branch log of the Cauchy kernel; |Im| < pi/2 on the ball."""

    zeta: tuple


@dataclass(frozen=True)
class PowerCauchy:
    """exp((n/q) log f_zeta): modulus |f_zeta|^{n/q}, membership threshold q."""

    zeta: tuple
    q: float


@dataclass(frozen=True)
class LeviReciprocal:
    """1/Q(., zeta) for the zero-free Levi polynomial of an ellipsoid."""

    domain: Domain
    zeta: tuple


@dataclass(frozen=True)
class LeviPower:
    """exp((n/q) log(1/Q(., zeta))), modulus |Q|^{-n/q}, on an ellipsoid."""

    domain: Domain
    zeta: tuple
    q: float


@dataclass(frozen=True)
class HarmonicKernel:
    """phi_y(x) = |x - y|^{2-n} on R^n, n >= 3, singular at boundary point y."""

    y: tuple
    n: int


@dataclass(frozen=True)
class Sum:
    """Linear combination sum_k c_k * f_k; terms ((c_k, spec_k), ...)."""

    terms: tuple


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
            v = complex(c) * evaluate(s, Z)
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
    d = domain.defining
    scale = 1.0
    while isinstance(d, Rescaled):
        scale *= d.c
        d = d.base
    if isinstance(d, UnitBall):
        return scale
    return None


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


def zonal_eval(spec, w):
    """Evaluate a zonal spec given the pairing w = <z, zeta> of its argument."""
    w = np.asarray(w, dtype=complex)
    if isinstance(spec, Const):
        return np.full(w.shape, complex(spec.c))
    if isinstance(spec, Poly):
        out = np.zeros(w.shape, dtype=complex)
        for c, exps in spec.terms:
            out += complex(c) * w ** exps[0]
        return out
    if isinstance(spec, Cauchy):
        return 1.0 / (1.0 - w)
    if isinstance(spec, LogCauchy):
        return -np.log(1.0 - w)
    if isinstance(spec, PowerCauchy):
        n = len(spec.zeta)
        return np.exp(-(n / spec.q) * np.log(1.0 - w))
    if isinstance(spec, LeviReciprocal):
        c = _ball_levi_scale(spec.domain)
        return 1.0 / (2.0 * c * (1.0 - w))
    if isinstance(spec, LeviPower):
        c = _ball_levi_scale(spec.domain)
        n = spec.domain.n
        return np.exp(-(n / spec.q) * np.log(2.0 * c * (1.0 - w)))
    if isinstance(spec, Sum):
        out = np.zeros(w.shape, dtype=complex)
        for coeff, s in spec.terms:
            out += complex(coeff) * zonal_eval(s, w)
        return out
    raise FunctionError(f"spec {spec!r} is not zonal")


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
# The named operations
# ---------------------------------------------------------------------------

def eval_cauchy(zeta, z):
    return evaluate(Cauchy(tuple(complex(x) for x in zeta)), z)


def eval_log(zeta, z):
    return evaluate(LogCauchy(tuple(complex(x) for x in zeta)), z)


def eval_power(zeta, q, z):
    if q <= 1:
        raise FunctionError("q must exceed 1")
    return evaluate(PowerCauchy(tuple(complex(x) for x in zeta), q), z)


def eval_levi_reciprocal(domain, zeta, z):
    return evaluate(LeviReciprocal(domain, tuple(complex(x) for x in zeta)), z)


def eval_levi_power(domain, zeta, q, z):
    if q <= 1:
        raise FunctionError("q must exceed 1")
    return evaluate(LeviPower(domain, tuple(complex(x) for x in zeta), q), z)


def eval_harmonic_kernel(y, x, n):
    if n < 3:
        raise FunctionError("harmonic kernel requires n >= 3")
    return evaluate(HarmonicKernel(tuple(float(v) for v in y), n), x).real


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_vector(text):
    return tuple(complex(part) for part in text.split(","))


_MONOMIAL = re.compile(r"^(?:\((?P<cp>[^)]+)\)|(?P<c>[0-9.+\-ij]+))?\*?(?:z(?P<j>\d+)(?:\^(?P<e>\d+))?)?$")


def _parse_poly(body, n):
    terms = []
    for raw in body.replace("-", "+-").split("+"):
        raw = raw.strip()
        if not raw:
            continue
        neg = raw.startswith("-")
        if neg:
            raw = raw[1:]
        m = _MONOMIAL.match(raw)
        if not m or (m.group("c") is None and m.group("cp") is None and m.group("j") is None):
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


def parse_function(text):
    """Build a function spec on C^2 (harmonic: R^n) from a config string.

    Examples: "cauchy:zeta=1,0", "log:zeta=1,0", "power:q=1.5;zeta=1,0",
    "levi:domain=ellipsoid:a=1,2;zeta=1,0", "levipow:domain=...;q=1.5;zeta=1,0",
    "harmonic:n=3;y=1,0,0", "const:1", "poly:z1^2+3".
    """
    from .geometry import parse_domain

    kind, _, rest = text.strip().partition(":")
    if kind == "const":
        return Const(complex(rest or 1), n=2)
    if kind == "poly":
        return _parse_poly(rest, 2)
    kv = {}
    for part in rest.split(";"):
        if not part:
            continue
        key, _, val = part.partition("=")
        kv.setdefault(key.strip(), val.strip())
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
    if kind == "harmonic":
        return HarmonicKernel(tuple(float(x.real) for x in _parse_vector(kv["y"])),
                              int(kv["n"]))
    raise FunctionError(f"unknown function kind {kind!r}")


def describe(spec):
    """Config-style string for reports; inverse of parse_function where possible."""
    if isinstance(spec, Const):
        c = complex(spec.c)
        return f"const:{c.real:g}" if c.imag == 0 else f"const:{c}"
    if isinstance(spec, Poly):
        return "poly:" + "+".join(
            _describe_monomial(c, e) for c, e in spec.terms)
    if isinstance(spec, Cauchy):
        return "cauchy:zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, LogCauchy):
        return "log:zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, PowerCauchy):
        return f"power:q={spec.q:g};zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, LeviReciprocal):
        return f"levi:domain={spec.domain.describe()};zeta=" + _vector_text(spec.zeta)
    if isinstance(spec, LeviPower):
        return (f"levipow:domain={spec.domain.describe()};q={spec.q:g};zeta="
                + _vector_text(spec.zeta))
    if isinstance(spec, HarmonicKernel):
        return f"harmonic:n={spec.n};y=" + ",".join(f"{v:g}" for v in spec.y)
    if isinstance(spec, Sum):
        return "sum(" + ",".join(f"{c:g}*[{describe(s)}]" if np.isreal(c) else
                                 f"({c})*[{describe(s)}]" for c, s in spec.terms) + ")"
    return repr(spec)


def _vector_text(v):
    parts = []
    for x in v:
        x = complex(x)
        parts.append(f"{x.real:g}" if x.imag == 0 else str(x))
    return ",".join(parts)


def _describe_monomial(c, exps):
    c = complex(c)
    ctext = f"{c.real:g}" if c.imag == 0 else f"({c})"
    var = "".join(f"z{j+1}^{e}" if e > 1 else f"z{j+1}"
                  for j, e in enumerate(exps) if e)
    if not var:
        return ctext
    if ctext == "1":
        return var
    return f"{ctext}*{var}"
