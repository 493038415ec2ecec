"""The acceptance suite: every quantitative claim the package certifies, each
criterion runnable per seed and reporting structured rows for CSV emission.

Run ``python -m hardylab.cli reproduce --out DIR`` for the full suite, or
``pytest tests/test_acceptance.py`` to assert every criterion on the default
seeds {7, 11, 13}.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import experiments as ex
from . import functions as fn
from . import norms
from . import quadrature as quad
from .geometry import (check_levi_estimate, hermitian,
                       levi_form_min_eigenvalue, parse_domain)

DEFAULT_SEEDS = (7, 11, 13)


@dataclass
class CriterionResult:
    cid: int
    title: str
    seed: int
    passed: bool
    runtime: float
    rows: list = field(default_factory=list)   # dict rows for the CSV writer
    lines: list = field(default_factory=list)  # human-readable detail

    def header(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.cid:2d} (seed {self.seed}): "
                f"{self.title} ({self.runtime:.1f} s)")


def _row(cid, case, passed, seed, *, lemma="", p="", x="", value="", stderr="",
         verdict="", rate="", r2=""):
    return {
        "experiment_id": f"criterion-{cid:02d}",
        "lemma_id": lemma,
        "case_label": case,
        "p": p,
        "grid_param": x,
        "value": value,
        "stderr": stderr,
        "verdict": verdict,
        "rate": rate,
        "r2": r2,
        "passed": passed,
        "seed": seed,
    }


def _report_rows(cid, report, seed):
    rows = []
    for c in report.cases:
        rows.append(_row(cid, c.label, c.passed, seed, lemma=report.lemma_id,
                         p=c.p, verdict=c.verdict.klass, rate=c.verdict.rate,
                         r2=c.verdict.r2))
    return rows


# ---------------------------------------------------------------------------

def criterion_01(seed):
    """Membership thresholds of the kernel zoo on the ball (n=2)."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    rep = ex.verify_lemma_2_2(cfg=cfg)
    ok = rep.passed and (time.time() - t0) <= 60.0
    res = CriterionResult(1, "kernel zoo thresholds (f, log f, powers)", seed,
                          ok, time.time() - t0, rows=_report_rows(1, rep, seed),
                          lines=rep.summary_lines())
    return res


def criterion_02(seed):
    """Log-rate constancy of the critical Cauchy scan."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    f = fn.Cauchy((1.0, 0.0))
    grid = norms.ApproachGrid("radial", 10, 20)
    sc = norms.scan(f, 2.0, grid, norms.SphereSurface(2), cfg)
    r = grid.values()
    ratio = sc.values / np.log(1.0 / (1.0 - r ** 2))
    spread = float((ratio.max() - ratio.min()) / ratio.mean())
    ok = spread <= 0.15
    rows = [_row(2, "ratio I(r)/log(1/(1-r^2)) spread", ok, seed,
                 value=spread)]
    rows += [_row(2, "ratio", ok, seed, x=float(rv), value=float(q))
             for rv, q in zip(r, ratio)]
    return CriterionResult(2, "log-rate constancy at the critical exponent",
                           seed, ok, time.time() - t0, rows,
                           [f"relative spread over k=10..20: {spread:.4%} "
                            f"(limit 15%)"])


def criterion_03(seed):
    """Cap complement bound sigma/alpha^n and cap divergence."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    rep = ex.verify_local_bound(cfg=cfg)
    ok = rep.passed and (time.time() - t0) <= 60.0
    rows = [
        _row(3, "alpha", True, seed, lemma="2.5", value=rep.alpha),
        _row(3, "complement sup <= bound*1.05", rep.measured_sup <= rep.bound * 1.05,
             seed, lemma="2.5", p=2.0, value=rep.measured_sup, stderr=rep.bound),
        _row(3, "cap scan diverges", rep.cap_verdict.divergent, seed, lemma="2.5",
             p=2.0, verdict=rep.cap_verdict.klass, rate=rep.cap_verdict.rate,
             r2=rep.cap_verdict.r2),
    ]
    return CriterionResult(3, "local bound on the cap complement", seed, ok,
                           time.time() - t0, rows, rep.summary_lines())


def criterion_04(seed):
    """Defining-function containment with rescaled and warped companions."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    rows, lines, ok = [], [], True
    for kind in ("identity", "rescaled", "warped"):
        rep = ex.verify_lemma_3_1(lam_kind=kind, cfg=cfg)
        ok = ok and rep.passed
        rows += _report_rows(4, rep, seed)
        lines += rep.summary_lines()
    return CriterionResult(4, "level-class containment across defining functions",
                           seed, ok, time.time() - t0, rows, lines)


def criterion_05(seed):
    """Reciprocal Levi polynomial thresholds plus estimator cross-check."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    domain = parse_domain("ellipsoid:a=1,2")
    rep = ex.verify_lemma_4_2(cfg=cfg)
    rows = _report_rows(5, rep, seed)
    lines = rep.summary_lines()
    f = fn.LeviReciprocal(domain, (1.0, 0.0))
    agree = True
    for p in (1.5, 3.0):
        for k in range(0, 5):
            eps = 0.2 * 2.0 ** (-k)
            g = lambda Z: np.abs(fn.evaluate(f, Z)) ** p
            zeta = np.array([1.0 + 0j, 0j])
            e_par = quad.integrate_level_set(
                g, domain, eps, method="parametrized", count=cfg.level_count,
                seed=seed + 1000 + k, singular_center=zeta)
            e_thin = quad.integrate_level_set(
                g, domain, eps, method="thin-shell",
                count=cfg.thin_shell_proposals, seed=seed + 2000 + k,
                singular_center=zeta)
            gap = abs(e_par.value - e_thin.value)
            tol = 3.0 * e_par.combined_stderr(e_thin)
            ok_pt = gap <= tol
            agree = agree and ok_pt
            rows.append(_row(5, f"methods agree p={p:g}", ok_pt, seed, lemma="4.2",
                             p=p, x=eps, value=e_par.value - e_thin.value,
                             stderr=e_par.combined_stderr(e_thin)))
            lines.append(f"      p={p:g} eps={eps:.4g}: par={e_par.value:.5g} "
                         f"thin={e_thin.value:.5g} |diff|={gap:.3g} tol={tol:.3g} "
                         f"{'ok' if ok_pt else 'FAIL'}")
    runtime = time.time() - t0
    ok = rep.passed and agree and runtime <= 300.0
    return CriterionResult(5, "Levi reciprocal thresholds and estimator agreement",
                           seed, ok, runtime, rows, lines)


def criterion_06(seed):
    """Levi power function: global membership below q, local divergence."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    rep = ex.verify_lemma_4_3(cfg=cfg)
    return CriterionResult(6, "Levi power thresholds on the ellipsoid", seed,
                           rep.passed, time.time() - t0,
                           _report_rows(6, rep, seed), rep.summary_lines())


def criterion_07(seed):
    """Harmonic kernel thresholds for n = 3 and n = 4, global and local."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    rows, lines, ok = [], [], True
    for n in (3, 4):
        rep = ex.verify_lemma_5_1(n=n, cfg=cfg)
        ok = ok and rep.passed
        rows += _report_rows(7, rep, seed)
        lines += rep.summary_lines()
    runtime = time.time() - t0
    ok = ok and runtime <= 120.0
    return CriterionResult(7, "harmonic kernel thresholds", seed, ok, runtime,
                           rows, lines)


def criterion_08(seed):
    """Quadratic lower bound for the Levi polynomial; inflated beta fails."""
    t0 = time.time()
    rows, lines = [], []
    ball = parse_domain("ball:n=2")
    ell = parse_domain("ellipsoid:a=1,2")
    ok = True
    for label, domain in (("ball", ball), ("ellipsoid a=(1,2)", ell)):
        beta = levi_form_min_eigenvalue(domain, seed=seed) / 3.0
        rep = check_levi_estimate(domain, beta, eta=0.5, count=10_000, seed=seed)
        good = rep.ok
        ok = ok and good
        rows.append(_row(8, f"{label} beta={beta:.4g} no violations", good, seed,
                         value=rep.worst_margin))
        lines.append(f"      {label}: beta={beta:.4g}, worst margin "
                     f"{rep.worst_margin:.3e}, violations {len(rep.violations)}")
    rep_bad = check_levi_estimate(ball, 1.5, eta=0.5, count=10_000, seed=seed)
    found = len(rep_bad.violations) >= 1
    ok = ok and found
    rows.append(_row(8, "ball beta=1.5 finds violations", found, seed,
                     value=rep_bad.worst_margin))
    lines.append(f"      ball beta=1.5: worst margin {rep_bad.worst_margin:.3e}, "
                 f"violations {len(rep_bad.violations)} (inflated beta must fail)")
    return CriterionResult(8, "Levi polynomial quadratic lower bound", seed, ok,
                           time.time() - t0, rows, lines)


def criterion_09(seed):
    """Density mechanism: metric-small perturbation, large near every target."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    base = fn.Poly(((3.0, (0, 0)), (1.0, (2, 0))), 2)
    res = ex.density_demo(base, cfg=cfg)
    runtime = time.time() - t0
    ok = res.passed and runtime <= 180.0
    rows = [_row(9, "metric < delta", res.metric.value < 0.01, seed,
                 value=res.metric.value, stderr=res.metric.uncertainty),
            _row(9, "coefficient", True, seed, value=res.coefficient)]
    for e in res.witnesses.entries:
        rows.append(_row(9, "witness exceeds bound", e.success, seed,
                         value=e.value))
    return CriterionResult(9, "density demo: small metric, unbounded witnesses",
                           seed, ok, runtime, rows, res.summary_lines())


def criterion_10(seed):
    """Property suite: quadrature, monotonicity, metric axioms, inequalities."""
    t0 = time.time()
    cfg = norms.QuadConfig(seed=seed)
    rows, lines = [], []
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        rows.append(_row(10, name, bool(ok), seed, value=detail))
        lines.append(f"      {'ok ' if ok else 'BAD'} {name} {detail}")

    n = 2
    area = quad.sphere_area(n)
    f = fn.Cauchy((1.0, 0.0))

    # positivity and linearity (fixed seed, identical node sets)
    g1 = lambda Z: np.abs(fn.evaluate(f, 0.5 * Z)) ** 1.5
    g2 = lambda Z: np.abs(fn.evaluate(f, 0.5 * Z)) ** 2.0
    combo = lambda Z: 2.0 * g1(Z) + 3.0 * g2(Z)
    e1 = quad.integrate_sphere(g1, n, cfg.mc_count, seed)
    e2 = quad.integrate_sphere(g2, n, cfg.mc_count, seed)
    ec = quad.integrate_sphere(combo, n, cfg.mc_count, seed)
    check("positivity", e1.value >= 0 and e2.value >= 0)
    lin_err = abs(ec.value - (2 * e1.value + 3 * e2.value)) / abs(ec.value)
    check("linearity (same seed)", lin_err < 1e-12, f"rel={lin_err:.2e}")

    # seed determinism
    e1b = quad.integrate_sphere(g1, n, cfg.mc_count, seed)
    check("seed determinism", e1.value == e1b.value and e1.stderr == e1b.stderr)

    # cap + complement = sphere, independent seeds
    zeta = np.array([1.0 + 0j, 0j])
    ecap = quad.integrate_cap(g1, zeta, 0.8, n, cfg.mc_count, seed + 17)
    ecomp = quad.integrate_cap(g1, zeta, 0.8, n, cfg.mc_count, seed + 31,
                               complement=True)
    esph = quad.integrate_sphere(g1, n, cfg.mc_count, seed + 51)
    gap = abs(ecap.value + ecomp.value - esph.value)
    tol = 3.0 * math.sqrt(ecap.stderr ** 2 + ecomp.stderr ** 2 + esph.stderr ** 2)
    check("cap + complement = sphere", gap <= tol, f"|gap|={gap:.3g} tol={tol:.3g}")

    # zonal vs MC agreement on 20 random zonal integrands, r <= 0.9
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xA9]))
    hits = 0
    for i in range(20):
        r = 0.3 + 0.6 * rng.random()
        p = 0.5 + 2.0 * rng.random()
        gt = lambda lam, r=r, p=p: np.abs(1.0 - r * lam) ** (-p)
        gz = lambda Z, r=r, p=p: np.abs(1.0 - r * hermitian(Z, zeta)) ** (-p)
        ez = quad.integrate_zonal(gt, n)
        em = quad.integrate_sphere(gz, n, cfg.mc_count, seed + 700 + i)
        if abs(ez.value - em.value) <= 3.0 * em.stderr:
            hits += 1
    check("zonal/MC agreement >= 19/20", hits >= 19, f"hits={hits}")

    # norm monotonicity in p at fixed r (shared zonal rule: discrete Jensen)
    mono_ok = True
    for r in (0.5, 0.9, 0.99):
        i1 = norms.radial_integral(f, 1.5, r, cfg).value
        i2 = norms.radial_integral(f, 2.5, r, cfg).value
        mono_ok = mono_ok and ((i1 / area) ** (1 / 1.5)
                               <= (i2 / area) ** (1 / 2.5) * (1 + 1e-12))
    check("norm monotonicity in p", mono_ok)

    # metric axioms
    mspec = norms.IntersectionMetricSpec(q=1.5, J=20)
    fa = fn.PowerCauchy((1.0, 0.0), 1.5)
    fb = fn.Sum(((0.25, fn.PowerCauchy((1.0, 0.0), 1.5)),
                 (1.0, fn.Const(1.0, 2))))
    grid = norms.ApproachGrid("radial", 2, 16)
    dab = norms.intersection_metric(fa, fb, mspec, grid=grid, cfg=cfg)
    dba = norms.intersection_metric(fb, fa, mspec, grid=grid, cfg=cfg)
    daa = norms.intersection_metric(fa, fa, mspec, grid=grid, cfg=cfg)
    check("metric d(f,f) = 0", daa.value == 0.0)
    check("metric symmetry", dab.value == dba.value,
          f"d={dab.value:.6f}")
    check("metric bounded by 1", 0.0 <= dab.value < 1.0)

    # scalar log inequality (log x)^p <= (k!)^{p/k} x^{p/k} for x > 1
    xs = np.logspace(1e-12, 12, 4001)
    ok_log = True
    for pw in (1.0, 2.0, 4.0):
        for kk in (1, 2, 5):
            lhs = np.log(xs) ** pw
            rhs = math.factorial(kk) ** (pw / kk) * xs ** (pw / kk)
            ok_log = ok_log and bool(np.all(lhs <= rhs * (1 + 1e-12)))
    check("scalar log inequality sweep", ok_log)

    # principal branch: |Im log f| < pi/2 on 1e5 random interior points
    zpts = quad.sample_sphere(n, 100_000, seed + 3)
    radii = np.random.Generator(np.random.Philox(key=[seed, 0x11])).random(100_000)
    pts = zpts * radii[:, None] ** 0.25
    im = np.abs(fn.evaluate(fn.LogCauchy((1.0, 0.0)), pts).imag)
    check("principal branch |Im log f| < pi/2", bool(np.all(im < np.pi / 2)),
          f"max={im.max():.4f}")

    ok = all(checks)
    return CriterionResult(10, "property suites", seed, ok, time.time() - t0,
                           rows, lines)


CRITERIA = {
    1: criterion_01, 2: criterion_02, 3: criterion_03, 4: criterion_04,
    5: criterion_05, 6: criterion_06, 7: criterion_07, 8: criterion_08,
    9: criterion_09, 10: criterion_10,
}


def run_criterion(cid, seeds=DEFAULT_SEEDS):
    return [CRITERIA[cid](seed) for seed in seeds]


def run_all(seeds=DEFAULT_SEEDS, criteria=None):
    out = []
    for cid in sorted(criteria or CRITERIA):
        for res in run_criterion(cid, seeds):
            print(res.header(), flush=True)
            out.append(res)
    return out
