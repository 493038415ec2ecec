import math

import numpy as np
import pytest
from scipy.special import gammaln

from hardylab import experiments as ex
from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

CFG = norms.QuadConfig(seed=7)
E1 = (1.0 + 0j, 0j)


class TestLemmaReports:
    def test_lemma_2_2_all_cases(self):
        rep = ex.verify_lemma_2_2(cfg=CFG)
        assert rep.passed
        by_label = {(c.label, c.p): c for c in rep.cases}
        assert by_label[("cauchy kernel", 2.0)].verdict.klass == "LogDivergent"
        assert by_label[("cauchy kernel", 2.5)].verdict.klass == "PowerDivergent"

    def test_local_bound_report(self):
        rep = ex.verify_local_bound(cfg=CFG)
        assert rep.passed
        assert rep.alpha == pytest.approx(0.125, rel=1e-3)
        assert rep.bound == pytest.approx(quad.sphere_area(2) / 0.125 ** 2, rel=1e-2)

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_local_bound_alpha_is_closed_form(self, seed):
        # alpha = eps_cap^2 / 2 for eps_cap = 0.5, the same on every seed
        rep = ex.verify_local_bound(cfg=norms.QuadConfig(seed=seed))
        assert rep.alpha == 0.125
        assert rep.bound == quad.sphere_area(2) / 0.125 ** 2

    def test_full_sphere_cap_makes_complement_trivial(self):
        rep = ex.verify_local_bound(eps_cap=2.0, cfg=CFG)
        # complement empty: measured sup 0 <= bound trivially, cap scan = full scan
        assert rep.measured_sup == 0.0
        assert rep.cap_verdict.divergent

    @pytest.mark.parametrize("kind", ["identity", "rescaled", "warped"])
    def test_lemma_3_1(self, kind):
        rep = ex.verify_lemma_3_1(lam_kind=kind, cfg=CFG)
        assert rep.passed
        kappa = float(rep.extras["kappa"])
        assert math.isfinite(kappa)
        if kind == "identity":
            assert kappa == pytest.approx(1.0, abs=1e-12)

    def test_lemma_4_2(self):
        rep = ex.verify_lemma_4_2(cfg=CFG, bisect=False)
        assert rep.passed

    def test_lemma_4_3(self):
        rep = ex.verify_lemma_4_3(cfg=CFG)
        assert rep.passed

    def test_lemma_4_3_modulus_reduction(self):
        # |h_{q,zeta}|^{0.8 q} = |Q|^{-0.8 n}: the two scans share the integrand
        ell = geo.parse_domain("ellipsoid:a=1,2")
        grid = norms.ApproachGrid("level", 0, 8)
        sc_h = norms.level_scan_domain(fn.LeviPower(ell, E1, 1.5), 0.8 * 1.5,
                                       ell, grid, CFG)
        sc_q = norms.level_scan_domain(fn.LeviReciprocal(ell, E1), 0.8 * 2,
                                       ell, grid, CFG)
        assert np.allclose(sc_h.values, sc_q.values, rtol=1e-10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_lemma_5_1(self, n):
        rep = ex.verify_lemma_5_1(n=n, cfg=CFG)
        assert rep.passed


class TestSummaryLines:
    @staticmethod
    def line(expected, measured, passed):
        v = norms.DivergenceVerdict("LogDivergent", rate=0.30, r2=0.988)
        case = ex.LemmaCase("lambda-level scan", 1.5, expected, measured, v, passed)
        return ex.LemmaReport("3.1", [case], {}).summary_lines()[1]

    def test_passing_case_against_its_expectation_is_marked(self):
        line = self.line("In", "Out", True)
        assert line.startswith("  ok ")
        assert "expected In  measured Out" in line
        assert line.endswith("R2=0.988]  recorded, not enforced")

    @pytest.mark.parametrize("expected, measured, passed",
                             [("In", "In", True), ("In", "Out", False)])
    def test_agreeing_or_failing_case_is_not_marked(self, expected, measured,
                                                    passed):
        assert "not enforced" not in self.line(expected, measured, passed)


class TestBallEllipsoidConsistency:
    def test_ball_critical_exponent_bracket(self):
        dom = geo.Domain(geo.Ellipsoid((1.0, 1.0)))
        rep = ex.verify_lemma_4_2(domain=dom, cfg=CFG)
        lo, hi = map(float, rep.extras["critical_exponent_bracket"][1:-1].split(","))
        assert hi - lo <= 0.5
        assert 1.9 <= 0.5 * (lo + hi) <= 2.1
        assert rep.passed

    def test_radial_and_level_routes_agree(self):
        # same verdicts for the Cauchy kernel through both scan routes
        dom = geo.Domain(geo.Ellipsoid((1.0, 1.0)))
        f_level = fn.LeviReciprocal(dom, E1)
        f_rad = fn.Cauchy(E1)
        for p, expected in ((1.5, "In"), (2.5, "Out")):
            m_rad = norms.membership_verdict(
                f_rad, p, norms.SphereSurface(2),
                norms.ApproachGrid("radial", 4, 20), CFG)
            m_lev = norms.membership_verdict(
                f_level, p, norms.LevelSurface(dom), norms.LEVEL_GRID, CFG)
            assert m_rad.status == expected
            assert m_lev.status == expected


class TestWitnesses:
    def test_log_kernel_witness(self):
        h = fn.LogCauchy(E1)
        rep = ex.totally_unbounded_witness(h, [np.array(E1)], 10.0)
        assert rep.passed
        e = rep.entries[0]
        # growth along the ray is log(1/(1-r)); schedule hits m=9
        assert e.value == pytest.approx(9 / 2 * np.log(10), rel=1e-6)
        assert e.rho < 0

    def test_bounded_function_fails(self):
        rep = ex.totally_unbounded_witness(fn.Const(1.0, 2), [np.array(E1)], 10.0)
        assert not rep.passed

    def test_power_kernel_witness_depth(self):
        phi = fn.PowerCauchy(E1, 1.5)
        rep = ex.totally_unbounded_witness(phi, [np.array(E1)], 1e3)
        assert rep.passed
        # |phi(r zeta)| = (1-r)^{-4/3} crosses 1e3 at 1-r = 10^{-2.25}: m = 5
        e = rep.entries[0]
        assert 1.0 - abs(e.probe[0]) == pytest.approx(10 ** -2.5, rel=1e-9)

    def test_success_reverifies(self):
        h = fn.LogCauchy(E1)
        rep = ex.totally_unbounded_witness(h, [np.array(E1)], 5.0)
        e = rep.entries[0]
        assert abs(fn.evaluate(h, np.array(e.probe))) > 5.0


class TestDensityDemo:
    def test_single_center_small_delta(self):
        res = ex.density_demo(fn.Const(0.0, 2), q=1.5, delta=0.1, J=1, cfg=CFG)
        assert res.passed
        assert res.metric.value < 0.1

    def test_large_delta_trivial(self):
        res = ex.density_demo(fn.Const(0.0, 2), q=1.5, delta=10.0, J=1, cfg=CFG)
        assert res.metric.value < 10.0
        assert res.witnesses.passed

    def test_true_metric_certified_by_gamma_oracle(self):
        """The demo's coefficient keeps even the TRUE truncated metric under
        delta: bound each ||sum c phi_j||_{p} by the triangle inequality with
        the exact boundary-integral norms (Gamma closed form)."""
        delta, J, q, n = 0.01, 4, 1.5, 2
        res = ex.density_demo(fn.Poly(((3.0, (0, 0)), (1.0, (2, 0))), n),
                              q=q, delta=delta, J=J, cfg=CFG)
        c = res.coefficient
        sigma = quad.sphere_area(n)
        total = 2.0 ** -20
        for j, pj in enumerate(norms.IntersectionMetricSpec(q=q, J=20).p_list(),
                               start=1):
            s = n * pj / q
            truenorm = (sigma * math.exp(
                gammaln(n) + gammaln(n - s) - 2 * gammaln(n - s / 2))) ** (1 / pj)
            x = J * c * truenorm
            total += 2.0 ** (-j) * x / (1 + x)
        assert total < delta