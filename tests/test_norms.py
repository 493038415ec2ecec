import math

import numpy as np
import pytest

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

E1 = (1.0 + 0j, 0j)
BALL = geo.parse_domain("ball:n=2")
ELL = geo.parse_domain("ellipsoid:a=1,2")
CFG = norms.QuadConfig(seed=7)
SIGMA = 2 * np.pi ** 2


def synthetic_scan(values, stderr=0.0, p=2.0, k_min=2, methods=None):
    values = np.asarray(values, dtype=float)
    grid = norms.ApproachGrid("radial", k_min, k_min + len(values) - 1)
    s = np.full(len(values), stderr) * np.abs(values)
    methods = methods or ["zonal"] * len(values)
    return norms.NormScan(p=p, grid=grid, surface=norms.SphereSurface(2),
                          fspec=fn.Const(1.0, 2), values=values, stderrs=s,
                          flags=[""] * len(values), methods=methods)


class TestGrids:
    def test_radial_values(self):
        g = norms.ApproachGrid("radial", 2, 5)
        assert np.allclose(g.values(), [0.75, 0.875, 0.9375, 0.96875])

    def test_level_values(self):
        g = norms.ApproachGrid("level", 0, 2)
        assert np.allclose(g.values(), [0.2, 0.1, 0.05])

    def test_floor_enforced(self):
        with pytest.raises(norms.NormError):
            norms.ApproachGrid("radial", 2, 30)  # 2^-30 < 1e-9
        norms.ApproachGrid("radial", 2, 29)  # boundary case allowed

    def test_empty_grid(self):
        with pytest.raises(norms.NormError):
            norms.ApproachGrid("radial", 5, 4)

    @pytest.mark.parametrize("kind", ["radial", "level"])
    def test_negative_index_refused(self, kind):
        with pytest.raises(norms.NormError, match="k_min = -1"):
            norms.ApproachGrid(kind, -1, 3)


class TestRadialIntegral:
    def test_constant_gives_area(self):
        for r in (0.3, 0.9):
            for p in (1.0, 2.5):
                est = norms.radial_integral(fn.Const(1.0, 2), p, r, CFG)
                assert est.value == pytest.approx(SIGMA, rel=1e-12)

    def test_log_ratio_stabilizes(self):
        f = fn.Cauchy(E1)
        ratios = []
        for k in (16, 20, 24, 28):
            r = 1 - 2.0 ** (-k)
            est = norms.radial_integral(f, 2.0, r, CFG)
            ratios.append(est.value / np.log(1 / (1 - r ** 2)))
        ratios = np.array(ratios)
        assert np.all(ratios > 0)
        assert (ratios.max() - ratios.min()) / ratios.mean() < 0.01

    def test_zonal_matches_forced_mc(self):
        from dataclasses import replace
        f = fn.Cauchy(E1)
        mc_cfg = replace(CFG, force_mc=True)
        ez = norms.radial_integral(f, 1.5, 0.9, CFG)
        em = norms.radial_integral(f, 1.5, 0.9, mc_cfg)
        assert abs(ez.value - em.value) <= 3 * max(em.stderr, 1e-12)

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_complement_of_a_wide_cap_matches_forced_mc(self, seed):
        # radius 1.9 cuts the zonal disk at Re lam = -0.805: a cut below 0
        from dataclasses import replace
        surface = norms.CapSurface(2, E1, 1.9, complement=True)
        cfg = replace(CFG, seed=seed)
        ez, _ = norms.point_integral(fn.Cauchy(E1), 2.0, surface, 0.5, cfg)
        em, _ = norms.point_integral(fn.Cauchy(E1), 2.0, surface, 0.5,
                                     replace(cfg, force_mc=True))
        assert (ez.method, em.method) == ("zonal", "mc-cap")
        assert abs(ez.value - em.value) <= 3 * em.stderr

    def test_validation(self):
        with pytest.raises(norms.NormError):
            norms.radial_integral(fn.Const(1.0, 2), 2.0, 1.0, CFG)
        with pytest.raises(norms.NormError):
            norms.radial_integral(fn.Const(1.0, 2), 0.5, 0.5, CFG)


class TestClassify:
    def test_constant_bounded(self):
        v = norms.classify(synthetic_scan(np.full(12, 5.0)))
        assert v.klass == "Bounded"
        assert v.sup_estimate == pytest.approx(5.0)

    def test_synthetic_log(self):
        k = np.arange(2, 22)
        rng = np.random.Generator(np.random.Philox(key=[1, 2]))
        vals = 3.0 * k * math.log(2) * (1 + 0.01 * rng.standard_normal(len(k)))
        v = norms.classify(synthetic_scan(vals, stderr=0.01))
        assert v.klass == "LogDivergent"
        assert v.rate == pytest.approx(3.0, rel=0.10)

    def test_synthetic_power(self):
        k = np.arange(2, 22)
        vals = 2.0 ** (0.5 * k)
        v = norms.classify(synthetic_scan(vals))
        assert v.klass == "PowerDivergent"
        assert v.rate == pytest.approx(0.5, rel=0.10)

    def test_insufficient_points(self):
        v = norms.classify(synthetic_scan(np.full(4, 1.0)))
        assert v.klass == "Inconclusive"

    def test_noisy_points_dropped(self):
        vals = np.full(12, 5.0)
        sc = synthetic_scan(vals, stderr=0.2, methods=["mc-sphere"] * 12)
        v = norms.classify(sc)
        assert v.klass == "Inconclusive"   # all points beyond the 5% filter

    def test_overflow_forces_divergent(self):
        sc = synthetic_scan(2.0 ** (0.5 * np.arange(2, 14)))
        sc.flags[-1] = "overflow"
        sc.values[-1] = np.inf
        v = norms.classify(sc)
        assert v.klass == "PowerDivergent"
        assert "overflow" in v.note


class TestMembershipExamples:
    @pytest.mark.parametrize("p,expected", [(1.5, "In"), (2.0, "Out")])
    def test_cauchy(self, p, expected):
        m = norms.membership_verdict(fn.Cauchy(E1), p, norms.SphereSurface(2),
                                     norms.ApproachGrid("radial", 4, 20), CFG)
        assert m.status == expected

    def test_power_below_threshold(self):
        m = norms.membership_verdict(fn.PowerCauchy(E1, 1.5), 1.2,
                                     norms.SphereSurface(2),
                                     norms.ApproachGrid("radial", 4, 20), CFG)
        assert m.status == "In"


class TestScansAndLocal:
    def test_constant_scan_flat(self):
        sc = norms.scan(fn.Const(2.0, 2), 2.0, norms.ApproachGrid("radial", 2, 10),
                        norms.SphereSurface(2), CFG)
        assert np.allclose(sc.values, 4 * SIGMA, rtol=1e-12)
        assert norms.classify(sc).klass == "Bounded"

    def test_full_cap_reproduces_scan(self):
        grid = norms.ApproachGrid("radial", 4, 12)
        f = fn.Cauchy(E1)
        sc1 = norms.local_scan_ball(f, 1.5, E1, 2.0, grid, CFG)
        sc2 = norms.scan(f, 1.5, grid, norms.SphereSurface(2), CFG)
        # same-center caps ride the zonal path: radius 2 covers the sphere
        assert np.allclose(sc1.values, sc2.values, rtol=1e-10)

    def test_full_cap_mc_recovers_sphere(self):
        from dataclasses import replace
        g = fn.LogCauchy(E1)
        far = (0j, 1.0 + 0j)
        sc1 = norms.local_scan_ball(g, 2.0, far, 2.0,
                                    norms.ApproachGrid("radial", 2, 6),
                                    replace(CFG, force_mc=True))
        sc2 = norms.scan(g, 2.0, norms.ApproachGrid("radial", 2, 6),
                         norms.SphereSurface(2), CFG)
        assert np.all(np.abs(sc1.values - sc2.values)
                      <= 3 * np.maximum(sc1.stderrs, 1e-12))

    def test_far_pole_cap_bounded(self):
        # integrand pole far from the cap: restriction makes the scan bounded
        far_center = (0j, 1.0 + 0j)
        sc = norms.local_scan_ball(fn.Cauchy(E1), 2.0, far_center, 0.5,
                                   norms.ApproachGrid("radial", 2, 12), CFG)
        v = norms.classify(sc)
        assert v.klass == "Bounded"

    def test_same_pole_cap_diverges(self):
        sc = norms.local_scan_ball(fn.Cauchy(E1), 2.0, E1, 0.5,
                                   norms.ApproachGrid("radial", 4, 20), CFG)
        assert norms.classify(sc).divergent

    def test_level_scan_constant_bounded(self):
        sc = norms.level_scan_domain(fn.Const(1.0, 2), 2.0, ELL, cfg=CFG)
        assert norms.classify(sc).klass == "Bounded"

    def test_scan_monotone_for_singular_zonal_functions(self):
        # subharmonicity: radial means of |f|^p never decrease toward the boundary
        grid = norms.ApproachGrid("radial", 2, 20)
        for spec, p in ((fn.Cauchy(E1), 1.5), (fn.Cauchy(E1), 2.5),
                        (fn.PowerCauchy(E1, 1.5), 1.2), (fn.LogCauchy(E1), 4.0)):
            sc = norms.scan(spec, p, grid, norms.SphereSurface(2), CFG)
            assert np.all(np.diff(sc.values) >= -1e-9 * sc.values[:-1])

    def test_level_restriction_superset_equals_unrestricted(self):
        U = norms.OpenBall(E1, 10.0)  # contains every level set
        f = fn.LeviReciprocal(ELL, E1)
        grid = norms.ApproachGrid("level", 0, 6)
        s1 = norms.level_scan_domain(f, 1.5, ELL, grid, CFG, restrict=U)
        s2 = norms.level_scan_domain(f, 1.5, ELL, grid, CFG)
        assert np.allclose(s1.values, s2.values, rtol=1e-12)

    def test_package_error_flags_point_and_truncates(self, monkeypatch):
        original = norms.point_integral

        def failing(fspec, p, surface, xval, cfg, k=0):
            if k >= 4:
                raise quad.QuadratureError("rule broke")
            return original(fspec, p, surface, xval, cfg, k)

        monkeypatch.setattr(norms, "point_integral", failing)
        sc = norms.scan(fn.Cauchy(E1), 2.0, norms.ApproachGrid("radial", 2, 7),
                        norms.SphereSurface(2), CFG)
        assert sc.flags == ["", "", "failed: rule broke"] + ["truncated"] * 3
        assert np.all(np.isfinite(sc.values[:2])) and np.all(np.isnan(sc.values[2:]))

    def test_programming_error_in_integrand_propagates(self, monkeypatch):
        def broken(spec, w):
            raise TypeError("bad operand")

        monkeypatch.setattr(fn, "zonal_eval", broken)
        with pytest.raises(TypeError, match="bad operand"):
            norms.scan(fn.Cauchy(E1), 2.0, norms.ApproachGrid("radial", 2, 7),
                       norms.SphereSurface(2), CFG)


class TestMcGuard:
    GUARD = "failed: mc variance guard (stderr/value > 0.02 near boundary)"
    CFG = norms.QuadConfig(seed=7, count=100, force_mc=True)
    POLY = fn.parse_function("poly:z2^2+z1+3")

    def test_noisy_point_near_the_boundary_is_flagged(self):
        est, flag = norms.point_integral(self.POLY, 2.0, norms.SphereSurface(2),
                                         0.995, self.CFG, k=3)
        assert est.method == "mc-sphere"
        assert est.stderr > 0.02 * est.value
        assert flag == self.GUARD

    @pytest.mark.parametrize("r", [0.99, 0.9])
    def test_noisy_point_away_from_the_boundary_is_not_flagged(self, r):
        assert 1.0 - r >= 1e-2
        est, flag = norms.point_integral(self.POLY, 2.0, norms.SphereSurface(2),
                                         r, self.CFG, k=3)
        assert est.method == "mc-sphere"
        assert est.stderr > 0.02 * est.value
        assert flag == ""


class TestHarmonicScan:
    def test_closed_form_n3_critical(self):
        sc = norms.harmonic_scan((0, 0, 1.0), 2.0, 3, cfg=CFG)
        R = np.sqrt(1 - sc.grid.values())
        exact = 2 * np.pi * R * np.log((1 + R) / (1 - R))
        assert np.max(np.abs(sc.values / exact - 1)) < 1e-8

    @pytest.mark.parametrize("n,p,klass", [
        (3, 1.7, "Bounded"), (3, 2.0, "LogDivergent"),
        (4, 1.4, "Bounded"), (4, 1.5, "LogDivergent"),
    ])
    def test_thresholds(self, n, p, klass):
        y = tuple([0.0] * (n - 1) + [1.0])
        v = norms.classify(norms.harmonic_scan(y, p, n, cfg=CFG))
        assert v.klass == klass

    def test_n_validation(self):
        with pytest.raises(norms.NormError):
            norms.harmonic_scan((1.0, 0.0), 2.0, 2, cfg=CFG)


class TestSeminorm:
    def test_constant(self):
        val = norms.hardy_seminorm(fn.Const(3.0, 2), 2.0, cfg=CFG)
        assert val == pytest.approx(3.0 * SIGMA ** 0.5, rel=1e-12)

    def test_divergent_raises(self):
        with pytest.raises(norms.NotInSpaceError):
            norms.hardy_seminorm(fn.Cauchy(E1), 2.0, cfg=CFG)

    def test_seed_reproducibility_mc(self):
        from dataclasses import replace
        f = fn.Cauchy(E1)
        grid = norms.ApproachGrid("radial", 2, 8)
        vals = [norms.hardy_seminorm(
            f, 1.5, grid, cfg=replace(CFG, force_mc=True, seed=s))
            for s in (7, 11, 13)]
        spread = (max(vals) - min(vals)) / np.mean(vals)
        assert spread < 0.05

    def test_triangle_inequality(self):
        rng = np.random.Generator(np.random.Philox(key=[5, 1]))
        grid = norms.ApproachGrid("radial", 2, 12)
        for _ in range(3):
            c1, c2 = rng.random(2) + 0.2
            f = fn.Sum(((c1, fn.LogCauchy(E1)),))
            g = fn.Sum(((c2, fn.Const(1.0, 2)),))
            fg = fn.combine((1.0, f), (1.0, g))
            nf = norms.hardy_seminorm(f, 2.0, grid, cfg=CFG)
            ng = norms.hardy_seminorm(g, 2.0, grid, cfg=CFG)
            nfg = norms.hardy_seminorm(fg, 2.0, grid, cfg=CFG)
            assert nfg <= nf + ng + 1e-9

    def test_finer_grid_never_decreases(self):
        f = fn.LogCauchy(E1)
        coarse = norms.hardy_seminorm(f, 2.0, norms.ApproachGrid("radial", 2, 10),
                                      cfg=CFG)
        fine = norms.hardy_seminorm(f, 2.0, norms.ApproachGrid("radial", 2, 20),
                                    cfg=CFG)
        assert fine >= coarse - 1e-12


class ExplicitLadder:
    """An exponent ladder given term by term; intersection_metric reads only
    ``p_list``."""

    def __init__(self, powers):
        self.powers = powers

    def p_list(self):
        return np.asarray(self.powers, dtype=float)


class TestMetric:
    MSPEC = norms.IntersectionMetricSpec(q=1.5, J=20)

    def test_self_distance_zero(self):
        d = norms.intersection_metric(fn.Cauchy(E1), fn.Cauchy(E1), self.MSPEC,
                                      cfg=CFG)
        assert d.value == 0.0

    def test_symmetry_and_bound(self):
        f = fn.PowerCauchy(E1, 1.5)
        g = fn.Const(1.0, 2)
        grid = norms.ApproachGrid("radial", 2, 12)
        dfg = norms.intersection_metric(f, g, self.MSPEC, grid=grid, cfg=CFG)
        dgf = norms.intersection_metric(g, f, self.MSPEC, grid=grid, cfg=CFG)
        assert dfg.value == dgf.value
        assert 0.0 < dfg.value < 1.0

    def test_convergence_equivalence(self):
        # f_k = g + (1/k) phi: the metric and every seminorm estimate shrink to 0
        g = fn.Const(1.0, 2)
        phi = fn.LogCauchy(E1)
        grid = norms.ApproachGrid("radial", 2, 12)
        spec = norms.IntersectionMetricSpec(q=1.5, J=8)
        dists, norms_first = [], []
        for k in (1, 8, 64, 512):
            fk = fn.combine((1.0, g), (1.0 / k, phi))
            res = norms.intersection_metric(fk, g, spec, grid=grid, cfg=CFG)
            dists.append(res.value)
            norms_first.append(res.terms[0][1])
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.02
        # seminorms scale exactly linearly in the coefficient
        for a, b in zip(norms_first, norms_first[1:]):
            assert b == pytest.approx(a / 8, rel=1e-9)

    def test_topology_independent_of_ladder(self):
        # two valid exponent ladders give the same convergence verdicts
        g = fn.Const(1.0, 2)
        phi = fn.LogCauchy(E1)
        grid = norms.ApproachGrid("radial", 2, 12)
        spec_a = norms.IntersectionMetricSpec(q=1.5, J=6)
        spec_b = ExplicitLadder(tuple(1.5 - 0.4 / (j + 1) for j in range(6)))
        for spec in (spec_a, spec_b):
            seq = [norms.intersection_metric(
                fn.combine((1.0, g), (1.0 / k, phi)), g, spec, grid=grid,
                cfg=CFG).value for k in (1, 8, 64, 512)]
            assert seq[0] > seq[1] > seq[2] > seq[3]
            assert seq[3] < 0.02

    def test_uncertainty_includes_tail(self):
        d = norms.intersection_metric(fn.PowerCauchy(E1, 1.5), fn.Const(0.0, 2),
                                      norms.IntersectionMetricSpec(q=1.5, J=10),
                                      grid=norms.ApproachGrid("radial", 2, 10),
                                      cfg=CFG)
        assert d.uncertainty >= 2.0 ** -10
