"""The exact point integrals (zonal, disk chart, real-zonal) are integrated
once per process: ``norms.point_integrals`` keeps each (fspec, surface, x, p)
result in a bounded memo, and a repeat returns it bit for bit without a new
rule or evaluation.  Monte Carlo points, which are seeded, and points that
raise are never kept."""

import numpy as np
import pytest

from hardylab import acceptance
from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

E1 = (1.0 + 0j, 0j)
ELL = geo.parse_domain("ellipsoid:a=1,2")
WARPED = geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")
LEVI = fn.LeviReciprocal(ELL, E1)
H3 = fn.HarmonicKernel((1.0, 0.0, 0.0), 3)
DET = norms.QuadConfig(seed=7)
MC = norms.QuadConfig(seed=7, count=2000, thin_shell_proposals=200_000,
                      force_mc=True)

# name: (fspec, surface, x, the quadrature entry point the path calls)
EXACT = {
    "zonal": (fn.Cauchy(E1), norms.SphereSurface(2), 0.9, "integrate_zonal"),
    "zonal-cap": (fn.Cauchy(E1), norms.CapSurface(2, E1, 0.5), 0.9,
                  "integrate_zonal"),
    "chart": (LEVI, norms.LevelSurface(ELL), 0.05, "integrate_zonal"),
    "chart-restricted": (LEVI, norms.LevelSurface(ELL, norms.OpenBall(E1, 0.4)),
                         0.05, "integrate_zonal"),
    "real-zonal": (H3, norms.RealLevelSurface(3), 0.05, "integrate_real_zonal"),
}


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is recorded; returns the list of
    the positional arguments of every call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(EXACT))
def test_a_repeated_exact_point_is_not_integrated_again(monkeypatch, name):
    fspec, surface, x, entry = EXACT[name]
    calls = _count_calls(monkeypatch, quad, entry)
    first = norms.point_integral(fspec, 2.0, surface, x, DET, k=3)
    assert len(calls) == 1
    # another seed and grid index: the exact paths read neither
    again = norms.point_integral(fspec, 2.0, surface, x, norms.QuadConfig(seed=11), k=5)
    assert len(calls) == 1
    assert again == first
    assert first[0].method in norms.DETERMINISTIC_METHODS


def test_only_the_exponents_not_met_before_are_integrated(monkeypatch):
    fspec, surface = fn.PowerCauchy(E1, 1.5), norms.SphereSurface(2)
    grid = norms.ApproachGrid("radial", 2, 7)
    x = float(grid.values()[2])
    norms.scans(fspec, (1.5, 2.0, 3.0), grid, surface, DET)
    calls = _count_calls(monkeypatch, norms, "_zonal_integral")
    warm = norms.point_integrals(fspec, (2.0, 2.5), surface, x, DET)
    assert [list(args[1]) for args in calls] == [[2.5]]
    monkeypatch.undo()
    norms._exact_memo.clear()
    cold = norms.point_integrals(fspec, (2.0, 2.5), surface, x, DET)
    for (w, wflag), (c, cflag) in zip(warm, cold):
        assert (w.value, w.stderr, w.count, w.method, wflag) == \
            (c.value, c.stderr, c.count, c.method, cflag)


def test_a_raising_point_raises_again_and_is_not_kept(monkeypatch):
    calls = []

    def broken(spec, w):
        calls.append(spec)
        raise fn.FunctionError("outside zero-free region")

    monkeypatch.setattr(fn, "zonal_abs", broken)
    for _ in range(2):
        with pytest.raises(fn.FunctionError, match="zero-free"):
            norms.point_integral(fn.Cauchy(E1), 2.0, norms.SphereSurface(2), 0.9, DET)
    assert len(calls) == 2
    assert not norms._exact_memo


# name: (fspec, surface, x, owner and name of the sampler the path builds)
MONTE_CARLO = {
    "force-mc": (fn.Cauchy(E1), norms.SphereSurface(2), 0.9,
                 quad, "integrate_sphere_importance"),
    "parametrized": (LEVI, norms.LevelSurface(ELL), 0.05, geo, "level_set_sampler"),
    "thin-shell": (LEVI, norms.LevelSurface(WARPED), 0.1, geo, "level_set_sampler"),
}


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_points_build_their_sampler_on_every_call(monkeypatch, name):
    fspec, surface, x, owner, entry = MONTE_CARLO[name]
    calls = _count_calls(monkeypatch, owner, entry)
    first = norms.point_integral(fspec, 1.5, surface, x, MC, k=3)
    again = norms.point_integral(fspec, 1.5, surface, x, MC, k=3)
    assert len(calls) == 2
    assert again == first  # the same seed draws the same nodes
    assert not norms._exact_memo


def test_the_memo_never_exceeds_its_bound_and_drops_the_oldest(monkeypatch):
    monkeypatch.setattr(norms, "EXACT_MEMO_ENTRIES", 4)
    fspec, surface = fn.Cauchy(E1), norms.SphereSurface(2)
    grid = norms.ApproachGrid("radial", 2, 7)
    sizes = []
    for x in grid.values():
        norms.point_integrals(fspec, (1.5, 2.0), surface, x, DET)
        sizes.append(len(norms._exact_memo))
    assert sizes == [2, 4, 4, 4, 4, 4]
    kept = [(float(x), p) for x in grid.values()[-2:] for p in (1.5, 2.0)]
    assert [(key[2], key[3]) for key in norms._exact_memo] == kept


@pytest.mark.parametrize("make", [
    lambda zeta: fn.Cauchy(zeta),
    lambda zeta: fn.LogCauchy(zeta),
    lambda zeta: fn.PowerCauchy(zeta, 1.5),
    lambda zeta: fn.LeviReciprocal(ELL, zeta),
    lambda zeta: fn.LeviPower(ELL, zeta, 1.5),
], ids=["cauchy", "log", "power", "levi", "levipow"])
def test_an_array_built_spec_integrates_as_the_tuple_built_one(make):
    array_spec, tuple_spec = make(np.array([1.0, 0.0])), make((1.0, 0.0))
    assert hash(array_spec) == hash(tuple_spec)
    assert fn.describe(array_spec) == fn.describe(tuple_spec)
    surface = (norms.SphereSurface(2) if fn.zonal_center(tuple_spec) is not None
               else norms.LevelSurface(ELL))
    x = 0.9 if isinstance(surface, norms.SphereSurface) else 0.05
    from_array = norms.point_integral(array_spec, 2.0, surface, x, DET)
    norms._exact_memo.clear()
    assert norms.point_integral(tuple_spec, 2.0, surface, x, DET) == from_array


def test_an_array_built_harmonic_pole_and_ball_integrate_as_tuples():
    array_spec = fn.HarmonicKernel(np.array([1.0, 0.0, 0.0]), 3)
    surface = norms.RealLevelSurface(3, norms.OpenBall(np.array([1.0, 0.0, 0.0]), 0.4))
    assert fn.describe(array_spec) == fn.describe(H3)
    from_array = norms.point_integral(array_spec, 1.5, surface, 0.05, DET)
    norms._exact_memo.clear()
    tuple_surface = norms.RealLevelSurface(3, norms.OpenBall((1.0, 0.0, 0.0), 0.4))
    assert norms.point_integral(H3, 1.5, tuple_surface, 0.05, DET) == from_array


@pytest.mark.parametrize("make", [
    lambda seq: fn.Poly(seq([(3.0, seq([0, 0])), (1.0, seq([2, 0]))]), 2),
    lambda seq: fn.Sum(seq([(0.5, fn.Cauchy(E1)), (1.0, fn.Const(1.0, 2))])),
], ids=["poly", "sum"])
def test_list_built_terms_integrate_as_the_tuple_built_ones(make):
    list_spec, tuple_spec = make(list), make(tuple)
    assert list_spec == tuple_spec and hash(list_spec) == hash(tuple_spec)
    assert fn.describe(list_spec) == fn.describe(tuple_spec)
    surface = norms.SphereSurface(2)
    from_list = norms.point_integral(list_spec, 2.0, surface, 0.9, DET)
    assert from_list[0].method == "zonal"
    norms._exact_memo.clear()
    assert norms.point_integral(tuple_spec, 2.0, surface, 0.9, DET) == from_list


def _rows(seed):
    return [row for cid in (1, 7) for row in acceptance.CRITERIA[cid](seed).rows]


def test_a_warm_memo_gives_the_rows_of_a_cold_run():
    """Criteria 1 and 7 for seed 11 after seed 7, whose exact integrals they
    repeat, give the rows of a run in a fresh process."""
    cold = _rows(11)
    norms._exact_memo.clear()
    _rows(7)
    filled = len(norms._exact_memo)
    warm = _rows(11)
    assert len(norms._exact_memo) == filled  # every exact point was a repeat
    assert warm == cold
