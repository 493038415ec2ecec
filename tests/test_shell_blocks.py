"""The thin shell keeps its accepted nodes in the blocks its proposal chunks
produced, and ``SurfaceSampler.integrate`` evaluates the integrand one block
at a time: every estimate is bit for bit that of the concatenated rule, and
the memory of the sampler and of the reduction stays bounded."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_level_rules import _thin_shell_reference
from test_reduction import GOLDEN, MC, THIN_SHELL_ELL

from hardylab import functions as fn
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad

ELL = geo.parse_domain("ellipsoid:a=1,2")
WARP = replace(ELL, warps=1)
E1 = (1.0 + 0j, 0j)
MIB = 2 ** 20


def _integrand(fspec, ps, within):
    """|f|^p for each exponent, as a level scan integrates it on U."""
    g = lambda Z: norms._powers(fn.level_abs(fspec, Z), ps)
    return g if within is None else quad.inside_only(g, *within)


@pytest.mark.parametrize("seed", [7, 11, 13])
@pytest.mark.parametrize("ps", [(1.5,), (1.0, 1.5, 3.0)], ids=["1-exponent",
                                                               "3-exponents"])
@pytest.mark.parametrize("kw", [{}, {"within": (E1, 0.3), "focus": E1}],
                         ids=["whole", "within-focus"])
@pytest.mark.parametrize("domain,kernel_domain", [(WARP, ELL), (WARP, WARP),
                                                  (ELL, ELL)],
                         ids=["warped", "warped-kernel", "unwarped"])
def test_blocked_rule_integrates_as_the_concatenated_rule(domain, kernel_domain,
                                                          kw, ps, seed):
    eps, proposals = 0.05, 3 * quad.SHELL_CHUNK_ROWS + 17
    s = quad.thin_shell_sampler(domain, eps, proposals, seed, **kw)
    pts, w = _thin_shell_reference(domain, eps, proposals, seed, **kw)
    assert len(s.blocks) > 1
    assert np.array_equal(s.points, pts)
    assert np.array_equal(s.weights, w)
    g = _integrand(fn.LeviReciprocal(kernel_domain, E1), ps, kw.get("within"))
    # what integrate computed when the rule held its nodes in one array
    want = quad.reduce_nodes(w, g(pts), "thin-shell", proposals)
    got = s.integrate(g)
    assert len(got) == len(ps)
    for a, b in zip(got, want):
        assert (a.value, a.stderr, a.count, a.method, a.overflowed) == \
            (b.value, b.stderr, b.count, b.method, b.overflowed)


def test_an_error_on_a_later_block_propagates_unchanged():
    s = quad.thin_shell_sampler(WARP, 0.05, 3 * quad.SHELL_CHUNK_ROWS + 17, 7)
    assert len(s.blocks) > 1
    seen = []

    def g(Z):
        seen.append(len(Z))
        if len(seen) == 2:
            raise fn.FunctionError("outside zero-free region")
        return np.ones(len(Z))

    with pytest.raises(fn.FunctionError) as err:
        s.integrate(g)
    assert str(err.value) == "outside zero-free region"
    assert seen == [len(b) for b in s.blocks[:2]]


def test_points_is_a_read_only_join_of_the_blocks():
    s = quad.thin_shell_sampler(WARP, 0.05, 3 * quad.SHELL_CHUNK_ROWS + 17, 7)
    with pytest.raises(AttributeError):
        s.points = np.zeros((1, 2), dtype=complex)
    assert np.array_equal(s.points, np.concatenate(s.blocks))
    one = geo.level_set_sampler(ELL, 0.05, "parametrized", 1_000, seed=7)
    assert len(one.blocks) == 1 and one.points is one.blocks[0]


def _within(surface):
    U = surface.restrict
    return None if U is None else (U.center, U.radius)


# the goldens' thin-shell rules: name -> (domain, eps, within, node count)
SHELL_GOLDENS = {
    **{name: (GOLDEN[name][2].domain, GOLDEN[name][3], _within(GOLDEN[name][2]),
              GOLDEN[name][8])
       for name in ("thin-shell", "thin-shell-restricted")},
    **{f"ellipsoid-{name}": (ELL, 0.1, within, count)
       for name, (within, _, _, count) in THIN_SHELL_ELL.items()},
}


@pytest.mark.parametrize("name", list(SHELL_GOLDENS))
def test_sampler_reports_the_goldens_count_and_proposals(name):
    # perfbench's level_set_sampler span reads .count and .proposals
    domain, eps, within, count = SHELL_GOLDENS[name]
    s = geo.level_set_sampler(domain, eps, "thin-shell", MC.thin_shell_proposals,
                              seed=norms._point_seed(MC, 3), singular_center=E1,
                              within=within)
    assert (s.count, s.proposals) == (count, MC.thin_shell_proposals)
    assert sum(len(b) for b in s.blocks) == count


def _traced(fn_, *args, **kwargs):
    """fn_(*args, **kwargs) and its traced peak above the memory traced
    before the call, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn_(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def first_warped_level():
    """The first and largest level of lemma 3.1's warped lambda scan: eps =
    0.2, 4M proposals in boxes shrinking to zeta on V = B(zeta, 0.2), and the
    traced peak of building it."""
    V = (E1, 0.2)
    return _traced(quad.thin_shell_sampler, WARP, 0.2,
                   norms.QuadConfig().thin_shell_proposals,
                   norms._point_seed(norms.QuadConfig(), 0), within=V, focus=E1)


def test_thin_shell_holds_at_most_its_chunk_buffers_beyond_its_nodes(
        first_warped_level):
    s, peak = first_warped_level
    returned = sum(b.nbytes for b in s.blocks) + s.weights.nbytes
    # two 4-column float64 buffers of SHELL_CHUNK_ROWS rows per thread, 4 MiB,
    # plus 8 MiB for the box indices and each chunk's temporaries; joining
    # the nodes into one array, as the sampler once did, takes 13 MiB more
    bound = (4 * quad.shell_workers() + 8) * MIB
    assert peak - returned <= bound, (peak - returned) / MIB


def test_integrate_evaluates_block_by_block_in_bounded_memory(first_warped_level):
    s, _ = first_warped_level
    assert len(s.blocks) > 1
    f = fn.LeviReciprocal(ELL, E1)
    g = _integrand(f, (1.5,), (E1, 0.2))
    (est,), peak = _traced(s.integrate, g)
    # the value rows, their product with the weights and its square, 8 bytes
    # a node each, and one block's temporaries; g on all nodes at once took
    # 28 MiB
    assert peak <= 10 * MIB, peak / MIB
    assert est.count == s.count and np.isfinite(est.value)
