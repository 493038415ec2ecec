"""Level-set rules: the per-process strata cache of the parametrized sampler,
and the chunked, banded, threaded rejection loop of the thin-shell sampler."""

import math
import threading
import time

import numpy as np
import pytest

from hardylab import experiments as ex
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad
from hardylab.geometry import (Quadric, box_halfwidths, grad_norm, rng_stream,
                               to_complex, to_real)

ELL = geo.parse_domain("ellipsoid:a=1,2")
WARP = geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")
RESCALED_WARP = Quadric((1, 2), c=2.0, warps=1)
WARPED_RESCALED = Quadric((1, 1), c=0.5, warps=1)
WARP_TWICE = Quadric((1, 2), warps=2)
BALL = Quadric((1, 1))
E1 = np.array([1.0 + 0j, 0j])
# the deepest level of the warped containment scan of lemma 3.1
DEEP_EPS = 0.2 * 2.0 ** -8
strata_cache = quad._sphere_nodes_stratified


def _thin_shell_reference(domain, eps, proposals, seed, h=None, within=None,
                          focus=None):
    """The thin-shell rejection loop as one draw per 2M-row batch: the
    reference the chunked sampler must reproduce bit for bit."""
    h = h if h is not None else eps / 10.0
    b = box_halfwidths(domain)
    lo = -np.repeat(b, 2)
    hi = np.repeat(b, 2)
    if within is not None:
        center, radius = within
        c = to_real(np.asarray(center, dtype=complex))
        lo = np.maximum(lo, c - radius)
        hi = np.minimum(hi, c + radius)
    span = hi - lo
    if focus is None:
        los, his = lo[None, :], hi[None, :]
    else:
        c = to_real(np.asarray(focus, dtype=complex))
        K = int(np.clip(np.ceil(np.log2(1.0 / math.sqrt(max(eps, 1e-12)))) + 2,
                        2, 16))
        half = np.max(span) * 2.0 ** (-np.arange(K, dtype=float))
        los = np.maximum(lo[None, :], c[None, :] - half[:, None])
        his = np.minimum(hi[None, :], c[None, :] + half[:, None])
    vols = np.prod(his - los, axis=1)
    K = len(vols)

    rng = rng_stream(seed, 0x7541)
    accepted, weights = [], []
    batch = min(int(proposals), 2_000_000)
    remaining = int(proposals)
    while remaining > 0:
        nb = min(batch, remaining)
        comp = rng.integers(0, K, size=nb) if K > 1 else np.zeros(nb, dtype=int)
        U = rng.random((nb, 2 * domain.n))
        X = los[comp] + U * (his[comp] - los[comp])
        Z = to_complex(X)
        r = domain.rho(Z)
        mask = np.abs(r + eps) < h
        if mask.any():
            Xa = X[mask]
            Za = Z[mask]
            dens = np.zeros(len(Xa))
            for k in range(K):
                inside = np.all((Xa >= los[k]) & (Xa <= his[k]), axis=1)
                dens += inside / (K * vols[k])
            accepted.append(Za)
            weights.append(grad_norm(domain, Za)
                           / (2.0 * h * proposals * dens))
        remaining -= nb
    return np.concatenate(accepted), np.concatenate(weights)


@pytest.mark.parametrize("domain,eps,proposals,seed,kw", [
    # crosses the 2M batch boundary; neither part is a whole number of chunks
    (WARP, 0.05, 2_000_000 + 3 * quad.SHELL_CHUNK_ROWS + 17, 7, {}),
    (ELL, 0.02, 5 * quad.SHELL_CHUNK_ROWS + 1001, 11, {"focus": E1}),
    (ELL, 0.05, 4 * quad.SHELL_CHUNK_ROWS - 3, 13, {"within": (E1, 0.3)}),
    (WARP, DEEP_EPS, 6 * quad.SHELL_CHUNK_ROWS + 5, 7,
     {"within": (E1, 0.2), "focus": E1}),
    (RESCALED_WARP, 0.05, 3 * quad.SHELL_CHUNK_ROWS + 17, 11, {"focus": E1}),
    (WARPED_RESCALED, 0.05, 3 * quad.SHELL_CHUNK_ROWS + 17, 13, {}),
    (WARP_TWICE, 0.05, 3 * quad.SHELL_CHUNK_ROWS + 17, 7, {"within": (E1, 0.3)}),
    (BALL, 0.05, 3 * quad.SHELL_CHUNK_ROWS + 17, 11, {}),
    # K > 1 across the batch boundary: the second batch's comp continues the
    # stream past the first batch's U
    (ELL, 0.02, 2_000_000 + 2 * quad.SHELL_CHUNK_ROWS + 5, 11, {"focus": E1}),
])
def test_thin_shell_chunks_reproduce_the_single_batch_draw(domain, eps, proposals,
                                                           seed, kw):
    pts, w = _thin_shell_reference(domain, eps, proposals, seed, **kw)
    s = quad.thin_shell_sampler(domain, eps, proposals, seed, **kw)
    assert np.array_equal(s.points, pts)
    assert np.array_equal(s.weights, w)
    assert s.count == len(w)
    assert s.proposals == proposals


@pytest.mark.parametrize("pre", [0, 3], ids=["fresh", "after-integers"])
def test_positioned_philox_draws_the_kth_value_of_the_stream(pre):
    rng = rng_stream(11, 0x7541)
    rng.integers(0, 5, size=pre)  # an odd count leaves half a uint64 buffered
    state = rng.bit_generator.state
    ks = [0, 1, 2, 3, 4, 5, 7, 8, 2 ** 18 + 3]
    stream = rng.bit_generator.random_raw(max(ks) + 1)
    for k in ks:
        bits = quad.philox_skip(state, k)
        assert bits.random_raw() == stream[k], k
        assert bits.state["has_uint32"] == state["has_uint32"]
        assert bits.state["uinteger"] == state["uinteger"]


@pytest.mark.parametrize("workers", [1, 3])
def test_thin_shell_output_does_not_depend_on_the_thread_count(workers,
                                                               monkeypatch):
    args = (WARP, DEEP_EPS, 2_000_000 + 5 * quad.SHELL_CHUNK_ROWS + 9, 13)
    kw = {"within": (E1, 0.2), "focus": E1}
    ref = quad.thin_shell_sampler(*args, **kw)
    monkeypatch.setattr(quad, "SHELL_MAX_WORKERS", workers)
    monkeypatch.setattr(quad.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    assert quad.shell_workers() == workers
    s = quad.thin_shell_sampler(*args, **kw)
    assert np.array_equal(s.points, ref.points)
    assert np.array_equal(s.weights, ref.weights)


def test_a_failing_chunk_raises_after_every_chunk_has_stopped(monkeypatch):
    monkeypatch.setattr(quad, "SHELL_MAX_WORKERS", 3)
    monkeypatch.setattr(quad.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    main = threading.main_thread()

    def grad_norm_off_main(defining, Z):
        if threading.current_thread() is not main:
            raise ValueError("chunk failed")
        return grad_norm(defining, Z)

    monkeypatch.setattr(quad, "grad_norm", grad_norm_off_main)
    before = threading.active_count()
    with pytest.raises(ValueError, match="chunk failed"):
        quad.thin_shell_sampler(ELL, 0.05, 8 * quad.SHELL_CHUNK_ROWS, 7)
    assert threading.active_count() == before


def _shell_boundary_points(domain, eps, h, count, seed, through=None):
    """Points along random rays from the origin at which rho + eps is within
    1e-13 of -h or of +h, by bisection on the sign of rho - target.  The rays
    pass through uniform points of the box ``through`` (lo, hi) when given."""
    rng = np.random.default_rng(seed)
    if through is None:
        dirs = rng.standard_normal((count, 2 * domain.n))
    else:
        lo, hi = through
        dirs = lo + (hi - lo) * rng.random((count, 2 * domain.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rho = lambda t: domain.rho(to_complex(dirs * t[:, None]))
    out = []
    for target in (-eps - h, -eps + h):
        lo = np.zeros(count)  # rho(0) = -c < target
        hi = np.full(count, 4.0 * np.max(box_halfwidths(domain)))
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            below = rho(mid) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        for t in (lo, hi):
            assert np.max(np.abs(rho(t) - target)) < 1e-13
            out.append(dirs * t[:, None])
    return np.concatenate(out)


@pytest.mark.parametrize("domain", [WARP, RESCALED_WARP, WARPED_RESCALED,
                                    WARP_TWICE, BALL, ELL],
                         ids=lambda d: d.describe())
@pytest.mark.parametrize("eps", [DEEP_EPS, 1e-9], ids=["deep", "floor"])
@pytest.mark.parametrize("boxes", [{}, {"within": (E1, 0.2), "focus": E1}],
                         ids=["whole-box", "lemma-3.1-boxes"])
def test_shell_band_keeps_every_row_the_exact_test_accepts(domain, eps, boxes):
    h = eps / quad.SHELL_EPS_DIVISOR
    los, his = quad.shell_boxes(domain, eps, **boxes)
    lo, hi = los[0], his[0]  # box 0 holds the others
    raw = lo + (hi - lo) * rng_stream(5, 0x5C).random((1_000_000, lo.size))
    edge = _shell_boundary_points(domain, eps, h, 20_000, 3, through=(lo, hi))
    X = np.concatenate([raw, edge[np.all((edge >= lo) & (edge <= hi), axis=1)]])
    s_lo, s_hi = quad.shell_band(domain, eps, h, los, his)
    s = (X * X) @ np.repeat(domain.weights, 2)
    band = (s >= s_lo) & (s <= s_hi)
    exact = np.abs(domain.rho(to_complex(X)) + eps) < h
    assert exact[raw.shape[0]:].sum() > 10_000  # the boundary points test the edge
    assert np.all(band[exact])


@pytest.mark.parametrize("domain", [WARP, RESCALED_WARP, WARPED_RESCALED,
                                    WARP_TWICE, BALL, ELL],
                         ids=lambda d: d.describe())
@pytest.mark.parametrize("eps", [DEEP_EPS, 1e-9], ids=["deep", "floor"])
def test_shell_band_drops_nearly_every_raw_miss(domain, eps):
    # the band is the only screen before the exact rho: on the whole box it
    # must pass at most 1% of the proposals the exact test rejects, so the
    # exact rho is evaluated on few rows even where the multiplier spans
    # exp(+-2) over the box (WARP_TWICE)
    h = eps / quad.SHELL_EPS_DIVISOR
    los, his = quad.shell_boxes(domain, eps)
    lo, hi = los[0], his[0]
    X = lo + (hi - lo) * rng_stream(5, 0x5C).random((1_000_000, lo.size))
    s_lo, s_hi = quad.shell_band(domain, eps, h, los, his)
    s = (X * X) @ np.repeat(domain.weights, 2)
    band = (s >= s_lo) & (s <= s_hi)
    missed = ~(np.abs(domain.rho(to_complex(X)) + eps) < h)
    assert np.count_nonzero(band & missed) <= 1e-2 * missed.sum()


@pytest.mark.parametrize("workers", [2, 4])
def test_this_thread_takes_the_chunks_a_slow_pool_leaves(workers, monkeypatch):
    monkeypatch.setattr(quad, "SHELL_MAX_WORKERS", workers)
    monkeypatch.setattr(quad.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    main = threading.main_thread()
    on_main = []  # one entry per chunk with accepted nodes

    def grad_norm_slow_off_main(defining, Z):
        here = threading.current_thread() is main
        on_main.append(here)
        if not here:
            time.sleep(0.2)
        return grad_norm(defining, Z)

    monkeypatch.setattr(quad, "grad_norm", grad_norm_slow_off_main)
    args = (WARP, 0.05, 8 * quad.SHELL_CHUNK_ROWS + 17, 11)
    pts, w = _thin_shell_reference(*args)
    before = threading.active_count()
    s = quad.thin_shell_sampler(*args)
    assert threading.active_count() == before
    assert np.array_equal(s.points, pts)
    assert np.array_equal(s.weights, w)
    assert 0 < on_main.count(False) < on_main.count(True)


def _strata_sampler(eps=0.05, count=4_000, seed=7):
    return geo.level_set_sampler(ELL, eps, "parametrized", count, seed=seed,
                                 singular_center=E1)


def test_repeated_strata_rule_is_a_cache_hit():
    first = _strata_sampler()
    before = strata_cache.cache_info()
    again = _strata_sampler()
    after = strata_cache.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert np.array_equal(again.points, first.points)
    assert np.array_equal(again.weights, first.weights)
    assert again.strata == first.strata


@pytest.mark.parametrize("change", [{"seed": 8}, {"count": 4_001}, {"eps": 0.04}])
def test_other_seed_count_or_eps_is_a_cache_miss(change):
    _strata_sampler()
    before = strata_cache.cache_info().misses
    _strata_sampler(**change)
    assert strata_cache.cache_info().misses == before + 1


def test_cached_strata_arrays_are_read_only():
    pts, wts, _ = strata_cache(4, (1.0, 0.0, 0.0, 0.0), 2_000, 7, 0.1)
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    with pytest.raises(ValueError):
        wts[0] = 0.0
    s = _strata_sampler()
    s.points[0, 0] = 0.0  # the sampler's own arrays stay writable
    s.weights[0] = 0.0


def test_lemma_4_2_builds_each_grid_rule_once():
    grid = norms.LEVEL_GRID
    # force_mc: the ring strata, not the disk chart the lemma takes by default
    cfg = norms.QuadConfig(count=2_000, force_mc=True)
    strata_cache.cache_clear()
    report = ex.verify_lemma_4_2(cfg=cfg)
    assert "critical_exponent_bracket" in report.extras
    assert strata_cache.cache_info().misses == len(grid.ks())
