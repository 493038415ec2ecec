"""Level-set rules: the per-process strata cache of the parametrized sampler
and the chunked rejection loop of the thin-shell sampler."""

import math

import numpy as np
import pytest

from hardylab import experiments as ex
from hardylab import geometry as geo
from hardylab import norms
from hardylab import quadrature as quad
from hardylab.geometry import grad_norm, rng_stream, to_complex, to_real

ELL = geo.parse_domain("ellipsoid:a=1,2")
WARP = geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")
E1 = np.array([1.0 + 0j, 0j])
strata_cache = quad._sphere_nodes_stratified


def _thin_shell_reference(domain, eps, proposals, seed, h=None, within=None,
                          focus=None):
    """The thin-shell rejection loop as one draw per 2M-row batch: the
    reference the chunked sampler must reproduce bit for bit."""
    h = h if h is not None else eps / 10.0
    b = domain.box_halfwidths()
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
        r = domain.defining.rho(Z)
        mask = np.abs(r + eps) < h
        if mask.any():
            Xa = X[mask]
            Za = Z[mask]
            dens = np.zeros(len(Xa))
            for k in range(K):
                inside = np.all((Xa >= los[k]) & (Xa <= his[k]), axis=1)
                dens += inside / (K * vols[k])
            accepted.append(Za)
            weights.append(grad_norm(domain.defining, Za)
                           / (2.0 * h * proposals * dens))
        remaining -= nb
    return np.concatenate(accepted), np.concatenate(weights)


@pytest.mark.parametrize("domain,eps,proposals,seed,kw", [
    # crosses the 2M batch boundary; neither part is a whole number of chunks
    (WARP, 0.05, 2_000_000 + 3 * quad.SHELL_CHUNK_ROWS + 17, 7, {}),
    (ELL, 0.02, 5 * quad.SHELL_CHUNK_ROWS + 1001, 11, {"focus": E1}),
    (ELL, 0.05, 4 * quad.SHELL_CHUNK_ROWS - 3, 13, {"within": (E1, 0.3)}),
])
def test_thin_shell_chunks_reproduce_the_single_batch_draw(domain, eps, proposals,
                                                           seed, kw):
    pts, w = _thin_shell_reference(domain, eps, proposals, seed, **kw)
    s = quad.thin_shell_sampler(domain, eps, proposals, seed, **kw)
    assert np.array_equal(s.points, pts)
    assert np.array_equal(s.weights, w)
    assert s.count == len(w)
    assert s.proposals == proposals


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
    cfg = norms.QuadConfig(level_count=2_000)
    strata_cache.cache_clear()
    report = ex.verify_lemma_4_2(cfg=cfg, grid=grid)
    assert "critical_exponent_bracket" in report.extras
    assert strata_cache.cache_info().misses == len(grid.ks())
