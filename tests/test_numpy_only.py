"""The package runs on numpy alone: its closed forms and tables against
scipy, which the tests keep as an oracle, and an import that loads no scipy."""

import subprocess
import sys

import numpy as np
import pytest
from scipy.special import betainc, roots_legendre

from hardylab import geometry as geo
from hardylab import quadrature as quad


def test_cli_import_loads_no_scipy():
    code = ("import sys, hardylab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("m", [8, 10])
def test_gauss_legendre_tables_are_scipys(m):
    x, w = quad._gl(m)
    ref_x, ref_w = roots_legendre(m)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


# the bands the rules draw from: the ring strata at several scales, and caps
# whose edges lie near 0 and 1
RING_EDGES = [(1.0 + quad._ring_t_edges(d_star)) / 2.0 for d_star in (1e-9, 1e-3, 0.5)]
END_BANDS = np.array([(0.0, 1e-12), (1e-12, 1e-6), (0.0, 0.3), (0.3, 1.0),
                      (0.5, 0.75), (0.75, 1.0), (1.0 - 1e-6, 1.0 - 1e-12),
                      (1.0 - 1e-12, 1.0), (0.0, 1.0)])
U1 = np.concatenate([u[:-1] for u in RING_EDGES] + [END_BANDS[:, 0]])
U2 = np.concatenate([u[1:] for u in RING_EDGES] + [END_BANDS[:, 1]])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_band_masses_match_betainc(n):
    a = (2 * n - 1) / 2.0
    lo, hi, upper = quad._band_cdf(a, U1, U2)
    assert upper.any() and not upper.all()  # both the head and the tail branch
    ref = np.where(upper, betainc(a, a, 1.0 - U1) - betainc(a, a, 1.0 - U2),
                   betainc(a, a, U2) - betainc(a, a, U1))
    assert np.all(ref > 0)
    np.testing.assert_allclose(hi - lo, ref, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_beta_cdf_matches_betainc(n):
    a = (2 * n - 1) / 2.0
    x = np.concatenate([np.linspace(0.0, 1.0, 1001), 2.0 ** -np.arange(1.0, 60.0),
                        1.0 - 2.0 ** -np.arange(1.0, 53.0),
                        np.random.Generator(np.random.Philox(key=[3, n])).random(2000)])
    np.testing.assert_allclose(quad._beta_cdf(a, x), betainc(a, a, x),
                               rtol=4e-15, atol=0.0)


DOMAINS = [geo.parse_domain("ball:n=2"), geo.parse_domain("ellipsoid:a=1,2"),
           geo.parse_domain("warped:base=ellipsoid:a=1,2;u=x1")]


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.describe())
def test_boundary_sequence_is_a_seeded_prefix_sequence(domain):
    w = geo.boundary_dense_sequence(domain, 64, seed=7)
    assert np.array_equal(w, geo.boundary_dense_sequence(domain, 64, seed=7))
    assert not np.any(np.isclose(w, geo.boundary_dense_sequence(domain, 64, seed=8)))
    for k in (1, 10, 33):
        assert np.array_equal(geo.boundary_dense_sequence(domain, k, seed=7), w[:k])
