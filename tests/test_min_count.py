"""Every Monte Carlo rule refuses fewer than MIN_COUNT nodes with a typed
error, rather than reporting a one-node estimate or a NaN error bar."""

import numpy as np
import pytest

from hardylab import quadrature as quad

E1 = (1.0 + 0j, 0j)
ONE = lambda Z: np.ones(len(Z))  # noqa: E731

RULES = {
    "sphere": lambda m: quad.integrate_sphere(ONE, 2, m),
    "sphere-importance": lambda m: quad.integrate_sphere_importance(
        ONE, 2, [E1], 0.1, m),
    "cap": lambda m: quad.integrate_cap(ONE, E1, 0.5, 2, count=m),
    "cap-complement": lambda m: quad.integrate_cap(ONE, E1, 0.5, 2, count=m,
                                                   complement=True),
    "parametrized": lambda m: quad.parametrized_level_sampler(
        (1.0, 2.0), 0.1, m, 7).integrate(ONE),
    "parametrized-strata": lambda m: quad.parametrized_level_sampler(
        (1.0, 2.0), 0.1, m, 7, singular_center=E1).integrate(ONE),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [0, 1, quad.MIN_COUNT - 1])
@pytest.mark.parametrize("rule", sorted(RULES))
def test_counts_below_the_minimum_are_refused(rule, count):
    with pytest.raises(quad.QuadratureError, match=f">= {quad.MIN_COUNT}"):
        RULES[rule](count)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rule", sorted(RULES))
def test_the_minimum_count_is_accepted(rule):
    est = RULES[rule](quad.MIN_COUNT)
    assert np.isfinite(est.value) and np.isfinite(est.stderr)
