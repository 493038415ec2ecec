import pytest


@pytest.fixture(autouse=True)
def fresh_exact_memo():
    """Each test starts as a fresh process does, with no exact point
    integral memoized by ``norms.point_integrals``."""
    from hardylab import norms

    norms._exact_memo.clear()
