import itertools

import numpy as np
import pytest

import spans
from spans import Span, Tracer, layer_metrics, repeat_fraction, self_times


def ticks():
    """A clock advancing by one per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


def test_self_time_of_nested_spans():
    spans_ = [Span(0, "cli.run", None, 0, 0.0, 10.0),
              Span(1, "norms.scan", 0, 0, 1.0, 4.0),
              Span(2, "norms.classify", 0, 0, 5.0, 9.0),
              Span(3, "functions.evaluate", 2, 0, 6.0, 8.0)]
    own = self_times(spans_)
    assert own == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    assert sum(own.values()) == spans_[0].duration


def test_recursive_spans_count_points_at_the_outermost_call():
    tracer = Tracer(clock=ticks())

    def evaluate(spec, Z):
        if spec:
            return sum(traced(s, Z) for s in spec)
        return np.zeros(np.shape(Z)[:-1])

    traced = tracer.wrap(evaluate, "functions.evaluate",
                         spans._evaluate_hook)
    traced([[], [[]]], np.zeros((7, 2)))
    names = [s.name for s in tracer.spans]
    assert names == ["functions.evaluate"] * 4
    assert [s.outermost for s in tracer.spans] == [True, False, False, False]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert tracer.spans[0].counts == {"points": 7}
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration)
    m = layer_metrics(tracer.spans, wall_s=20.0, zonal_misses=0)
    assert m["functions.evaluate.points"] == 7
    assert m["functions.evaluate.self_s"] == tracer.spans[0].duration
    assert m["other.self_s"] == 20.0 - tracer.spans[0].duration


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=ticks())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "norms.scan")()
    assert tracer._stack == []
    assert tracer.spans[0].duration == 1.0


def test_repeat_fraction_counts_keys_seen_at_another_exponent():
    items = [("a", 1.0), ("a", 2.0), ("b", 1.0), ("a", 2.0), ("b", 1.0)]
    # ("a", 2.0) twice repeats "a" at p=1; ("b", 1.0) again is the same p
    assert repeat_fraction(items) == pytest.approx(2 / 5)
    assert repeat_fraction([]) == 0.0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from hardylab import cli, functions, quadrature

    targets = spans.hardylab_targets()
    snap = spans.snapshot(targets)
    original_evaluate = functions.evaluate
    tracer = Tracer()
    tracer.install(targets)
    try:
        assert functions.evaluate is not original_evaluate
        assert spans.unrestored(snap)
        rc = cli.run(["scan", "--f", "cauchy:zeta=1,0", "--p", "2",
                      "--kmin", "2", "--kmax", "7",
                      "--out", str(tmp_path / "scan.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert spans.unrestored(snap) == []
    assert functions.evaluate is original_evaluate
    assert "integrate" in vars(quadrature.SurfaceSampler)

    names = {s.name for s in tracer.spans}
    assert {"cli.run", "norms.scan", "norms.point_integral",
            "quadrature.integrate_zonal", "functions.zonal_eval",
            "norms.classify"} <= names
    m = layer_metrics(tracer.spans, wall_s=100.0, zonal_misses=1)
    assert m["norms.point_integral.calls"] == 6
    assert m["norms.method.zonal"] == 6
    assert m["quadrature.integrate_zonal.calls"] == 6
    assert m["functions.zonal_eval.points"] > 0
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["other.self_s"] == pytest.approx(100.0)
    assert set(m) == set(spans.PER_LAYER)
