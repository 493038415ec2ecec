"""The benchmark's spans wrap entry points by replacing module and class
attributes at run time (perfbench/spans.py).  A refactor that calls a local
alias instead would silently empty its per-layer metrics; this keeps every
wrapped rule on the call path of each golden point integral."""

import importlib
from pathlib import Path

import pytest
from test_reduction import GOLDEN

from hardylab import geometry, norms, quadrature

# (owner, attribute, name) of every wrapped rule entry point
ENTRY_POINTS = [
    (geometry, "level_set_sampler", "level_set_sampler"),
    (quadrature, "integrate_level_set", "integrate_level_set"),
    (quadrature.SurfaceSampler, "integrate", "SurfaceSampler.integrate"),
    *[(quadrature, name, name) for name in (
        "integrate_sphere", "integrate_sphere_importance", "integrate_cap",
        "integrate_zonal", "integrate_real_zonal")],
]
LEVEL = ("level_set_sampler", "integrate_level_set", "SurfaceSampler.integrate")

# golden case -> the entry points its point integral calls, once each
EXPECTED = {
    "zonal": ("integrate_zonal",),
    "zonal-cap": ("integrate_zonal",),
    "zonal-complement": ("integrate_zonal",),
    "zonal-level": ("integrate_zonal",),
    "chart-level": ("integrate_zonal",),
    "chart-restricted": ("integrate_zonal",),
    "real-zonal": ("integrate_real_zonal",),
    "exact-empty": ("integrate_real_zonal",),
    "mc-sphere": ("integrate_sphere",),
    "mc-importance": ("integrate_sphere_importance",),
    "mc-importance-cap": ("integrate_sphere_importance",),
    "mc-cap": ("integrate_cap",),
    "parametrized": LEVEL,
    "parametrized-unstratified": LEVEL,
    "thin-shell": LEVEL,
    "parametrized-restricted": LEVEL,
    "thin-shell-restricted": LEVEL,
}


def test_every_golden_case_has_expected_entry_points():
    assert set(EXPECTED) == set(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_wrapped_entry_points_are_called(name, monkeypatch):
    calls = []
    for owner, attr, label in ENTRY_POINTS:
        original = owner.__dict__[attr]

        def wrapper(*args, _original=original, _label=label, **kwargs):
            calls.append(_label)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
    fspec, p, surface, x, cfg, *_ = GOLDEN[name]
    norms.point_integral(fspec, p, surface, x, cfg, k=3)
    assert sorted(calls) == sorted(EXPECTED[name])


def test_every_golden_method_has_a_perfbench_key(monkeypatch):
    # a traced pass counts each point integral under norms.method.<method>,
    # a key spans.METHODS makes: any other method raises KeyError there
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    assert {case[5] for case in GOLDEN.values()} <= set(spans.METHODS)
