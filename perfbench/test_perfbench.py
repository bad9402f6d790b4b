"""Self-tests of the benchmark: its checks, its seeding and its tracer.

    python3 -m pytest perfbench
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import radon_hgf as rh  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def pools():
    return {name: wl.build(name, 5) for name in wl.WORKLOADS}


def _nan_estimate():
    return rh.IntegralEstimate(complex(math.nan, math.nan), math.nan, "haar-mc", 1)


def test_reference_perturbed_by_1e6_fails_its_op(pools):
    checked = 0
    for op in pools["orbit-eval"].cycles[0]:
        if op.invalid:
            continue
        outcome = wl.execute(op)
        if outcome.failure is not None:
            assert wl.is_baseline(outcome), op.kind
            continue
        bad = dataclasses.replace(op, ref=op.ref * (1 + 1e-6))
        assert wl.execute(bad).failure == "reference", op.kind
        checked += 1
    assert checked >= 15


def test_nan_result_counts_as_failed(pools):
    mc = pools["mc-r2"].warmup[0]
    assert wl.execute(dataclasses.replace(mc, call=_nan_estimate)).failure == "nonfinite"

    orbit = pools["orbit-eval"].cycles[0][0]

    def nan_value():
        out, _ = orbit.call()
        return out, _nan_estimate()

    assert wl.execute(dataclasses.replace(orbit, call=nan_value)).failure == "nonfinite"

    pde = pools["pde-r1"].cycles[0][0]
    row = {"residual": [math.nan, 0.0], "scale": 1.0, "relative": math.nan}
    nan_report = dataclasses.replace(pde, call=lambda: {"pairs": [row], "pass": False})
    assert wl.execute(nan_report).failure == "nonfinite"


def test_untyped_error_on_invalid_input_fails(pools):
    invalid = next(op for op in pools["orbit-eval"].cycles[0] if op.invalid)

    def untyped():
        raise OverflowError("overflow")

    def typed():
        raise rh.errors.DivergentEndpoint("divergent")

    assert wl.execute(dataclasses.replace(invalid, call=untyped)).failure == "OverflowError"
    assert wl.execute(dataclasses.replace(invalid, call=typed)).failure is None


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name, pools):
    again = wl.build(name, 5)
    assert wl.fingerprint(again) == wl.fingerprint(pools[name])
    assert wl.fingerprint(wl.build(name, 6)) != wl.fingerprint(pools[name])


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_and_untraced_runs_agree(name, pools):
    # the warm-up cycle runs every op kind, Monte Carlo at a reduced size
    ops = pools[name].warmup
    plain = [wl.execute(op) for op in ops]
    with tracer.Tracer() as t:
        seen = [wl.execute(op) for op in ops]
    assert [(o.summary, o.failure) for o in seen] == [(o.summary, o.failure) for o in plain]
    assert t.stats and not t.absent
    assert rh.radon_hgf is rh.integrate.radon_hgf
    assert not hasattr(rh.integrate.radon_hgf, "__wrapped__")


def test_removed_patch_point_is_reported_absent(monkeypatch):
    points = tracer.SPANS + (
        ("radon_hgf.integrate", "tensor_grid_sum", "integrate.tensor_grid_sum"),
        ("radon_hgf.no_such_module", "f", "no_such_module.f"),
    )
    monkeypatch.setattr(tracer, "SPANS", points)
    with tracer.Tracer() as t:
        wl.execute(wl.build("orbit-eval", 5).warmup[0])
    assert t.absent == ["integrate.tensor_grid_sum", "no_such_module.f"]
    assert t.stats["integrate.radon_hgf"][0] == 1


def test_reduction_failure_is_baseline_on_orbit_kinds_only():
    def outcome(kind, failure):
        return wl.Outcome(kind, 0.0, 0.0, failure, {}, failure)

    assert wl.is_baseline(outcome("r1-(3,1)-full-line", "DegenerateOrbit"))
    assert wl.is_baseline(outcome("r4-(1,1,1,1)", "DegenerateOrbit"))
    assert not wl.is_baseline(outcome("chart-orbit-(2,1,1)", "DegenerateOrbit"))
    assert not wl.is_baseline(outcome("pde-(2,2)", "DegenerateOrbit"))
    assert not wl.is_baseline(outcome("r1-(3,1)-full-line", "OverflowError"))
