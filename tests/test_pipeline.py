"""End-to-end harness: seeded determinism, transport bookkeeping,
latency accounting and config validation."""

from dataclasses import replace

import numpy as np
import pytest

from extremctl.pipeline import (
    ConfigInvalid,
    InsufficientPoints,
    MotionSpec,
    PipelineConfig,
    fit_latency_line,
    latency_budget,
    run_pipeline,
    run_pipeline_sweep,
)
from extremctl.plant import NumericalBlowup


def test_same_seed_same_run():
    cfg = PipelineConfig(duration_s=6.0, seed=3, jitter_std_s=0.002, drop_prob=0.1)
    a = run_pipeline(cfg)
    b = run_pipeline(cfg)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.q_target_held, b.q_target_held)
    assert np.array_equal(a.human_signal, b.human_signal)
    assert [c.seq for c in a.consumed] == [c.seq for c in b.consumed]
    assert a.staleness_ns == b.staleness_ns


def test_sweep_equals_one_run_per_eta():
    """run_pipeline_sweep simulates the transport once; each record must
    still equal a full run at its eta, field for field."""
    cfg = PipelineConfig(duration_s=6.0, seed=3, jitter_std_s=0.004, drop_prob=0.05,
                         network_delay_s=0.01)
    etas = [0.0, 0.5, 0.9, 1.0]
    for eta, swept in zip(etas, run_pipeline_sweep(cfg, etas)):
        single = run_pipeline(replace(cfg, eta=eta))
        assert swept.config == single.config == replace(cfg, eta=eta)
        for name in ("t", "human_signal", "q_target_held", "q"):
            assert np.array_equal(getattr(swept, name), getattr(single, name)), name
        assert swept.consumed == single.consumed
        assert swept.staleness_ns == single.staleness_ns
        assert swept.frames_emitted == single.frames_emitted
    with pytest.raises(ConfigInvalid):
        next(run_pipeline_sweep(cfg, [0.5, 1.5]))


def test_plant_blowup_still_raises():
    with pytest.raises(NumericalBlowup, match=r"\|qdot\| exceeded 1e\+06 rad/s"):
        run_pipeline(PipelineConfig(duration_s=3.0, omega_n=4000.0))
    with np.errstate(over="ignore"), pytest.raises(NumericalBlowup, match="non-finite"):
        run_pipeline(PipelineConfig(duration_s=1.0, omega_n=1e160, eta=0.5))


def test_staleness_bounded_by_capture_cycle():
    rec = run_pipeline(PipelineConfig(duration_s=6.0, seed=3))
    worst_s = max(rec.staleness_ns) * 1e-9
    assert worst_s <= 1.0 / rec.config.capture_rate_hz + 1e-3


def test_consumed_sequence_monotonic():
    rec = run_pipeline(PipelineConfig(duration_s=6.0, seed=5, jitter_std_s=0.003))
    seqs = [c.seq for c in rec.consumed]
    assert all(b > a for a, b in zip(seqs, seqs[1:]))


def test_emitted_frame_count():
    rec = run_pipeline(PipelineConfig(duration_s=6.0, seed=0))
    assert rec.frames_emitted == int(6.0 * 120.0)


def test_budget_components_account_for_overall():
    rec = run_pipeline(PipelineConfig(duration_s=6.0, seed=3))
    budget = latency_budget(rec)
    assert budget.hold_ms == 10.0
    assert budget.transport_ms == pytest.approx(3.33, abs=0.5)
    gap = abs(budget.components_sum_ms - budget.overall_ms) / budget.overall_ms
    assert gap < 0.25
    assert budget.control_confidence > 0.95
    assert budget.overall_confidence > 0.95


def test_injected_network_delay_shows_up_whole():
    base = latency_budget(run_pipeline(PipelineConfig(duration_s=6.0, seed=3)))
    slow = latency_budget(
        run_pipeline(PipelineConfig(duration_s=6.0, seed=3, network_delay_s=0.03))
    )
    assert slow.transport_ms - base.transport_ms == pytest.approx(30.0, abs=1.0)
    assert slow.overall_ms - base.overall_ms == pytest.approx(30.0, abs=2.0)


def test_drops_thin_the_consumed_stream():
    intact = run_pipeline(PipelineConfig(duration_s=6.0, seed=3))
    lossy = run_pipeline(PipelineConfig(duration_s=6.0, seed=3, drop_prob=0.5))
    assert len(lossy.consumed) < len(intact.consumed)
    assert latency_budget(lossy).overall_confidence > 0.9


def test_budget_needs_enough_record():
    with pytest.raises(ValueError):
        latency_budget(run_pipeline(PipelineConfig(duration_s=3.0, seed=0)))


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        PipelineConfig(control_rate_hz=0.0)
    with pytest.raises(ConfigInvalid):
        PipelineConfig(lowlevel_rate_hz=990.0)  # not a multiple of 50 Hz
    with pytest.raises(ConfigInvalid):
        PipelineConfig(drop_prob=1.0)
    with pytest.raises(ConfigInvalid):
        PipelineConfig(eta=1.5)
    with pytest.raises(ConfigInvalid):
        PipelineConfig(network_delay_s=-0.1)
    with pytest.raises(ConfigInvalid, match="zeta -1.0 must be non-negative"):
        PipelineConfig(zeta=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("capture_rate_hz", float("inf")),
        ("control_rate_hz", float("nan")),
        ("network_delay_s", float("nan")),
        ("jitter_std_s", float("inf")),
        ("drop_prob", float("nan")),
        ("duration_s", float("inf")),
        ("omega_n", float("inf")),
        ("zeta", float("nan")),
        ("eta", float("nan")),
        ("plant_inertia", float("nan")),
        ("target_scale", float("nan")),
        ("target_scale", None),
    ],
)
def test_config_refuses_non_finite_field_naming_it(field, value):
    with pytest.raises(ConfigInvalid, match=f"^{field} {value!r} must be a finite number"):
        PipelineConfig(**{field: value})


def test_config_round_trip():
    cfg = PipelineConfig(
        duration_s=6.0,
        seed=3,
        network_delay_s=0.01,
        motion=MotionSpec(amplitude_m=0.1, frequency_hz=0.4, axis=2),
    )
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_motion_spec_validation():
    with pytest.raises(ValueError):
        MotionSpec(amplitude_m=0.0)
    with pytest.raises(ValueError):
        MotionSpec(axis=3)
    with pytest.raises(ValueError, match="link 'foo' not one of"):
        MotionSpec(link="foo")
    for field in ("amplitude_m", "frequency_hz"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{field} {value!r} must be a finite number"):
                MotionSpec(**{field: value})
    with pytest.raises(ValueError, match="link 'foo'"):
        PipelineConfig.from_dict({"motion": {"link": "foo"}})


def test_fit_line_recovers_exact_relation():
    x = np.array([10.0, 20.0, 30.0, 40.0])
    fit = fit_latency_line(x, 0.6 * x + 20.0)
    assert fit.slope == pytest.approx(0.6, abs=1e-9)
    assert fit.intercept_ms == pytest.approx(20.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InsufficientPoints):
        fit_latency_line([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_latency_line([1.0, 2.0, 3.0], [1.0, 2.0])
