"""End-to-end harness: seeded determinism, transport bookkeeping,
latency accounting and config validation, and bit-for-bit agreement of
the per-control-tick transport with a reference copy of the former loop
over every physics step."""

import heapq
from dataclasses import fields, replace

import numpy as np
import pytest

from extremctl import pipeline
from extremctl.mapping import LINKS, LinkSet, map_frame
from extremctl.pipeline import (
    ConfigInvalid,
    ConsumedFrame,
    InsufficientPoints,
    MotionSpec,
    PipelineConfig,
    PipelineRecord,
    default_human_neutral,
    fit_latency_line,
    latency_budget,
    run_pipeline,
    run_pipeline_sweep,
)
from extremctl.plant import DecoupledLinear, GainSchedule, NumericalBlowup, held_joint_q
from extremctl.wire import LatestValueMailbox, PoseFrame, decode_frame, encode_frame


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


def test_config_and_motion_refuse_bools_strings_and_float_axes():
    """Values a JSON config can hold that are not the numbers the fields
    take: a bool is not a number, and an axis must be an int."""
    for field in ("omega_n", "duration_s", "drop_prob"):
        with pytest.raises(ConfigInvalid, match=f"^{field} True must be a finite number"):
            PipelineConfig(**{field: True})
        with pytest.raises(ConfigInvalid, match=f"^{field} '1' must be a finite number"):
            PipelineConfig(**{field: "1"})
    for axis in (True, 2.0, 2.7, "2"):
        with pytest.raises(ValueError, match=f"^axis {axis!r} must be the integer 0, 1 or 2"):
            MotionSpec.from_dict({"axis": axis})
    with pytest.raises(ValueError, match="^amplitude_m '0.1' must be a finite number"):
        MotionSpec.from_dict({"amplitude_m": "0.1"})
    with pytest.raises(ValueError, match="^link 2 not one of"):
        MotionSpec.from_dict({"link": 2})
    assert MotionSpec.from_dict({"axis": 0, "amplitude_m": 1}) == MotionSpec(amplitude_m=1, axis=0)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_line_refuses_non_finite_entries_naming_them(bad):
    with pytest.raises(ValueError, match="^control_ms .* must be finite numbers$"):
        fit_latency_line([10.0, bad, 30.0], [20.0, 30.0, 40.0])
    with pytest.raises(ValueError, match="^overall_ms .* must be finite numbers$"):
        fit_latency_line([10.0, 20.0, 30.0], [20.0, 30.0, bad])


class LoggingMailbox(LatestValueMailbox):
    """A mailbox that logs the seq of every frame written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def write(self, frame) -> None:
        self.log.append(frame.seq)
        super().write(frame)


def reference_transport(config, n_steps, substeps, mailbox):
    """The former phase 1, kept as the reference: it steps the virtual
    clock through every physics step and reads the mailbox at every
    control tick."""
    rng = np.random.default_rng(config.seed)
    profile = config.resolve_profile()
    motion = config.motion
    row, axis = LINKS.index(motion.link), motion.axis
    neutral = default_human_neutral()
    human = neutral.array.copy()
    base = float(human[row, axis])
    neutral_target = map_frame(profile, neutral).array[row, axis]
    dt = 1.0 / config.lowlevel_rate_hz
    control_dt = substeps * dt
    capture_dt = 1.0 / config.capture_rate_hz
    next_capture = 0.0
    seq = 0
    deliveries = []
    consumed, staleness, q_ticks, qdot_ticks = [], [], [], []
    prev_target = 0.0
    last_seq_used = -1
    t_axis = np.empty(n_steps)
    rec_human = np.empty(n_steps)
    for k in range(n_steps):
        t = k * dt
        while next_capture <= t + 1e-12:
            human[row, axis] = base + motion.displacement(next_capture)
            frame = PoseFrame(
                seq=seq,
                timestamp_ns=int(round(next_capture * 1e9)),
                links=LinkSet.from_array(human),
            )
            payload = encode_frame(frame)
            jitter = config.jitter_std_s * float(rng.standard_normal())
            delay = max(0.0, config.network_delay_s + jitter)
            dropped = float(rng.random()) < config.drop_prob
            if not dropped:
                heapq.heappush(deliveries, (next_capture + delay, seq, payload))
            seq += 1
            next_capture += capture_dt
        while deliveries and deliveries[0][0] <= t + 1e-12:
            _, _, payload = heapq.heappop(deliveries)
            mailbox.write(decode_frame(payload))
        if k % substeps == 0:
            now_ns = int(round(t * 1e9))
            result = mailbox.read(now_ns)
            target = prev_target
            if result.frame is not None:
                pos = map_frame(profile, result.frame.links).array[row, axis]
                target = float(config.target_scale * (pos - neutral_target))
                if result.frame.seq != last_seq_used:
                    consumed.append(
                        ConsumedFrame(result.frame.seq, result.frame.timestamp_ns, now_ns)
                    )
                    last_seq_used = result.frame.seq
                staleness.append(result.staleness_ns)
            q_ticks.append(target)
            qdot_ticks.append((target - prev_target) / control_dt)
            prev_target = target
        t_post = t + dt
        t_axis[k] = t_post
        rec_human[k] = motion.displacement(t_post)
    return (t_axis, rec_human, np.array(q_ticks)[:, None], np.array(qdot_ticks)[:, None],
            consumed, staleness, seq)


def reference_sweep(config, etas, mailbox):
    """The former run_pipeline_sweep over reference_transport."""
    dt = 1.0 / config.lowlevel_rate_hz
    substeps = int(round(config.lowlevel_rate_hz / config.control_rate_hz))
    n_steps = int(round(config.duration_s * config.lowlevel_rate_hz))
    plant = DecoupledLinear(inertia=np.array([config.plant_inertia]), physics_dt=dt)
    t, human, q_ticks, qdot_ticks, consumed, staleness, emitted = reference_transport(
        config, n_steps, substeps, mailbox
    )
    for eta in etas:
        c = replace(config, eta=eta)
        g = GainSchedule.from_impedance(m_eff=plant.inertia, omega_n=c.omega_n, zeta=c.zeta,
                                        eta=c.eta)
        yield PipelineRecord(
            t=t,
            human_signal=human,
            q_target_held=np.repeat(q_ticks[:, 0], substeps)[:n_steps],
            q=held_joint_q(plant, g, q_ticks, qdot_ticks, substeps, n_steps)[:, 0],
            consumed=list(consumed),
            staleness_ns=list(staleness),
            frames_emitted=emitted,
            config=c,
        )


EDGE = dict(duration_s=5.0, seed=4)


@pytest.mark.parametrize("config", [
    PipelineConfig(**EDGE),  # no delay, no jitter, no drops
    PipelineConfig(**EDGE, capture_rate_hz=50.0),
    # jitter four times the delay reorders frames on the wire
    PipelineConfig(**EDGE, capture_rate_hz=1000.0, network_delay_s=0.005, jitter_std_s=0.02),
    PipelineConfig(**EDGE, capture_rate_hz=33.0, control_rate_hz=40.0, jitter_std_s=0.05,
                   drop_prob=0.3),
    PipelineConfig(**EDGE, control_rate_hz=1000.0, network_delay_s=0.0331),  # one substep
    # the benchmark's network config
    PipelineConfig(network_delay_s=0.010, jitter_std_s=0.004, drop_prob=0.02, duration_s=12.0,
                   seed=1),
    PipelineConfig(duration_s=2.0, seed=4, network_delay_s=5.0),  # nothing is delivered
    PipelineConfig(**EDGE, drop_prob=0.99, jitter_std_s=0.03),
    PipelineConfig(duration_s=0.001, seed=4),  # one physics step
], ids=["defaults", "capture-50hz", "reordering", "drops-40hz-control", "one-substep",
        "benchmark-network", "nothing-delivered", "drops-99pct", "one-physics-step"])
def test_transport_per_tick_equals_per_physics_step_reference(config, monkeypatch):
    """Every record field, and every mailbox write in order, equals the
    former per-physics-step loop's, bit for bit."""
    etas = [0.0, 0.9]
    reference_box = LoggingMailbox()
    expected = list(reference_sweep(config, etas, reference_box))
    boxes = []

    def logging_mailbox():
        boxes.append(LoggingMailbox())
        return boxes[-1]

    monkeypatch.setattr(pipeline, "LatestValueMailbox", logging_mailbox)
    got = list(run_pipeline_sweep(config, etas))
    assert len(boxes) == 1 and boxes[0].log == reference_box.log
    assert len(got) == len(expected) == 2
    for g, e in zip(got, expected):
        for f in fields(PipelineRecord):
            a, b = getattr(g, f.name), getattr(e, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name
