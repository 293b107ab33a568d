"""Per-layer tracing from outside the program.

The tracer replaces functions with timing wrappers at the names the
calling modules look up (``extremctl.pipeline.map_frame``,
``extremctl.cli.calibrate_chain``, ``PlanarChain.accel`` ...), keeps the
span statistics in memory, and puts every original back on exit. A
wrapper only counts and times: it passes arguments and results through
untouched, so traced outputs equal untraced ones byte for byte.

A span's self time is its duration minus the durations of the wrapped
spans it directly contains.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list] = defaultdict(list)
        self.active = False
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time every call of owner.attr under `name`. The optional hooks
        `before(tracer, args, kwargs)` and `after(tracer, args, kwargs,
        result)` add counts; they run outside the span."""
        original = getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            tracer._stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dur
                tracer.calls[name] += 1
                tracer.durations[name].append(dur)
                tracer.self_s[name] += dur - child
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        install(self)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self.restore()

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def p50(self, name: str) -> float:
        d = self.durations.get(name)
        return float(np.median(d)) if d else 0.0


# ------------------------------------------------------------------ hooks


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _mailbox_write(tracer, args, kwargs):
    # Counts the defect from the outside: a write whose seq is below the
    # seq of the frame the mailbox already holds.
    stored = getattr(args[0], "_frame", None)
    frame = _arg(args, kwargs, 1, "frame")
    if stored is not None and frame.seq < stored.seq:
        tracer.counts["wire.mailbox_regressions"] += 1


def _encoded(tracer, args, kwargs, result):
    tracer.counts["wire.bytes"] += len(result)


def _decoded(tracer, args, kwargs):
    tracer.counts["wire.bytes"] += len(_arg(args, kwargs, 0, "buf"))


def _pipeline_record(tracer, args, kwargs, result):
    tracer.counts["pipeline.frames_emitted"] += result.frames_emitted
    tracer.counts["pipeline.frames_consumed"] += len(result.consumed)
    tracer.values["pipeline.staleness_ns"].extend(result.staleness_ns)


def _lag_candidates(tracer, args, kwargs):
    rate = _arg(args, kwargs, 0, "a").rate_hz
    max_lag = _arg(args, kwargs, 2, "max_lag_s", 1.0)
    tracer.counts["latency.lag_candidates"] += 2 * int(round(max_lag * rate)) + 1


def _calibration(tracer, args, kwargs, result):
    tracer.counts["impedance.sweeps_run"] += result.sweeps_run


def _bytes_read(tracer, args, kwargs):
    tracer.counts["fileio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bytes_written(tracer, args, kwargs, result):
    tracer.counts["fileio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def install(tracer: Tracer) -> None:
    """Wrap each layer at the names its callers use."""
    from extremctl import cli, fileio, impedance, latency, mapping, pipeline, plant, se3, wire

    w = tracer.wrap
    # pipeline
    w(cli, "run_pipeline", "pipeline.run", after=_pipeline_record)
    w(cli, "latency_budget", "pipeline.budget")
    # wire: the pipeline's own bindings, plus the module for direct callers
    for mod in (pipeline, wire):
        w(mod, "encode_frame", "wire.encode", after=_encoded)
        w(mod, "decode_frame", "wire.decode", before=_decoded)
    w(wire.LatestValueMailbox, "write", "wire.mailbox_write", before=_mailbox_write)
    # mapping / se3
    for mod in (pipeline, cli, mapping):
        w(mod, "map_frame", "mapping.map_frame")
    w(se3.Rotation, "apply", "se3.rotation_apply")
    w(se3.Rotation, "compose", "se3.rotation_compose")
    # plant
    w(pipeline, "step", "plant.step")
    w(plant.PlanarChain, "accel", "plant.chain_accel")
    w(plant.PlanarChain, "mass_matrix", "plant.chain_mass_matrix")
    # impedance
    for mod in (cli, impedance):
        w(mod, "calibrate_chain", "impedance.calibrate_chain", after=_calibration)
    w(impedance, "_measure_periods_batched", "impedance.probe")
    # latency
    w(latency, "block_match_flow", "latency.block_match")
    for mod in (pipeline, latency):
        w(mod, "estimate_lag", "latency.estimate_lag", before=_lag_candidates)
    # fileio (cli reaches these through the fileio module)
    w(fileio, "read_pgm", "fileio.read_pgm", before=_bytes_read)
    w(fileio, "read_frame_dir", "fileio.read_frames")
    w(fileio, "read_linkset_jsonl", "fileio.read_jsonl", before=_bytes_read)
    w(fileio, "load_json", "fileio.load_json", before=_bytes_read)
    w(fileio, "write_linkset_jsonl", "fileio.write_jsonl", after=_bytes_written)
    w(fileio, "dump_json", "fileio.dump_json", after=_bytes_written)


# Per-layer metrics: name -> unit. Times and counts are per traced round.
PER_LAYER = {
    "pipeline.run_self_s": "s",
    "pipeline.budget_s": "s",
    "pipeline.frames_emitted": "count",
    "pipeline.frames_consumed": "count",
    "pipeline.consume_ratio": "ratio",
    "pipeline.staleness_ms_p50": "ms",
    "pipeline.staleness_ms_max": "ms",
    "wire.encode_us_p50": "us",
    "wire.decode_us_p50": "us",
    "wire.encode_calls": "count",
    "wire.decode_calls": "count",
    "wire.bytes": "bytes",
    "wire.mailbox_regressions": "count",
    "mapping.map_frame_us_p50": "us",
    "mapping.map_frame_calls": "count",
    "mapping.share": "ratio",
    "se3.rotation_apply_calls": "count",
    "se3.rotation_compose_calls": "count",
    "se3.s": "s",
    "plant.step_us_p50": "us",
    "plant.step_calls": "count",
    "plant.chain_accel_calls": "count",
    "plant.chain_mass_matrix_calls": "count",
    "plant.chain_s": "s",
    "impedance.self_s": "s",
    "impedance.probes": "count",
    "impedance.sweeps_run": "count",
    "latency.block_match_ms_p50": "ms",
    "latency.block_match_calls": "count",
    "latency.estimate_lag_ms_p50": "ms",
    "latency.estimate_lag_calls": "count",
    "latency.lag_candidates": "count",
    "fileio.read_frames_s": "s",
    "fileio.read_jsonl_s": "s",
    "fileio.write_jsonl_s": "s",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, rounds: int, traced_wall_s: float) -> dict:
    """Per-round layer metrics from `rounds` traced rounds that together
    took `traced_wall_s`. trace.overhead_s is filled in by the caller."""
    t, c = tracer, tracer.counts
    per = 1.0 / max(rounds, 1)
    staleness = np.asarray(t.values.get("pipeline.staleness_ns", []), dtype=float) * 1e-6
    chain_s = t.total("plant.chain_accel") + t.total("plant.chain_mass_matrix")
    emitted = c["pipeline.frames_emitted"]
    return {
        "pipeline.run_self_s": t.self_s["pipeline.run"] * per,
        "pipeline.budget_s": t.total("pipeline.budget") * per,
        "pipeline.frames_emitted": emitted * per,
        "pipeline.frames_consumed": c["pipeline.frames_consumed"] * per,
        "pipeline.consume_ratio": c["pipeline.frames_consumed"] / emitted if emitted else 0.0,
        "pipeline.staleness_ms_p50": float(np.median(staleness)) if staleness.size else 0.0,
        "pipeline.staleness_ms_max": float(staleness.max()) if staleness.size else 0.0,
        "wire.encode_us_p50": t.p50("wire.encode") * 1e6,
        "wire.decode_us_p50": t.p50("wire.decode") * 1e6,
        "wire.encode_calls": t.calls["wire.encode"] * per,
        "wire.decode_calls": t.calls["wire.decode"] * per,
        "wire.bytes": c["wire.bytes"] * per,
        "wire.mailbox_regressions": c["wire.mailbox_regressions"] * per,
        "mapping.map_frame_us_p50": t.p50("mapping.map_frame") * 1e6,
        "mapping.map_frame_calls": t.calls["mapping.map_frame"] * per,
        "mapping.share": t.total("mapping.map_frame") / traced_wall_s if traced_wall_s else 0.0,
        "se3.rotation_apply_calls": t.calls["se3.rotation_apply"] * per,
        "se3.rotation_compose_calls": t.calls["se3.rotation_compose"] * per,
        "se3.s": (t.total("se3.rotation_apply") + t.total("se3.rotation_compose")) * per,
        "plant.step_us_p50": t.p50("plant.step") * 1e6,
        "plant.step_calls": t.calls["plant.step"] * per,
        "plant.chain_accel_calls": t.calls["plant.chain_accel"] * per,
        "plant.chain_mass_matrix_calls": t.calls["plant.chain_mass_matrix"] * per,
        "plant.chain_s": chain_s * per,
        "impedance.self_s": (t.total("impedance.calibrate_chain") - chain_s) * per,
        "impedance.probes": t.calls["impedance.probe"] * per,
        "impedance.sweeps_run": c["impedance.sweeps_run"] * per,
        "latency.block_match_ms_p50": t.p50("latency.block_match") * 1e3,
        "latency.block_match_calls": t.calls["latency.block_match"] * per,
        "latency.estimate_lag_ms_p50": t.p50("latency.estimate_lag") * 1e3,
        "latency.estimate_lag_calls": t.calls["latency.estimate_lag"] * per,
        "latency.lag_candidates": c["latency.lag_candidates"] * per,
        "fileio.read_frames_s": t.total("fileio.read_frames") * per,
        "fileio.read_jsonl_s": t.total("fileio.read_jsonl") * per,
        # self time: `extremctl map` streams map_frame through the writer
        "fileio.write_jsonl_s": t.self_s["fileio.write_jsonl"] * per,
        "fileio.bytes_read": c["fileio.bytes_read"] * per,
        "fileio.bytes_written": c["fileio.bytes_written"] * per,
    }
