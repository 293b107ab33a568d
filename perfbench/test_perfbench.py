"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench

They check that every metric is emitted with its unit, that each
correctness check fails on a deliberately corrupted output, and that the
tracer leaves the program as it found it.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from workloads import Sizes

run._import_program()

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    d = run.ROOT / ".perfbench_work" / f"test-{id(object())}"
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def test_benchmark_json_names_the_metrics_the_code_emits():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    record = run.run(name, seed=3, seconds=0.01, trace=bool(trace), sizes=Sizes.tiny())
    assert record["correct"] and record["attempted"] >= 1
    want = tracing.PER_LAYER if trace else {**run.END_TO_END, **run.SPECIFIC[name]}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == want
    for k, m in record["metrics"].items():
        assert isinstance(m["value"], float), k
    if not trace:
        assert all(record["metrics"][k]["value"] > 0 for k in run.END_TO_END)
    elif name == "teleop_sweep":
        # The mailbox defect stays visible under jitter.
        assert record["metrics"]["wire.mailbox_regressions"]["value"] > 0


def test_run_prints_one_json_result_last():
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "video_latency",
         "--seed", "2", "--seconds", "0.01", "--trace", "0", "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    for k, unit in run.END_TO_END.items():
        assert f"{k} " in "\n".join(lines[:-1]) and result["metrics"][k]["unit"] == unit


def test_fails_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "teleop_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_same_seed_same_inputs(workdir):
    payloads = []
    for sub in ("a", "b"):
        (workdir / sub).mkdir()
        w = workloads.CaptureStream(workdir / sub, 7, Sizes.tiny())
        w.generate()
        payloads.append(w.payloads)
        workloads.VideoLatency(workdir / sub, 7, Sizes.tiny()).generate()
    assert payloads[0] == payloads[1]
    for rel in ("capture.jsonl", "neutral.json", "frames_b/f0040.pgm"):
        assert (workdir / "a" / rel).read_bytes() == (workdir / "b" / rel).read_bytes()


# ------------------------------------------------------- corrupted outputs


def test_capture_check_fails_on_a_corrupted_relay_frame(workdir):
    w = workloads.CaptureStream(workdir, 5, Sizes.tiny())
    w.generate()
    w.setup()
    rd = w.round()
    w.check(rd)
    assert rd.failed == 0 and rd.checks == Sizes.tiny().capture_frames
    outs, lines = rd.outputs
    bad = bytearray(outs[3])
    bad[40] ^= 0x01  # low bit of a float in the first link
    rd.outputs = ([*outs[:3], bytes(bad), *outs[4:]], lines)
    w.check(rd)
    assert rd.failed == 1
    bad = bytearray(outs[5])
    bad[17 + 3 * 8 + 6] ^= 0x10  # exponent bit of the pelvis quaternion w
    rd.outputs = ([*outs[:5], bytes(bad), *outs[6:]], lines)
    w.check(rd)
    assert rd.failed == 1


def test_teleop_check_fails_on_a_changed_byte():
    ref = json.dumps({"budgets": [{"overall_ms": 50.0}] * 3}).encode()
    assert workloads.check_teleop(ref, None)
    assert workloads.check_teleop(ref, ref)
    assert not workloads.check_teleop(ref.replace(b"50.0", b"51.0"), ref)


def test_video_check_fails_beyond_one_frame():
    planted_ms = workloads.PLANTED_LAG_FRAMES / workloads.VIDEO_FPS * 1e3
    frame_ms = 1e3 / workloads.VIDEO_FPS
    assert workloads.check_video({"lag_ms": planted_ms + 0.9 * frame_ms})
    assert not workloads.check_video({"lag_ms": planted_ms + 1.1 * frame_ms})


def test_calibration_checks_fail_on_wrong_answers():
    assert workloads.check_inertias([1.0, 2.01, 2.99])
    assert not workloads.check_inertias([1.0, 2.0, 3.1])
    good = json.dumps({"gains": {"kp_nm_per_rad": [1.0, 2.0]}}).encode()
    assert workloads.check_chain(good, None, 2)
    assert not workloads.check_chain(good.replace(b"2.0", b"-2.0"), None, 2)
    assert not workloads.check_chain(good.replace(b"2.0", b"2.5"), good, 2)


# ----------------------------------------------------------------- tracer


def test_tracer_restores_every_wrapped_name_and_keeps_outputs(workdir):
    from extremctl import cli, pipeline, plant, se3, wire

    before = (pipeline.map_frame, cli.run_pipeline, se3.Rotation.apply,
              plant.PlanarChain.accel, wire.LatestValueMailbox.write)
    w = workloads.TeleopSweep(workdir, 4, Sizes.tiny())
    w.generate()
    plain = w.round()
    w.check(plain)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pipeline.map_frame is not before[0]
        traced = w.round()
    w.check(traced)
    assert traced.failed == 0 and traced.outputs == plain.outputs
    assert tracer.calls["pipeline.run"] == 3 and tracer.calls["plant.step"] == 3 * 4500
    after = (pipeline.map_frame, cli.run_pipeline, se3.Rotation.apply,
             plant.PlanarChain.accel, wire.LatestValueMailbox.write)
    assert after == before


def test_self_time_subtracts_wrapped_children():
    import time
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.02)
    mod.outer = lambda: (mod.inner(), time.sleep(0.01))
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    tracer.active = True
    mod.outer()
    tracer.restore()
    assert tracer.total("outer") >= 0.03
    assert 0.009 <= tracer.self_s["outer"] < tracer.total("outer") - 0.019


# ---------------------------------------------------------------- compare


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [b * 0.7 for b in base]
    slower = [b * 1.5 for b in base]
    assert run.verdict(base, faster, higher_better=False, bound=0.1) == "better"
    assert run.verdict(base, slower, higher_better=False, bound=0.1) == "worse"
    assert run.verdict(base, base[::-1], higher_better=False, bound=0.1) == "unresolved"
    assert run.verdict(base, slower, higher_better=True, bound=0.1) == "better"
