"""Byte-stable primary outputs: the sha256 of every file the CLI writes
as its primary output, on inputs built here from fixed seeds.

A change that should leave the outputs alone must keep every digest; a
change that moves an output on purpose updates its digest here and lists
the changed numbers. The digests were taken with Python 3.11.7 and
numpy 2.4.6 on x86-64 Linux; another float formatting, libm or BLAS may
change them. A mismatch shows every digest, so the whole table can be
compared at once.
"""

import hashlib
import json
import math

import numpy as np

from extremctl import fileio
from extremctl.cli import main
from extremctl.mapping import LINKS
from extremctl.plant import GainSchedule
from extremctl.se3 import qaxis_angle, qmul

NETWORK = {"network_delay_s": 0.010, "jitter_std_s": 0.004, "drop_prob": 0.02, "duration_s": 12.0}
SWEEP = ["pipeline", "--config", "network.json", "--eta-sweep", "0,0.5,0.9"]
SIMULATE = ["simulate", "--duration", "2", "--gains"]

# (argv, {output: sha256}); every path is relative to the input directory
# and every command runs in this order there.
CASES = [
    (SWEEP + ["--seed", "1", "--out", "sweep1.json"], {
        "sweep1.json": "c688bbe13de004433e09d2580eb9ee0ceac252bfd92fc3ad8034ae81fd4221b1",
    }),
    (SWEEP + ["--seed", "2", "--out", "sweep2.json"], {
        "sweep2.json": "fd425b6365a871bda6ddb25630218c386c5932caae8a9eecbda4e6b7f50a2f24",
    }),
    (SWEEP + ["--seed", "3", "--out", "sweep3.json"], {
        "sweep3.json": "b78b5e0986593ba92a82128c04140ba993c9b49f4adbbc238b912947eac652ff",
    }),
    (["pipeline", "--config", "network.json", "--seed", "1", "--eta", "0.5",
      "--signals-out", "signals", "--out", "budget.json"], {
        "budget.json": "e09a870ac553a439846bac54261b49129c1f567cba1f46d59b6fb90c6d6adeee",
        "signals_human.csv": "6b212f36da8030033a3bb8c7178310f2d9926319b2d2230f38d19a5e4f9a5565",
        "signals_robot.csv": "104ba37a01fb013b0514223cf89020b7e10e103f48239bf9eebbe2bfb361f59e",
    }),
    (["delay-curve", "--out", "curve.csv"], {
        "curve.csv": "41a3cd605997ecb2f0bbf0c45b04d15b547fcb3b1b630b8dc8044e6928aefa4d",
    }),
    (SIMULATE + ["decoupled_gains.json", "--plant", "decoupled.json", "--out", "decoupled.csv"], {
        "decoupled.csv": "8e7747b6f99c0f25e33b386afa2c27b2e8b47b40ce42ed7eafb6d0e55ec0084a",
    }),
    (SIMULATE + ["chain_gains.json", "--plant", "chain.json", "--ref", "ramp:0.2",
                 "--out", "chain.csv"], {
        "chain.csv": "3a8ae78061e641f9c2f2ce98bd96aa7a14b2b72ed521ec1d75f2c604c1f3975f",
    }),
    (["calibrate-gains", "--plant", "chain.json", "--envs", "4", "--sweeps", "1", "--seed", "1",
      "--out", "chain_calibration.json"], {
        "chain_calibration.json": "186cd6d7bd20d6f939e77589fc4bbe57d38c88880c5919f308e88ca390fdbda3",
    }),
    (["calibrate-map", "--neutral", "neutral.json", "--robot", "robot.json",
      "--out", "profile.json"], {
        "profile.json": "7c53da69df5c62b757028c463163fe1ca15f54539f50854539d81a9f9a611b43",
    }),
    (["map", "--profile", "profile.json", "--frames", "capture.jsonl", "--out", "mapped.jsonl"], {
        "mapped.jsonl": "70a4aaadf5e29d8b4615fc07a47cc03de6245a58a0b080ef8f6f7bdde7834218",
    }),
]


def _dump(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _capture(rng, n):
    """A neutral stance and n frames of it, every link moved and turned a
    little, as {link: {"p", "q"}} dicts."""
    neutral = {
        "pelvis": [0.1, -0.2, 0.95], "torso": [0.1, -0.2, 1.25],
        "left_hand": [0.65, 0.0, 1.3], "right_hand": [0.65, -0.4, 1.3],
        "left_foot": [0.1, -0.1, 0.02], "right_foot": [0.1, -0.3, 0.02],
    }
    heading = qaxis_angle([0.0, 0.0, 1.0], 0.3)
    frames = []
    for k in range(n):
        links = {}
        for name in LINKS:
            turn = qaxis_angle(rng.normal(size=3), 0.2 * math.sin(0.1 * k) + rng.normal(scale=0.02))
            p = np.add(neutral[name], 0.05 * math.sin(0.05 * k) + rng.normal(scale=0.003, size=3))
            links[name] = {"p": p.tolist(), "q": list(qmul(heading, turn))}
        frames.append(links)
    return {name: {"p": p, "q": list(heading)} for name, p in neutral.items()}, frames


def write_inputs(d):
    """Every input file of CASES, from fixed seeds."""
    _dump(d / "network.json", NETWORK)
    _dump(d / "decoupled.json", {"kind": "decoupled_linear", "inertia_kg_m2": [1.0, 2.0],
                                 "physics_dt_s": 0.001})
    _dump(d / "decoupled_gains.json",
          GainSchedule.from_impedance(np.array([1.0, 2.0]), omega_n=10.0, eta=0.5).to_dict())
    _dump(d / "chain.json", {"kind": "planar_chain", "link_masses_kg": [1.0, 0.3],
                             "link_lengths_m": [0.3, 0.2], "gravity_m_s2": 9.81,
                             "physics_dt_s": 0.001})
    _dump(d / "chain_gains.json",
          GainSchedule.from_impedance(np.array([0.05, 0.004]), omega_n=10.0, eta=0.9).to_dict())
    neutral, frames = _capture(np.random.default_rng(28), 60)
    _dump(d / "neutral.json", neutral)
    _dump(d / "robot.json", {
        "pelvis_height_m": 0.72,
        "pelvis_to_torso_m": [0.0, 0.0, 0.25],
        "shoulder_offset_m": {"left": [0.0, 0.16, 0.04], "right": [0.0, -0.16, 0.04]},
        "arm_length_m": {"left": 0.45, "right": 0.45},
        "neutral_foot_m": {"left": [0.0, 0.09, 0.015], "right": [0.0, -0.09, 0.015]},
    })
    with open(d / "capture.jsonl", "w") as f:
        for k, links in enumerate(frames):
            f.write(json.dumps({"links": links, "timestamp_ns": 8_333_333 * k}, sort_keys=True) + "\n")


def test_primary_output_digests(tmp_path, monkeypatch):
    """Every command of CASES exits 0 and writes the pinned bytes."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected, got = {}, {}
    for argv, outputs in CASES:
        assert main(argv) == 0, argv
        for name, digest in outputs.items():
            expected[name] = digest
            got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == expected, f"sha256 by output: {json.dumps(got, indent=1)}"


# sha256 of the `extremctl latency` JSON on benchmark-sized views, by
# seed; computed with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux.
LATENCY_DIGESTS = {
    1: "728ec567123515ef31218d219af4afc8fcb2f535468bc1db3e1bf71f439d488e",
    2: "bf9c28b9e145271bed211d992375cf960610020689869380ed6968d1940de82a",
    3: "476c6267e223d289a82c73aece9da03231d6b808791ab0cd0b63c7d80e28446b",
    11: "8c909183a27fabfbab47afd0b6736abd8062007a145d46dc75b68e7793a00c3b",
}


def test_latency_json_digests(tmp_path):
    """The latency report is byte-stable: on two 121-frame 160x120 views of
    a bright disc reciprocating over static clutter, the second 3 frames
    behind (the views the benchmark's video_latency workload renders), its
    JSON has the pinned sha256 at each seed. The digests were taken with
    Python 3.11.7 and numpy 2.4.6 on x86-64 Linux; another float
    formatting or libm may change them. A mismatch shows every digest."""
    import hashlib
    import math

    fps, n_frames, (h, w) = 60.0, 121, (120, 160)
    yy, xx = np.mgrid[0:h, 0:w]
    got = {}
    for seed in LATENCY_DIGESTS:
        rng = np.random.default_rng([seed, 4])
        freq, amp, phase = rng.uniform(0.6, 0.8), rng.uniform(0.2, 0.25) * w, rng.uniform(0, 2 * math.pi)
        for view, delay in (("a", 0), ("b", 3)):
            d = tmp_path / f"{seed}_{view}"
            d.mkdir()
            background = rng.uniform(30.0, 60.0, (h, w))
            for k in range(n_frames):
                cx = w / 2 + amp * math.sin(2 * math.pi * freq * (k - delay) / fps + phase)
                disc = np.clip(200.0 - 1.5 * ((xx - cx) ** 2 + (yy - h / 2) ** 2), 0.0, None)
                fileio.write_pgm(str(d / f"f{k:04d}.pgm"), np.clip(np.rint(background + disc), 0, 255))
        out = tmp_path / f"{seed}.json"
        region = f"0,0,{w},{h},1,0"
        assert main(["latency", "--frames-a", str(tmp_path / f"{seed}_a"),
                     "--frames-b", str(tmp_path / f"{seed}_b"), "--fps", "60",
                     "--region-a", region, "--region-b", region, "--out", str(out)]) == 0
        got[seed] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == LATENCY_DIGESTS, f"latency JSON sha256 by seed: {got}"
