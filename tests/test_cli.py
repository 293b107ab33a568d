"""Command-line surface: exit codes, byte-stable outputs, metadata sidecars,
and flag/config-file/environment precedence."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import IDENTITY, make_links
import extremctl
from extremctl import fileio
from extremctl.cli import _HANDLERS, _parse_etas, _parse_reference, main
from extremctl.latency import MotionSignal
from extremctl.mapping import LINKS, CalibrationProfile, LinkSet, RobotModel, calibrate, map_frame
from extremctl.pipeline import MotionSpec, default_human_neutral, default_robot_model
from extremctl.plant import GainSchedule, make_sinusoid, plant_from_dict, run_episode
from extremctl.se3 import qaxis_angle, qmul


def make_robot():
    return RobotModel(
        pelvis_height=0.75,
        pelvis_to_torso=(0.05, 0.0, 0.25),
        shoulder_offset={"left": (0.02, 0.18, 0.05), "right": (0.02, -0.18, 0.05)},
        arm_length={"left": 0.45, "right": 0.45},
        neutral_foot={"left": (0.0, 0.12, 0.03), "right": (0.0, -0.12, 0.03)},
    )


HUMAN_ROWS = [  # translation, then an identity orientation
    [0.0, 0.0, 1.0, *IDENTITY],  # pelvis
    [0.0, 0.0, 1.0, *IDENTITY],  # torso
    [0.6, 0.2, 1.3, *IDENTITY],  # left_hand
    [0.6, -0.2, 1.3, *IDENTITY],  # right_hand
    [0.0, 0.1, 0.02, *IDENTITY],  # left_foot
    [0.0, -0.1, 0.02, *IDENTITY],  # right_foot
]


def make_human(**moved):
    """The neutral stance, with a link moved to the row given by name."""
    return make_links([moved.get(name, row) for name, row in zip(LINKS, HUMAN_ROWS)])


def write_mapping_inputs(d):
    """robot.json, neutral.json, and a 3-frame capture with ns timestamps."""
    robot, human = make_robot(), make_human()
    fileio.dump_json(str(d / "robot.json"), robot.to_dict())
    fileio.dump_json(str(d / "neutral.json"), human.to_dict())
    frames = [
        (100_000_000 * k, make_human(left_hand=[0.6, 0.2 + 0.01 * k, 1.3, *IDENTITY]))
        for k in range(3)
    ]
    fileio.write_linkset_jsonl(str(d / "frames.jsonl"), [ts for ts, _ in frames],
                               np.stack([links.array for _, links in frames]))
    return robot, human, frames


def write_plant_inputs(d, inertia=(1.0, 2.0)):
    plant = {"kind": "decoupled_linear", "inertia_kg_m2": list(inertia), "physics_dt_s": 0.001}
    fileio.dump_json(str(d / "plant.json"), plant)
    gains = GainSchedule.from_impedance(np.array(inertia), omega_n=10.0, zeta=1.0)
    fileio.dump_json(str(d / "gains.json"), gains.to_dict())
    return plant, gains


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["delay-curve"]) == 2  # --out is required
    assert main(["simulate", "--filter-alpha", "0.3", "--out", "x.csv"]) == 2  # no such flag
    capsys.readouterr()


def test_operation_errors_exit_one_with_json_diagnostic(tmp_path, capsys):
    write_plant_inputs(tmp_path)
    out = tmp_path / "episode.csv"
    rc = main(["simulate", "--plant", str(tmp_path / "nope.json"),
               "--gains", str(tmp_path / "gains.json"), "--out", str(out)])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "FileNotFoundError"
    assert "nope.json" in diag["message"]
    assert not out.exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["delay-curve", "--config", str(bad), "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "JSONDecodeError"


@pytest.mark.skipif(shutil.which("extremctl") is None,
                    reason="extremctl console script not on PATH (package not installed)")
def test_console_script_is_installed():
    proc = subprocess.run(["extremctl", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "delay-curve" in proc.stdout


def test_console_script_declaration_runs_cli():
    """The [project.scripts] entry resolves to cli.main, and the call an
    installed wrapper makes, sys.exit(main()), serves --help."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"extremctl": "extremctl.cli:main"}
    module, attr = scripts["extremctl"].split(":")
    assert getattr(importlib.import_module(module), attr) is main

    env = dict(os.environ)
    src = str(Path(extremctl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "delay-curve" in proc.stdout


# ------------------------------------------------------------ flag parsing


def test_eta_range_parsing():
    assert _parse_etas("0:1:0.5") == [0.0, 0.5, 1.0]
    assert _parse_etas("0.1, 0.9") == [0.1, 0.9]
    # stop is inclusive up to float noise
    got = _parse_etas("0:0.9:0.3")
    np.testing.assert_allclose(got, [0.0, 0.3, 0.6, 0.9], atol=1e-12)
    with pytest.raises(ValueError):
        _parse_etas("0:1")
    with pytest.raises(ValueError):
        _parse_etas("0:1:0")


def test_reference_parsing():
    ref = _parse_reference("sin:0.3,3.14")
    want = make_sinusoid(0.3, 3.14)
    assert ref(0.37) == want(0.37)
    assert _parse_reference("const:0.4")(3.0) == (0.4, 0.0)
    assert _parse_reference("ramp:2.0")(1.5) == (3.0, 2.0)
    with pytest.raises(ValueError):
        _parse_reference("tri:1.0")
    with pytest.raises(ValueError):
        _parse_reference("sin:1.0")


@pytest.mark.parametrize("argv, env, message", [
    # each used to escape as a Python error that named no flag
    (["simulate", "--ref", "sin:1"], None, "--ref 'sin:1' is not sin:A,omega, const:x or ramp:v"),
    (["delay-curve", "--etas", "a"], None, "--etas 'a' must be a finite number"),
    (["delay-curve", "--etas", "0:1:nan"], None, "--etas nan must be a finite number"),
    (["pipeline"], "abc", "EXTREMCTL_SEED 'abc' must be a non-negative integer"),
    # numpy refused it mid-run, naming no flag
    (["pipeline", "--seed", "-1"], None, "--seed -1 must be a non-negative integer"),
    (["calibrate-gains", "--seed", "-3"], None, "--seed -3 must be a non-negative integer"),
    # each used to run the whole episode, then stop with NumericalBlowup
    (["simulate", "--ref", "const:nan"], None, "--ref const nan must be a finite number"),
    (["simulate", "--ref", "sin:nan,1"], None, "--ref sin nan must be a finite number"),
    (["simulate", "--ref", "ramp:inf"], None, "--ref ramp inf must be a finite number"),
    # each used to exit 0 with no eta run
    (["delay-curve", "--etas", ""], None, "--etas '' holds no eta"),
    (["pipeline", "--eta-sweep", ","], None, "--eta-sweep ',' holds no eta"),
], ids=["ref-arity", "etas-text", "etas-range-nan", "seed-env", "seed-negative",
        "seed-negative-calibrate", "ref-const-nan", "ref-sin-nan", "ref-ramp-inf", "etas-empty",
        "eta-sweep-empty"])
def test_cli_text_value_refused_naming_its_flag(tmp_path, capsys, monkeypatch, argv, env, message):
    """A flag's text value, or EXTREMCTL_SEED, that is not what the flag
    takes exits 1 naming it before anything runs or is written."""
    from extremctl import cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran before the flags were checked")

    for name in ("run_episode", "simulate_delay_curve", "run_pipeline", "run_pipeline_sweep",
                 "calibrate_chain"):
        monkeypatch.setattr(cli, name, no_run)
    if env is not None:
        monkeypatch.setenv("EXTREMCTL_SEED", env)
    write_plant_inputs(tmp_path, inertia=(1.0,))
    if argv[0] == "simulate":
        argv = argv + ["--plant", str(tmp_path / "plant.json"), "--gains", str(tmp_path / "gains.json")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out.exists()


# Each command's input file flags.
INPUT_FLAGS = {"calibrate-map": ("neutral", "robot"), "map": ("profile", "frames"),
               "calibrate-gains": ("plant",), "simulate": ("plant", "gains")}


@pytest.mark.parametrize("command, missing", [(c, f) for c, flags in INPUT_FLAGS.items()
                                              for f in flags])
def test_missing_input_file_flag_exits_one_naming_it(tmp_path, capsys, command, missing):
    """A missing input file flag used to escape as a TypeError traceback.
    It is refused before any file is read: the command's other input
    flags name a file that does not exist, which would fail if read."""
    argv = [command, "--out", str(tmp_path / "out")]
    for flag in INPUT_FLAGS[command]:
        if flag != missing:
            argv += [f"--{flag}", str(tmp_path / "absent.json")]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                   "message": f"--{missing} is required"}
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------- mapping commands


def test_calibrate_map_matches_library(tmp_path):
    robot, human, _ = write_mapping_inputs(tmp_path)
    out = tmp_path / "profile.json"
    rc = main(["calibrate-map", "--neutral", str(tmp_path / "neutral.json"),
               "--robot", str(tmp_path / "robot.json"), "--out", str(out)])
    assert rc == 0
    assert fileio.load_json(str(out)) == calibrate(human, robot).to_dict()


def test_map_preserves_timestamps_and_matches_library(tmp_path):
    _, _, frames = write_mapping_inputs(tmp_path)
    profile_path = tmp_path / "profile.json"
    main(["calibrate-map", "--neutral", str(tmp_path / "neutral.json"),
          "--robot", str(tmp_path / "robot.json"), "--out", str(profile_path)])
    out = tmp_path / "mapped.jsonl"
    rc = main(["map", "--profile", str(profile_path),
               "--frames", str(tmp_path / "frames.jsonl"), "--out", str(out)])
    assert rc == 0
    mapped = fileio.read_linkset_jsonl(str(out))
    assert mapped.stamps == [0, 100_000_000, 200_000_000]
    prof = CalibrationProfile.from_dict(fileio.load_json(str(profile_path)))
    for got, (_, raw) in zip(mapped.poses, frames):
        # repr-float JSON keeps the round trip bit exact
        assert np.array_equal(got, map_frame(prof, raw).array)


def _calibrated_profile(tmp_path):
    write_mapping_inputs(tmp_path)
    profile = tmp_path / "profile.json"
    assert main(["calibrate-map", "--neutral", str(tmp_path / "neutral.json"),
                 "--robot", str(tmp_path / "robot.json"), "--out", str(profile)]) == 0
    return profile


def _moving_frames(rng, n):
    """make_human with every link moved and turned a little, as a (n, 6, 7) array."""
    def moved(row):
        turn = qaxis_angle(rng.normal(size=3), rng.uniform(-0.5, 0.5))
        return [*(row[:3] + rng.normal(scale=0.05, size=3)), *qmul(turn, row[3:])]

    return np.stack([
        make_links([moved(row) for row in make_human().array]).array for _ in range(n)
    ])


def test_map_output_is_json_dumps_of_each_row(tmp_path):
    profile = _calibrated_profile(tmp_path)
    rng = np.random.default_rng(40)
    poses = _moving_frames(rng, 40)
    stamps = [0, -3, 2**64 - 1] + [int(t) for t in rng.integers(0, 2**62, size=37)]
    frames = tmp_path / "moving.jsonl"
    fileio.write_linkset_jsonl(str(frames), stamps, poses)
    out = tmp_path / "mapped.jsonl"
    assert main(["map", "--profile", str(profile), "--frames", str(frames), "--out", str(out)]) == 0

    prof = CalibrationProfile.from_dict(fileio.load_json(str(profile)))
    want = "".join(
        json.dumps({"links": map_frame(prof, LinkSet.from_array(a)).to_dict(), "timestamp_ns": ts},
                   sort_keys=True) + "\n"
        for ts, a in zip(stamps, poses)
    )
    assert out.read_text() == want


def test_map_refused_frame_leaves_no_output_and_names_its_line(tmp_path, capsys):
    """Line 701 holds a hand at 1.7e308 m, whose retarget overflows; the
    blank line 3 makes it frame 699. The stream maps before --out opens."""
    profile = _calibrated_profile(tmp_path)
    poses = _moving_frames(np.random.default_rng(41), 710)
    poses[699, LINKS.index("left_hand"), :3] = 1.7e308
    frames = tmp_path / "frames.jsonl"
    fileio.write_linkset_jsonl(str(frames), list(range(710)), poses)
    rows = frames.read_text().splitlines(keepends=True)
    frames.write_text("".join(rows[:2] + ["\n"] + rows[2:]))
    out = tmp_path / "mapped.jsonl"
    assert main(["map", "--profile", str(profile), "--frames", str(frames), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "ValueError"
    assert diag["message"] == f"{frames} line 701: non-finite mapped translation"
    assert not out.exists()


@pytest.mark.parametrize("command, bad", [("calibrate-map", "neutral"), ("calibrate-map", "robot"),
                                          ("map", "profile")])
def test_mapping_input_file_not_an_object_exits_one_naming_file(tmp_path, capsys, command, bad):
    profile = _calibrated_profile(tmp_path)
    fileio.dump_json(str(tmp_path / "bad.json"), [1.0])
    files = {"neutral": tmp_path / "neutral.json", "robot": tmp_path / "robot.json",
             "profile": profile, "frames": tmp_path / "frames.jsonl", bad: tmp_path / "bad.json"}
    flags = ("neutral", "robot") if command == "calibrate-map" else ("profile", "frames")
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    for flag in flags:
        argv += [f"--{flag}", str(files[flag])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "ValueError"
    assert "bad.json" in diag["message"] and "JSON object" in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, bad, path, value, named", [
    ("calibrate-map", "neutral", ["pelvis"], [1.0], "pelvis"),
    ("calibrate-map", "neutral", ["left_hand", "p"], ["0.1", "0.2", "0.9"], "left_hand p"),
    ("calibrate-map", "neutral", ["torso", "q"], [1.0, 0.0, 0.0], "torso q"),
    ("calibrate-map", "robot", ["pelvis_to_torso_m"], ["0", 0, 0.25], "pelvis_to_torso"),
    ("calibrate-map", "robot", ["shoulder_offset_m"], [], "shoulder_offset_m"),
    ("map", "profile", ["robot"], [], "robot"),
    ("map", "profile", ["anchor", "p"], [0.0, "0", 0.0], "anchor p"),
    ("map", "profile", ["rot_offset", "left_foot"], [1.0, 0.0, 0.0, False], "rot_offset left_foot"),
    ("map", "profile", ["arm_length_m"], [0.6, 0.6], "arm_length_m"),
])
def test_malformed_pose_or_model_value_exits_one_naming_it(tmp_path, capsys, command, bad, path,
                                                           value, named):
    """A value of the wrong JSON type inside an otherwise valid neutral,
    robot or profile file."""
    profile = _calibrated_profile(tmp_path)
    files = {"neutral": tmp_path / "neutral.json", "robot": tmp_path / "robot.json",
             "profile": profile, "frames": tmp_path / "frames.jsonl"}
    d = fileio.load_json(str(files[bad]))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    files[bad] = tmp_path / "bad.json"
    fileio.dump_json(str(files[bad]), d)
    flags = ("neutral", "robot") if command == "calibrate-map" else ("profile", "frames")
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    for flag in flags:
        argv += [f"--{flag}", str(files[flag])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "ValueError" and named in diag["message"]
    assert not out.exists()


def _map_with_profile_value(tmp_path, capsys, path, value):
    """extremctl map with one value of a calibrated profile replaced; the
    JSON diagnostic, after checking the exit code and that no output was
    written."""
    d = fileio.load_json(str(_calibrated_profile(tmp_path)))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    fileio.dump_json(str(tmp_path / "bad.json"), d)
    out = tmp_path / "out"
    assert main(["map", "--profile", str(tmp_path / "bad.json"),
                 "--frames", str(tmp_path / "frames.jsonl"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not out.exists()
    return json.loads(err)


@pytest.mark.parametrize("path", [["pelvis_height_m"], ["arm_length_m", "left"],
                                  ["arm_length_m", "right"]], ids=" ".join)
@pytest.mark.parametrize("value", [0, -1.0])
def test_map_refuses_non_positive_profile_length_naming_it(tmp_path, capsys, path, value):
    """A zero length used to escape as a ZeroDivisionError traceback; a
    negative pelvis height ran and mirrored the stream."""
    diag = _map_with_profile_value(tmp_path, capsys, path, value)
    assert diag == {"error": "ValueError",
                    "message": f"{' '.join(path)} {float(value)!r} must be finite and positive"}


@pytest.mark.parametrize("path, named", [(["rot_offset", "pelvis"], "rot_offset pelvis"),
                                         (["anchor", "q"], "anchor q")])
def test_map_refuses_zero_profile_quaternion_naming_it(tmp_path, capsys, path, named):
    diag = _map_with_profile_value(tmp_path, capsys, path, [0, 0, 0, 0])
    assert diag == {"error": "ZeroVector",
                    "message": f"{named}: quaternion norm 0.0 is not normalizable"}


# Per command, a --config key one letter off a flag of the command; "eta"
# is a pipeline flag but not a delay-curve one, and "etas" the reverse.
MISSPELT = {"calibrate-map": "nuetral", "map": "frame", "calibrate-gains": "omegan",
            "simulate": "control_dtt", "delay-curve": "eta", "latency": "signal-c",
            "pipeline": "etas"}


@pytest.mark.parametrize("command", sorted(_HANDLERS))
def test_config_unknown_key_exits_one_naming_it(tmp_path, capsys, command):
    """Every command refuses a --config key that is not one of its flags
    (in either spelling), before it reads any input or writes any output."""
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"seed": 1, MISSPELT[command]: 5})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"{cfg}: unknown key '{MISSPELT[command]}'"}
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("config, error, named", [
    ({"omega_n": True}, "ConfigInvalid", "omega_n True must be a finite number"),
    ({"motion": {"axis": 2.7}}, "ValueError", "axis 2.7 must be the integer 0, 1 or 2"),
    ({"motion": {"amplitude_m": "0.1"}}, "ValueError", "amplitude_m '0.1' must be a finite number"),
])
def test_pipeline_config_value_not_a_json_number_exits_one_naming_it(tmp_path, capsys, config,
                                                                     error, named):
    """A bool used to run as 1 and was recorded as true; a float axis ran
    truncated, and a numeric string ran as its number."""
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {**config, "duration_s": 5})
    out = tmp_path / "run.json"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": named}
    assert not out.exists()


def test_pipeline_config_fractional_seed_exits_one_naming_it(tmp_path, capsys):
    """An int() cast used to run "seed": 1.9 as seed 1 and record 1."""
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"seed": 1.9, "duration_s": 5})
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run.json")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"{cfg}: seed 1.9 must be an integer"}
    assert list(tmp_path.iterdir()) == [cfg]


def test_pipeline_config_negative_seed_exits_one_naming_it(tmp_path, capsys, monkeypatch):
    """numpy used to refuse "seed": -1 mid-run with "expected non-negative
    integer", naming neither the key nor the value."""
    from extremctl import cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    monkeypatch.setattr(cli, "run_pipeline", no_run)
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"seed": -1, "duration_s": 5})
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run.json")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"{cfg}: seed -1 must be a non-negative integer"}
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, config, named", [
    # float() used to run true as 1.0 and record "omega_n": 1.0
    ("delay-curve", {"duration": 4.0, "etas": "0.9", "omega-n": True}, "omega-n True must be a number"),
    ("delay-curve", {"etas": 0.9}, "etas 0.9 must be a string"),
    ("latency", {"fps": "30"}, "fps '30' must be a number"),
    ("latency", {"block": 8.0}, "block 8.0 must be an integer"),
    ("pipeline", {"eta_sweep": [0, 0.9], "duration_s": 5}, "eta_sweep [0, 0.9] must be a string"),
])
def test_config_value_not_of_its_flags_kind_exits_one_naming_it(tmp_path, capsys, command,
                                                                config, named):
    """A --config value must be of its flag's JSON kind: an int flag takes
    an int, a float flag a number, a string flag a string, none a bool."""
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), config)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "latency":
        argv += ["--frames-a", "a", "--frames-b", "b", "--region-a", "0,0,8,8,1,0",
                 "--region-b", "0,0,8,8,1,0"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                   "message": f"{cfg}: {named}"}
    assert list(tmp_path.iterdir()) == [cfg]


# ------------------------------------------------------- episode commands


def test_simulate_csv_is_byte_stable_and_exact(tmp_path):
    plant_dict, gains = write_plant_inputs(tmp_path)
    out = tmp_path / "episode.csv"
    argv = ["simulate", "--plant", str(tmp_path / "plant.json"),
            "--gains", str(tmp_path / "gains.json"),
            "--ref", "sin:0.3,3.14", "--duration", "1.0", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first

    lines = first.decode().splitlines()
    assert lines[0] == "t_s,q_target_rad_j0,q_measured_rad_j0,q_target_rad_j1,q_measured_rad_j1"
    table = np.loadtxt(str(out), delimiter=",", skiprows=1)
    record = run_episode(
        plant_from_dict(plant_dict), gains, make_sinusoid(0.3, 3.14),
        duration=1.0, control_dt=0.02,
    )
    assert table.shape == (1000, 5)
    assert np.array_equal(table[:, 0], record.t)
    for j in range(2):
        assert np.array_equal(table[:, 1 + 2 * j], record.q_target_held[:, j])
        assert np.array_equal(table[:, 2 + 2 * j], record.q[:, j])


def test_simulate_reads_feedforward_mask_of_older_gain_files(tmp_path):
    """A gain file with a per-joint feedforward_enabled mask simulates as
    the same file with eta = 0 on the masked joint."""
    write_plant_inputs(tmp_path)
    base = {"kp_nm_per_rad": [100.0, 200.0], "kd_nms_per_rad": [20.0, 40.0]}
    fileio.dump_json(str(tmp_path / "masked.json"),
                     dict(base, eta=[0.9, 0.9], feedforward_enabled=[True, False]))
    fileio.dump_json(str(tmp_path / "per_joint.json"), dict(base, eta=[0.9, 0.0]))
    outs = []
    for name in ("masked", "per_joint"):
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--plant", str(tmp_path / "plant.json"),
                     "--gains", str(tmp_path / f"{name}.json"),
                     "--duration", "1.0", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_const_reference_settles(tmp_path):
    write_plant_inputs(tmp_path, inertia=(1.0,))
    out = tmp_path / "step.csv"
    main(["simulate", "--plant", str(tmp_path / "plant.json"),
          "--gains", str(tmp_path / "gains.json"),
          "--ref", "const:0.4", "--duration", "1.5", "--out", str(out)])
    table = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert abs(table[-1, 2] - 0.4) < 1e-3


def test_meta_sidecar_next_to_primary_output(tmp_path):
    write_plant_inputs(tmp_path)
    out = tmp_path / "episode.csv"
    main(["simulate", "--plant", str(tmp_path / "plant.json"),
          "--gains", str(tmp_path / "gains.json"), "--duration", "0.1", "--out", str(out)])
    meta = fileio.load_json(str(out) + ".meta.json")
    assert sorted(meta) == ["command", "created_unix_ns", "parameters"]
    assert meta["command"] == "simulate"
    assert meta["parameters"]["plant"] == str(tmp_path / "plant.json")
    assert meta["created_unix_ns"] > 1_500_000_000 * 10**9
    # wall clock stays out of the primary file
    assert str(meta["created_unix_ns"]) not in out.read_text()


def test_delay_curve_rows(tmp_path):
    out = tmp_path / "curve.csv"
    argv = ["delay-curve", "--etas", "0,0.9", "--duration", "4.0", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,theory_delay_ms,measured_delay_ms,confidence"
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 0], [0.0, 0.9], atol=0)
    np.testing.assert_allclose(rows[:, 1], [200.0, 20.0], atol=1e-9)
    assert abs(rows[0, 2] - 192.7) < 1.0
    assert abs(rows[1, 2] - 28.8) < 1.0
    assert (rows[:, 3] > 0.99).all()
    first = out.read_bytes()
    main(argv)
    assert out.read_bytes() == first


# --------------------------------------------------------------- latency


def test_latency_from_signal_csvs(tmp_path):
    from extremctl.latency import MotionSignal

    t = np.arange(200) / 100.0
    wave = np.sin(2 * np.pi * 1.1 * t) + 0.5 * np.sin(2 * np.pi * 2.7 * t)
    fileio.write_signal_csv(str(tmp_path / "a.csv"), MotionSignal(wave, 100.0))
    fileio.write_signal_csv(str(tmp_path / "b.csv"), MotionSignal(wave.copy(), 100.0, t0=0.07))
    out = tmp_path / "lag.json"
    rc = main(["latency", "--signal-a", str(tmp_path / "a.csv"),
               "--signal-b", str(tmp_path / "b.csv"), "--out", str(out)])
    assert rc == 0
    report = fileio.load_json(str(out))
    assert abs(report["lag_ms"] - 70.0) < 1e-9
    assert report["confidence"] > 0.999
    assert report["low_confidence"] is False
    # stored traces are the standardized overlap, not the raw capture
    assert abs(np.std(report["signal_a"]["values"]) - 1.0) < 1e-6


# -------------------------------------------------------------- pipeline


def test_pipeline_budget_and_signal_dump(tmp_path):
    out = tmp_path / "pipe.json"
    prefix = tmp_path / "pipe_sig"
    argv = ["pipeline", "--duration", "6", "--seed", "5", "--out", str(out),
            "--signals-out", str(prefix)]
    assert main(argv) == 0
    report = fileio.load_json(str(out))
    assert sorted(report) == ["budget", "config"]
    assert report["config"]["seed"] == 5
    budget = report["budget"]
    assert budget["hold_ms"] == 10.0
    assert 20.0 < budget["overall_ms"] < 70.0
    for name in ("_human", "_robot"):
        sig = fileio.read_signal_csv(str(prefix) + name + ".csv")
        assert sig.samples.size == 6000
        assert abs(sig.rate_hz - 1000.0) < 1e-6
    first = out.read_bytes()
    main(argv)
    assert out.read_bytes() == first


def test_pipeline_env_seed_matches_flag(tmp_path, monkeypatch):
    flag_out = tmp_path / "flag.json"
    env_out = tmp_path / "env.json"
    main(["pipeline", "--duration", "6", "--seed", "5", "--out", str(flag_out)])
    monkeypatch.setenv("EXTREMCTL_SEED", "5")
    main(["pipeline", "--duration", "6", "--out", str(env_out)])
    a = fileio.load_json(str(flag_out))
    b = fileio.load_json(str(env_out))
    assert b["config"]["seed"] == 5
    assert a["budget"] == b["budget"]


def test_pipeline_eta_sweep_fits_line(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["pipeline", "--duration", "6", "--seed", "5",
               "--eta-sweep", "0,0.45,0.9", "--out", str(out)])
    assert rc == 0
    report = fileio.load_json(str(out))
    assert sorted(report) == ["budgets", "config", "fit"]
    assert [b["eta"] for b in report["budgets"]] == [0.0, 0.45, 0.9]
    control = [b["control_ms"] for b in report["budgets"]]
    assert control[0] > control[1] > control[2]
    # Pinned to the values of one full run per eta; simulating the
    # transport once per sweep must not move them.
    assert control == [192.65138640691538, 105.76483449472326, 31.270549694079907]
    assert [b["overall_ms"] for b in report["budgets"]] == [
        206.4540411459606, 119.53060863843872, 45.1175212242206]
    assert report["fit"]["r_squared"] > 0.999
    assert 0.5 < report["fit"]["slope"] < 1.5


def test_pipeline_records_eta_and_motion_and_replays_own_config(tmp_path):
    """A motion object in --config runs and is recorded, --eta is recorded
    as given, and the recorded config fed back as --config reproduces the
    whole output byte for byte."""
    motion = {"amplitude_m": 0.1, "frequency_hz": 0.7, "link": "left_hand", "axis": 1}
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"motion": motion, "duration_s": 5.0})
    first = tmp_path / "first.json"
    assert main(["pipeline", "--config", str(cfg), "--seed", "3", "--eta", "0.5",
                 "--out", str(first)]) == 0
    report = fileio.load_json(str(first))
    assert report["config"]["motion"] == motion
    assert report["config"]["eta"] == 0.5
    assert report["budget"]["eta"] == 0.5
    fileio.dump_json(str(tmp_path / "replay_cfg.json"), report["config"])
    replay = tmp_path / "replay.json"
    assert main(["pipeline", "--config", str(tmp_path / "replay_cfg.json"),
                 "--out", str(replay)]) == 0
    assert replay.read_bytes() == first.read_bytes()
    assert "profile" not in report["config"]  # the default profile is not written

    # A custom profile is recorded too, so its run replays as well.
    robot = replace(default_robot_model(), pelvis_height=1.1)
    profile = calibrate(default_human_neutral(), robot).to_dict()
    fileio.dump_json(str(cfg), {"profile": profile, "duration_s": 4.0})
    custom = tmp_path / "custom.json"
    assert main(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(custom)]) == 0
    report = fileio.load_json(str(custom))
    assert report["config"]["profile"] == profile
    fileio.dump_json(str(tmp_path / "replay_cfg.json"), report["config"])
    assert main(["pipeline", "--config", str(tmp_path / "replay_cfg.json"),
                 "--out", str(replay)]) == 0
    assert replay.read_bytes() == custom.read_bytes()


def test_pipeline_config_unknown_key_exits_one_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"omegan": 5, "duration_s": 5})
    out = tmp_path / "run.json"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "unknown key 'omegan'" in diag["message"]
    assert not out.exists()
    # Flag names are config keys too, in either spelling.
    fileio.dump_json(str(cfg), {"duration": 5, "eta_sweep": "0,0.9", "signals-out": str(tmp_path / "sig"),
                                "seed": 2, "eta": 0.5, "omega_n": 5})
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    report = fileio.load_json(str(out))
    assert report["config"]["omega_n"] == 5 and len(report["budgets"]) == 2


def test_pipeline_infinite_duration_exits_one_naming_field(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["pipeline", "--duration", "inf", "--out", str(out)]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigInvalid" and "duration_s inf" in diag["message"]
    assert not out.exists()


def test_non_finite_plant_and_gain_files_exit_one_naming_value(tmp_path, capsys):
    """Python's json reads NaN, so a NaN gain or mass reaches the
    constructors, which refuse it before any integration runs."""
    write_plant_inputs(tmp_path, inertia=(1.0,))
    (tmp_path / "nan_gains.json").write_text(
        '{"kp_nm_per_rad": [NaN], "kd_nms_per_rad": [20.0], "eta": [0.0]}'
    )
    rc = main(["simulate", "--plant", str(tmp_path / "plant.json"),
               "--gains", str(tmp_path / "nan_gains.json"), "--out", str(tmp_path / "e.csv")])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "kp [nan]" in diag["message"]

    (tmp_path / "nan_chain.json").write_text(
        '{"kind": "planar_chain", "link_masses_kg": [NaN, 1.0], "link_lengths_m": [0.3, 0.2]}'
    )
    rc = main(["calibrate-gains", "--plant", str(tmp_path / "nan_chain.json"),
               "--out", str(tmp_path / "g.json")])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "masses [nan" in diag["message"]
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_calibrate_gains_non_finite_omega_n_exits_one_naming_value(tmp_path, capsys, value):
    write_plant_inputs(tmp_path, inertia=(1.0,))
    out = tmp_path / "g.json"
    rc = main(["calibrate-gains", "--plant", str(tmp_path / "plant.json"),
               "--omega-n", value, "--out", str(out)])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and f"omega_n {value}" in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [("--duration", "inf", "duration inf"), ("--duration", "nan", "duration nan"),
     ("--control-dt", "nan", "control_dt nan")],
)
def test_simulate_non_finite_timing_exits_one_naming_parameter(tmp_path, capsys, flag, value, named):
    write_plant_inputs(tmp_path, inertia=(1.0,))
    out = tmp_path / "e.csv"
    rc = main(["simulate", "--plant", str(tmp_path / "plant.json"),
               "--gains", str(tmp_path / "gains.json"), flag, value, "--out", str(out)])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and named in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [("--duration", "inf", "duration inf"), ("--omega-n", "nan", "omega_n nan"),
     ("--wave-omega", "nan", "wave_omega nan"), ("--control-dt", "inf", "control_dt inf")],
)
def test_delay_curve_non_finite_value_exits_one_naming_parameter(tmp_path, capsys, flag, value, named):
    out = tmp_path / "c.csv"
    assert main(["delay-curve", flag, value, "--out", str(out)]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and named in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize("duration", ["0.5", "2.5", "2.99"])
def test_delay_curve_too_short_to_measure_exits_one_naming_trim(tmp_path, capsys, duration):
    out = tmp_path / "c.csv"
    assert main(["delay-curve", "--duration", duration, "--out", str(out)]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError"
    assert f"duration {duration} s" in diag["message"] and "2.0 s settle trim" in diag["message"]
    assert not out.exists()
    assert main(["delay-curve", "--etas", "0.5", "--duration", "3.0", "--out", str(out)]) == 0


def test_simulate_unallocatable_duration_exits_one_without_traceback(tmp_path, capsys):
    write_plant_inputs(tmp_path, inertia=(1.0,))
    out = tmp_path / "e.csv"
    rc = main(["simulate", "--plant", str(tmp_path / "plant.json"),
               "--gains", str(tmp_path / "gains.json"), "--duration", "1e12", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"].endswith("MemoryError")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "calibrate-gains"])
@pytest.mark.parametrize(
    "key, value, plant",
    [("joint_limits_rad", [[-0.5, 0.5]], {"kind": "decoupled_linear", "inertia_kg_m2": [1.0]}),
     ("gravity", 9.81, {"kind": "planar_chain", "link_masses_kg": [1.0], "link_lengths_m": [0.3]})],
    ids=["joint_limits_rad", "gravity"],
)
def test_plant_file_unknown_key_exits_one_naming_it(tmp_path, capsys, command, key, value, plant):
    write_plant_inputs(tmp_path, inertia=(1.0,))
    fileio.dump_json(str(tmp_path / "plant.json"), {**plant, key: value})
    out = tmp_path / "out"
    argv = [command, "--plant", str(tmp_path / "plant.json"), "--out", str(out)]
    if command == "simulate":
        argv += ["--gains", str(tmp_path / "gains.json")]
    assert main(argv) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and f"unknown key '{key}'" in diag["message"]
    assert not out.exists()


def test_pipeline_config_null_motion_runs_default_motion(tmp_path):
    """"motion": null reads like an absent key, as "profile": null does."""
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"motion": None, "duration_s": 5})
    out = tmp_path / "null_motion.json"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert fileio.load_json(str(out))["config"]["motion"] == MotionSpec().to_dict()


def test_gain_file_unknown_key_exits_one_naming_it(tmp_path, capsys):
    write_plant_inputs(tmp_path, inertia=(1.0,))
    fileio.dump_json(str(tmp_path / "gains.json"),
                     {"kp_nm_per_rad": [1], "kd_nms_per_rad": [1], "eta": [0], "kpp": 3})
    out = tmp_path / "e.csv"
    assert main(["simulate", "--plant", str(tmp_path / "plant.json"),
                 "--gains", str(tmp_path / "gains.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "ValueError" and "unknown key 'kpp'" in diag["message"]
    assert not out.exists()


# One-joint plant and gain files holding every key their readers take,
# each value an integer where the file allows one.
KIND_FILES = {
    "decoupled": {"kind": "decoupled_linear", "inertia_kg_m2": [1], "physics_dt_s": 0.001},
    "chain": {"kind": "planar_chain", "link_masses_kg": [1], "link_lengths_m": [1], "com_m": [0],
              "inertia_com_kg_m2": [1], "gravity_m_s2": 0, "physics_dt_s": 0.001},
    "gains": {"kp_nm_per_rad": [100], "kd_nms_per_rad": [20], "eta": [0], "omega_n_rad_s": [10],
              "zeta": [1], "feedforward_enabled": [True]},
}


@pytest.mark.parametrize("file, key, value", [
    (file, key, value)
    for file, d in KIND_FILES.items() for key in d if key != "kind"
    for value in ((["false"],) if key == "feedforward_enabled" else
                  ("0.001", True) if key in ("physics_dt_s", "gravity_m_s2") else (["1.0"], [True]))
], ids=str)
def test_plant_and_gain_file_value_of_wrong_kind_exits_one_naming_key(tmp_path, capsys, file,
                                                                      key, value):
    """Numeric strings and bools used to run as numbers, and a "false"
    mask entry as enabled; they are refused as in every other reader. The
    files load as written, integers included."""
    files = {"plant": dict(KIND_FILES["chain" if file == "chain" else "decoupled"]),
             "gains": dict(KIND_FILES["gains"])}
    argv = ["simulate", "--duration", "0.1", "--out", str(tmp_path / "e.csv")]
    for flag, d in files.items():
        fileio.dump_json(str(tmp_path / f"{flag}.json"), d)
        argv += [f"--{flag}", str(tmp_path / f"{flag}.json")]
    assert main(argv) == 0
    files["gains" if file == "gains" else "plant"][key] = value
    for flag, d in files.items():
        fileio.dump_json(str(tmp_path / f"{flag}.json"), d)
    (tmp_path / "e.csv").unlink()
    assert main(argv) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and diag["message"].startswith(key)
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize(
    "command, bad", [("simulate", "plant"), ("simulate", "gains"), ("simulate", "config"),
                     ("calibrate-gains", "plant"), ("calibrate-gains", "config")])
def test_non_object_input_file_exits_one_naming_file(tmp_path, capsys, command, bad):
    """A plant, gain or config file whose top level is not a JSON object."""
    write_plant_inputs(tmp_path, inertia=(1.0,))
    fileio.dump_json(str(tmp_path / "bad.json"), [1.0])
    files = {"plant": tmp_path / "plant.json", "gains": tmp_path / "gains.json", bad: tmp_path / "bad.json"}
    out = tmp_path / "out"
    argv = [command, "--plant", str(files["plant"]), "--out", str(out)]
    if command == "simulate":
        argv += ["--gains", str(files["gains"])]
    if bad == "config":
        argv += ["--config", str(files["config"])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "ValueError"
    assert "bad.json" in diag["message"] and "JSON object" in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize("motion, named", [({"amplitude": 0.3}, "unknown key 'amplitude'"),
                                           ([1], "motion must be a JSON object")])
def test_pipeline_config_bad_motion_exits_one_naming_it(tmp_path, capsys, motion, named):
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"motion": motion, "duration_s": 5})
    out = tmp_path / "bad_motion.json"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "ValueError" and named in diag["message"]
    assert not out.exists()


def test_malformed_signal_and_stream_rows_exit_one_naming_line(tmp_path, capsys):
    good = tmp_path / "good.csv"
    fileio.write_signal_csv(str(good), MotionSignal(np.sin(np.arange(300) / 10.0), 100.0))
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,value\n0.0,1.0\n0.01\n")
    rc = main(["latency", "--signal-a", str(good), "--signal-b", str(bad),
               "--out", str(tmp_path / "lag.json")])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "bad.csv line 3" in diag["message"]

    write_mapping_inputs(tmp_path)
    profile = tmp_path / "profile.json"
    main(["calibrate-map", "--neutral", str(tmp_path / "neutral.json"),
          "--robot", str(tmp_path / "robot.json"), "--out", str(profile)])
    frames = tmp_path / "frames.jsonl"
    frames.write_text(frames.read_text() + "[1, 2]\n")
    rc = main(["map", "--profile", str(profile), "--frames", str(frames),
               "--out", str(tmp_path / "mapped.jsonl")])
    assert rc == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and "frames.jsonl line 4" in diag["message"]


def test_latency_non_finite_fps_exits_one_naming_value(tmp_path, capsys):
    rng = np.random.default_rng(4)
    for view in ("a", "b"):
        (tmp_path / view).mkdir()
        for k in range(4):
            fileio.write_pgm(str(tmp_path / view / f"f{k}.pgm"), rng.integers(0, 256, (16, 16)))
    for fps in ("inf", "nan"):
        rc = main(["latency", "--frames-a", str(tmp_path / "a"), "--frames-b", str(tmp_path / "b"),
                   "--fps", fps, "--region-a", "0,0,16,16,1,0", "--region-b", "0,0,16,16,1,0",
                   "--out", str(tmp_path / "lag.json")])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ValueError" and f"rate {fps} Hz" in diag["message"]
    assert not (tmp_path / "lag.json").exists()


def test_latency_refuses_bad_max_lag_naming_value(tmp_path, capsys):
    wave = MotionSignal(np.sin(np.arange(300) / 10.0), 100.0)
    fileio.write_signal_csv(str(tmp_path / "a.csv"), wave)
    for max_lag in ("inf", "nan", "1e300"):
        rc = main(["latency", "--signal-a", str(tmp_path / "a.csv"),
                   "--signal-b", str(tmp_path / "a.csv"), "--max-lag", max_lag,
                   "--out", str(tmp_path / "lag.json")])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ValueError"
        assert f"max_lag_s {float(max_lag)} " in diag["message"]
    assert not (tmp_path / "lag.json").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--fps", "0", "--fps: rate 0.0 Hz"),
    ("--fps", "inf", "--fps: rate inf Hz"),
    ("--max-lag", "nan", "--max-lag: max_lag_s nan"),
    ("--region-a", "0,0,16,16,nan,0", "--region-a: direction"),
    ("--region-b", "0,0,16,16,inf,0", "--region-b: direction"),
    ("--region-b", "0,0,16,16,1", "--region-b: expected x,y,w,h,dx,dy"),
    ("--region-a", "0,0,1_6,16,1,0", "--region-a: expected x,y,w,h,dx,dy as plain numbers"),
    ("--region-b", None, "--region-b is required"),
    # used to read every frame, then stop naming no flag
    ("--fps", None, "--fps is required with --frames-a"),
])
def test_latency_checks_flags_before_matching(tmp_path, capsys, monkeypatch, flag, value, named):
    """Every flag is checked before any frame is read or matched."""
    from extremctl import latency

    def no_matching(*args, **kwargs):
        raise AssertionError("frames read or block-matched before the flags were checked")

    monkeypatch.setattr(latency, "_match_tiles", no_matching)
    monkeypatch.setattr(fileio, "read_frame_dir", no_matching)
    rng = np.random.default_rng(4)
    for view in ("a", "b"):
        (tmp_path / view).mkdir()
        for k in range(4):
            fileio.write_pgm(str(tmp_path / view / f"f{k}.pgm"), rng.integers(0, 256, (16, 16)))
    flags = {"--fps": "30", "--region-a": "0,0,16,16,1,0", "--region-b": "0,0,16,16,1,0"}
    flags[flag] = value
    argv = ["latency", "--frames-a", str(tmp_path / "a"), "--frames-b", str(tmp_path / "b"),
            "--out", str(tmp_path / "lag.json")]
    for k, v in flags.items():
        argv += [k, v] if v is not None else []
    assert main(argv) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ValueError" and named in diag["message"]
    assert not (tmp_path / "lag.json").exists()


def _write_views(tmp_path, n=40, shape=(16, 16)):
    rng = np.random.default_rng(4)
    for view in ("a", "b"):
        (tmp_path / view).mkdir()
        for k in range(n):
            fileio.write_pgm(str(tmp_path / view / f"f{k:02d}.pgm"), rng.integers(0, 256, shape))


@pytest.mark.parametrize("bad, error, named", [
    ("region", "OutOfBounds", "region (0, 0, 17, 16) outside 16x16 flow"),
    ("shape", "DimensionMismatch", "frame shapes (16, 16) vs (8, 16)"),
    ("count", "ValueError", "need at least 2 frames"),
    ("block", "ValueError", "block 2 must be at least 4 pixels"),
    ("small", "ValueError", "frames (16, 16) smaller than one 32px block"),
])
def test_latency_checks_frames_before_matching(tmp_path, capsys, monkeypatch, bad, error, named):
    """An out-of-frame region, frames of differing shape and fewer than 2
    frames, all on side b, are refused before side a is matched; a bad
    --block wins over the out-of-frame region, as when matching came first."""
    from extremctl import latency

    calls = []
    real = latency._match_tiles
    monkeypatch.setattr(latency, "_match_tiles",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    _write_views(tmp_path)
    region_b, extra = "0,0,16,16,1,0", []
    if bad in ("region", "block", "small"):
        region_b = "0,0,17,16,1,0"
        extra = {"region": [], "block": ["--block", "2"], "small": ["--block", "32"]}[bad]
    elif bad == "shape":
        fileio.write_pgm(str(tmp_path / "b" / "f30.pgm"), np.zeros((8, 16)))
    else:
        for f in sorted((tmp_path / "b").iterdir())[1:]:
            f.unlink()
    rc = main(["latency", "--frames-a", str(tmp_path / "a"), "--frames-b", str(tmp_path / "b"),
               "--fps", "30", "--region-a", "0,0,16,16,1,0", "--region-b", region_b,
               "--out", str(tmp_path / "lag.json")] + extra)
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": named}
    assert calls == []
    assert not (tmp_path / "lag.json").exists()


def test_latency_truncated_frame_exits_one_naming_file(tmp_path, capsys):
    _write_views(tmp_path, n=4)
    bad = tmp_path / "a" / "f02.pgm"
    bad.write_bytes(bad.read_bytes()[:-5])
    rc = main(["latency", "--frames-a", str(tmp_path / "a"), "--frames-b", str(tmp_path / "b"),
               "--fps", "30", "--region-a", "0,0,16,16,1,0", "--region-b", "0,0,16,16,1,0",
               "--out", str(tmp_path / "lag.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"{bad}: truncated PGM pixel data"}
    assert not (tmp_path / "lag.json").exists()


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


def test_latency_flows_equal_frames(tmp_path, capsys):
    """--flows over the fields of --frames gives the same report (integer
    block flows are exact in the files' f4), and a bad flow file exits 1
    naming it."""
    from extremctl.latency import block_match_flow

    t = np.arange(60) / 30.0
    xx = np.arange(32)[None, :]
    rng = np.random.default_rng(2)
    bg = rng.uniform(20.0, 50.0, (32, 32))
    for view, delay in (("a", 0.0), ("b", 0.1)):
        frames = [bg + np.clip(160.0 - 4.0 * (xx - 16.0 - 8.0 * np.sin(2 * np.pi * 0.8 * (tk - delay))) ** 2, 0.0, None)
                  for tk in t]
        (tmp_path / f"frames_{view}").mkdir()
        (tmp_path / f"flows_{view}").mkdir()
        for k, frame in enumerate(frames):
            fileio.write_pgm(str(tmp_path / f"frames_{view}" / f"f{k:02d}.pgm"), frame)
        pgm = fileio.read_frame_dir(tmp_path / f"frames_{view}")
        for k, (a, b) in enumerate(zip(pgm, pgm[1:])):
            flow = block_match_flow(a, b, 8, 6)
            fileio.write_flow(tmp_path / f"flows_{view}" / f"g{k:02d}.xflw", flow)
    common = ["--fps", "30", "--region-a", "0,0,32,32,1,0", "--region-b", "0,0,32,32,1,0",
              "--radius", "6"]
    for kind in ("frames", "flows"):
        assert main(["latency", f"--{kind}-a", str(tmp_path / f"{kind}_a"),
                     f"--{kind}-b", str(tmp_path / f"{kind}_b"), *common,
                     "--out", str(tmp_path / f"{kind}.json")]) == 0
    by_frames = json.loads((tmp_path / "frames.json").read_text())
    by_flows = json.loads((tmp_path / "flows.json").read_text())
    assert by_frames.pop("source") == "frames" and by_flows.pop("source") == "flows"
    assert by_frames == by_flows
    bad = tmp_path / "flows_b" / "g40.xflw"
    bad.write_bytes(bad.read_bytes()[:-4])
    assert main(["latency", "--flows-a", str(tmp_path / "flows_a"),
                 "--flows-b", str(tmp_path / "flows_b"), *common,
                 "--out", str(tmp_path / "bad.json")]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ShortRead" and diag["message"].startswith(f"{bad}: ")
    assert not (tmp_path / "bad.json").exists()


def test_map_refuses_non_integer_timestamp(tmp_path, capsys):
    write_mapping_inputs(tmp_path)
    profile = tmp_path / "profile.json"
    main(["calibrate-map", "--neutral", str(tmp_path / "neutral.json"),
          "--robot", str(tmp_path / "robot.json"), "--out", str(profile)])
    frames = tmp_path / "frames.jsonl"
    rows = frames.read_text().splitlines()
    first = json.loads(rows[0])
    for stamp in (1.9, True):
        first["timestamp_ns"] = stamp
        frames.write_text("\n".join([json.dumps(first)] + rows[1:]) + "\n")
        rc = main(["map", "--profile", str(profile), "--frames", str(frames),
                   "--out", str(tmp_path / "mapped.jsonl")])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ValueError" and "frames.jsonl line 1" in diag["message"]


# ------------------------------------------------------------ config file


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    fileio.dump_json(str(cfg), {"duration": 4.0, "etas": "0.9"})
    out = tmp_path / "from_cfg.csv"
    assert main(["delay-curve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == 1 and rows[0, 0] == 0.9

    out2 = tmp_path / "flag_wins.csv"
    main(["delay-curve", "--config", str(cfg), "--etas", "0", "--out", str(out2)])
    rows2 = np.loadtxt(str(out2), delimiter=",", skiprows=1, ndmin=2)
    assert rows2.shape[0] == 1 and rows2[0, 0] == 0.0


# ------------------------------------------------------- gain calibration


def test_calibrate_gains_single_joint(tmp_path):
    fileio.dump_json(str(tmp_path / "plant.json"),
                     {"kind": "decoupled_linear", "inertia_kg_m2": [1.3], "physics_dt_s": 0.002})
    out = tmp_path / "cal.json"
    argv = ["calibrate-gains", "--plant", str(tmp_path / "plant.json"),
            "--envs", "2", "--window", "5", "--sweeps", "1", "--seed", "7",
            "--out", str(out)]
    assert main(argv) == 0
    cal = fileio.load_json(str(out))
    assert sorted(cal) == ["converged", "gains", "history_kp_nm_per_rad", "joints", "sweeps_run"]
    assert cal["sweeps_run"] == 1
    # kp -> m_eff * omega_n^2 with m_eff ~ 1.3
    assert abs(cal["gains"]["kp_nm_per_rad"][0] - 130.0) < 0.02 * 130.0
    meta = fileio.load_json(str(out) + ".meta.json")
    assert meta["parameters"]["seed"] == 7
    first = out.read_bytes()
    main(argv)
    assert out.read_bytes() == first


def test_simulate_accepts_calibration_output_directly(tmp_path):
    """calibrate-gains output feeds simulate --gains without unwrapping."""
    fileio.dump_json(str(tmp_path / "plant.json"),
                     {"kind": "decoupled_linear", "inertia_kg_m2": [1.3], "physics_dt_s": 0.002})
    cal = tmp_path / "cal.json"
    assert main(["calibrate-gains", "--plant", str(tmp_path / "plant.json"),
                 "--envs", "2", "--window", "5", "--sweeps", "1", "--seed", "7",
                 "--out", str(cal)]) == 0
    ep_wrapped = tmp_path / "ep_wrapped.csv"
    assert main(["simulate", "--plant", str(tmp_path / "plant.json"),
                 "--gains", str(cal), "--ref", "const:0.4", "--duration", "2",
                 "--out", str(ep_wrapped)]) == 0
    # same episode from the bare schedule file
    fileio.dump_json(str(tmp_path / "sched.json"), fileio.load_json(str(cal))["gains"])
    ep_bare = tmp_path / "ep_bare.csv"
    assert main(["simulate", "--plant", str(tmp_path / "plant.json"),
                 "--gains", str(tmp_path / "sched.json"), "--ref", "const:0.4",
                 "--duration", "2", "--out", str(ep_bare)]) == 0
    assert ep_wrapped.read_bytes() == ep_bare.read_bytes()
