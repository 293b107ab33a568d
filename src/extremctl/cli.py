"""extremctl command-line interface.

One subcommand per capability: calibrate-map, map, calibrate-gains,
simulate, delay-curve, latency, pipeline. Conventions shared by all:

* --config FILE merges a JSON object of defaults; explicit flags win. Its
  keys are the command's flag names, hyphen or underscore (for pipeline
  also the PipelineConfig fields); any other key is refused.
* --seed (or the EXTREMCTL_SEED environment variable) makes stochastic
  commands bit-reproducible; rerunning with identical inputs rewrites the
  primary outputs byte for byte.
* Wall-clock metadata lives next to each output in <out>.meta.json, never
  inside the primary file.
* CSV columns carry units in their headers; readers only rely on column
  order.

Exit codes: 0 success, 1 operation error (JSON diagnostics on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .errors import ExtremControlError, finite, finite_positive, json_object, number
from . import fileio
from .impedance import CalibrationConfig, calibrate_chain
from .latency import MotionSignal, RegionSpec, analyze_pair
from .mapping import (
    CalibrationProfile,
    FrameRefused,
    LinkSet,
    RobotModel,
    calibrate,
    map_frame,  # noqa: F401  perfbench/tracing.py times map_frame under this name too
    map_frames,
)
from .pipeline import (
    PipelineConfig,
    fit_latency_line,
    latency_budget,
    run_pipeline,
    run_pipeline_sweep,
)
from .plant import (
    GainSchedule,
    make_sinusoid,
    plant_from_dict,
    run_episode,
    simulate_delay_curve,
)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_meta(out_path: str, command: str, resolved: dict) -> None:
    meta = {
        "command": command,
        "created_unix_ns": time.time_ns(),
        "parameters": resolved,
    }
    fileio.dump_json(str(out_path) + ".meta.json", meta)


def _load_object(path) -> dict:
    """A JSON file whose top level must be an object; refused naming the file."""
    return json_object(fileio.load_json(path), f"{path}: top level")


class _Merged:
    """Flag/--config/default resolution; flags win, then config, then default.
    A --config key that names no flag (nor, for pipeline, a PipelineConfig
    field) is refused, so a misspelt key never runs as its default."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = _load_object(args.config) if args.config else {}
        flags = set(vars(args)) - {"command", "config", "out"}
        keys = flags | {name.replace("_", "-") for name in flags}
        if args.command == "pipeline":
            keys |= set(PipelineConfig.__dataclass_fields__)
        json_object(self.config, str(args.config), keys)

    def get(self, name: str, default=None, kind: type = str):
        """The flag's value, else the --config value, else default. A
        --config value must be of the flag's JSON kind: an int flag takes
        an int, a float flag a number, a string flag a string, and none
        takes a bool; anything else is refused naming the key."""
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is not None:
            return value
        key = name if name in self.config else name.replace("-", "_")
        value = self.config.get(key)
        if value is None:
            return default
        where = f"{self.args.config}: {key} {value!r}"
        if kind is float:
            return number(value, where)
        if type(value) is not kind:
            raise ValueError(f"{where} must be {'an integer' if kind is int else 'a string'}")
        return value

    def required(self, name: str) -> str:
        """get(name), refused naming the flag when no flag or key gives it."""
        value = self.get(name)
        if value is None:
            raise ValueError(f"--{name} is required")
        return value

    def seed(self) -> int:
        """--seed, else the --config seed, else EXTREMCTL_SEED, else 0; a
        negative seed is refused naming where it came from."""
        value = self.get("seed", kind=int)
        if value is None:
            text = os.environ.get("EXTREMCTL_SEED", "0")
            if not text.strip().isdecimal():
                raise ValueError(f"EXTREMCTL_SEED {text!r} must be a non-negative integer")
            return int(text)
        if value < 0:
            where = f"--seed {value}" if self.args.seed is not None else f"{self.args.config}: seed {value}"
            raise ValueError(f"{where} must be a non-negative integer")
        return value


def _reals(text: str, where: str, sep: str = ",") -> list[float]:
    """The finite numbers written in a text, `sep` between them; blank
    items are skipped. Anything else is refused naming `where`."""
    values = []
    for part in filter(str.strip, text.split(sep)):
        try:
            values.append(float(part))
        except ValueError:
            values.append(part)  # finite refuses it as not a number
    return [finite(v, where) for v in values]


def _parse_etas(text: str, flag: str = "--etas") -> list[float]:
    """A comma list of etas or an inclusive start:stop:step range."""
    etas = _reals(text, flag, ":" if ":" in text else ",")
    if ":" in text:
        if len(etas) != 3 or text.count(":") != 2:
            raise ValueError(f"{flag}: eta range must be start:stop:step, got {text!r}")
        start, stop, step_sz = etas
        if step_sz <= 0:
            raise ValueError(f"{flag}: eta step must be positive")
        etas = [float(e) for e in np.arange(start, stop + step_sz / 2, step_sz)]
    if not etas:
        raise ValueError(f"{flag} {text!r} holds no eta")
    return etas


def _parse_reference(text: str):
    kind, _, rest = text.partition(":")
    n = {"sin": 2, "const": 1, "ramp": 1}.get(kind)
    values = _reals(rest, f"--ref {kind}") if n else []
    if len(values) != n:
        raise ValueError(f"--ref {text!r} is not sin:A,omega, const:x or ramp:v")
    if kind == "sin":
        return make_sinusoid(*values)
    if kind == "const":
        return lambda t: (values[0], 0.0)
    return lambda t: (values[0] * t, values[0])


def _cmd_calibrate_map(args: argparse.Namespace) -> int:
    m = _Merged(args)
    neutral_path, robot_path = m.required("neutral"), m.required("robot")
    neutral = LinkSet.from_dict(_load_object(neutral_path))
    robot = RobotModel.from_dict(_load_object(robot_path))
    profile = calibrate(neutral, robot)
    fileio.dump_json(args.out, profile.to_dict())
    _write_meta(args.out, "calibrate-map", {"neutral": neutral_path, "robot": robot_path})
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    m = _Merged(args)
    profile_path, path = m.required("profile"), m.required("frames")
    profile = CalibrationProfile.from_dict(_load_object(profile_path))
    stream = fileio.read_linkset_jsonl(path)
    # The whole stream maps before --out opens: a refused frame leaves no file.
    try:
        mapped = map_frames(profile, stream.poses)
    except FrameRefused as exc:
        raise ValueError(f"{path} line {stream.lines[exc.index]}: {exc}") from None
    fileio.write_linkset_jsonl(args.out, stream.stamps, mapped)
    _write_meta(args.out, "map", {"profile": profile_path, "frames": path})
    return 0


def _cmd_calibrate_gains(args: argparse.Namespace) -> int:
    m = _Merged(args)
    seed = m.seed()
    plant_path = m.required("plant")
    plant = plant_from_dict(_load_object(plant_path))
    config = CalibrationConfig(
        omega_n=m.get("omega-n", 10.0, float),
        zeta=m.get("zeta", 1.0, float),
        n_envs=m.get("envs", 16, int),
        perturbation=m.get("dq", 0.05, float),
        measure_window=m.get("window", 10.0, float),
        sweeps=m.get("sweeps", 3, int),
        convergence_tol=m.get("tol", 0.02, float),
    )
    result = calibrate_chain(plant, config, seed=seed)
    fileio.dump_json(args.out, result.to_dict())
    _write_meta(args.out, "calibrate-gains", {"plant": plant_path, "seed": seed})
    return 0


def _load_gains(path) -> GainSchedule:
    # calibrate-gains wraps the schedule under "gains"; accept either layout
    d = _load_object(path)
    if "kp_nm_per_rad" not in d and "gains" in d:
        d = d["gains"]
    return GainSchedule.from_dict(d)


def _cmd_simulate(args: argparse.Namespace) -> int:
    m = _Merged(args)
    plant_path, gains_path = m.required("plant"), m.required("gains")
    reference = _parse_reference(m.get("ref", "sin:0.3,3.14"))
    plant = plant_from_dict(_load_object(plant_path))
    gains = _load_gains(gains_path)
    record = run_episode(
        plant,
        gains,
        reference,
        duration=m.get("duration", 10.0, float),
        control_dt=m.get("control-dt", 0.02, float),
    )
    n = record.n_joints
    with open(args.out, "w", newline="") as f:
        cols = ["t_s"]
        for j in range(n):
            cols += [f"q_target_rad_j{j}", f"q_measured_rad_j{j}"]
        f.write(",".join(cols) + "\n")
        for k in range(record.t.size):
            row = [_fmt(record.t[k])]
            for j in range(n):
                row += [_fmt(record.q_target_held[k, j]), _fmt(record.q[k, j])]
            f.write(",".join(row) + "\n")
    _write_meta(args.out, "simulate", {"plant": plant_path, "gains": gains_path})
    return 0


def _cmd_delay_curve(args: argparse.Namespace) -> int:
    m = _Merged(args)
    etas = _parse_etas(m.get("etas", "0,0.2,0.4,0.6,0.8,0.9"))
    omega_n = m.get("omega-n", 10.0, float)
    points = simulate_delay_curve(
        omega_n=omega_n,
        etas=etas,
        control_dt=m.get("control-dt", 0.02, float),
        wave_omega=m.get("wave-omega", 3.14, float),
        duration=m.get("duration", 12.0, float),
    )
    with open(args.out, "w", newline="") as f:
        f.write("eta,theory_delay_ms,measured_delay_ms,confidence\n")
        for p in points:
            f.write(
                f"{_fmt(p.eta)},{_fmt(p.theory_s * 1e3)},"
                f"{_fmt(p.measured_s * 1e3)},{_fmt(p.confidence)}\n"
            )
    _write_meta(args.out, "delay-curve", {"etas": etas, "omega_n": omega_n})
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    m = _Merged(args)
    fps = m.get("fps", None, float)
    if fps is not None:
        finite_positive(fps, "--fps: rate", unit="Hz")
    max_lag = finite_positive(m.get("max-lag", 1.0, float), "--max-lag: max_lag_s")
    block, radius = m.get("block", 8, int), m.get("radius", 4, int)

    def region(which: str) -> RegionSpec:
        text = m.required(f"region-{which}")
        try:
            return RegionSpec.parse(text)
        except ValueError as exc:
            raise ValueError(f"--region-{which}: {exc}") from None

    def side(which: str):
        """(reader, path, region) for one side; every flag is checked here,
        before any input is read or matched."""
        for kind, reader in (
            ("signal", fileio.read_signal_csv),
            ("flows", fileio.iter_flow_dir),
            ("frames", fileio.read_frame_dir),
        ):
            path = m.get(f"{kind}-{which}")
            if path is None:
                continue
            if kind == "signal":
                return reader, path, None
            if fps is None:
                raise ValueError(f"--fps is required with --{kind}-{which}")
            return reader, path, region(which)
        raise ValueError(f"side {which}: give --signal-{which}, --frames-{which}, or --flows-{which}")

    (read_a, path_a, region_a), (read_b, path_b, region_b) = side("a"), side("b")
    source_a, source_b = read_a(path_a), read_b(path_b)
    report = analyze_pair(
        source_a,
        source_b,
        region_a=region_a,
        region_b=region_b,
        fps=fps,
        max_lag_s=max_lag,
        block=block,
        radius=radius,
    )
    fileio.dump_json(args.out, report.to_dict())
    _write_meta(args.out, "latency", {"fps": fps, "max_lag_s": max_lag})
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    m = _Merged(args)
    fields = {k: v for k, v in m.config.items() if k in PipelineConfig.__dataclass_fields__}
    fields["seed"] = m.seed()
    duration = m.get("duration", None, float)
    if duration is not None:
        fields["duration_s"] = duration
    config = PipelineConfig.from_dict(fields)
    eta = m.get("eta", None, float)
    if eta is not None:
        config = replace(config, eta=eta)

    sweep = m.get("eta-sweep")
    out: dict = {"config": config.to_dict()}
    if sweep is not None:
        etas = _parse_etas(sweep, "--eta-sweep")
        budgets = [latency_budget(r) for r in run_pipeline_sweep(config, etas)]
        out["budgets"] = [b.to_dict() for b in budgets]
        if len(budgets) >= 3:
            fit = fit_latency_line(
                [b.control_ms for b in budgets], [b.overall_ms for b in budgets]
            )
            out["fit"] = fit.to_dict()
    else:
        record = run_pipeline(config)
        out["budget"] = latency_budget(record).to_dict()
        signals_out = m.get("signals-out")
        if signals_out is not None:
            rate = config.lowlevel_rate_hz
            fileio.write_signal_csv(
                f"{signals_out}_human.csv",
                MotionSignal(record.human_signal, rate),
                value_header="displacement_m",
            )
            fileio.write_signal_csv(
                f"{signals_out}_robot.csv",
                MotionSignal(record.q, rate),
                value_header="q_rad",
            )
    fileio.dump_json(args.out, out)
    _write_meta(args.out, "pipeline", {"seed": config.seed})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremctl",
        description="Low-latency teleoperation toolkit: pose retargeting, gain "
        "calibration, feedforward delay analysis, latency estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_out: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of defaults; explicit flags win")
        p.add_argument("--seed", type=int, help="RNG seed (also EXTREMCTL_SEED)")
        if needs_out:
            p.add_argument("--out", required=True, help="primary output path")
        return p

    p = add("calibrate-map", "one-shot retarget calibration from a neutral pose")
    p.add_argument("--neutral", help="performer neutral LinkSet JSON")
    p.add_argument("--robot", help="robot model JSON")

    p = add("map", "retarget a JSONL stream of captured frames")
    p.add_argument("--profile", help="calibration profile JSON")
    p.add_argument("--frames", help="input JSONL, one frame per line")

    p = add("calibrate-gains", "oscillation-based impedance calibration")
    p.add_argument("--plant", help="plant model JSON")
    p.add_argument("--omega-n", type=float, help="target natural frequency rad/s")
    p.add_argument("--zeta", type=float, help="target damping ratio")
    p.add_argument("--envs", type=int, help="parallel environments per joint")
    p.add_argument("--dq", type=float, help="release perturbation rad")
    p.add_argument("--window", type=float, help="measurement window s")
    p.add_argument("--sweeps", type=int, help="max calibration sweeps")
    p.add_argument("--tol", type=float, help="fractional gain convergence tolerance")

    p = add("simulate", "closed-loop episode under held targets")
    p.add_argument("--plant", help="plant model JSON")
    p.add_argument("--gains", help="gain schedule JSON")
    p.add_argument("--ref", help="reference: sin:A,omega | const:x | ramp:v")
    p.add_argument("--duration", type=float, help="episode length s")
    p.add_argument("--control-dt", type=float, help="target hold period s")

    p = add("delay-curve", "measured vs predicted tracking delay across eta")
    p.add_argument("--etas", help="comma list or start:stop:step")
    p.add_argument("--omega-n", type=float, help="natural frequency rad/s")
    p.add_argument("--control-dt", type=float, help="target hold period s")
    p.add_argument("--wave-omega", type=float, help="reference sinusoid rad/s")
    p.add_argument("--duration", type=float, help="episode length s")

    p = add("latency", "time offset between two observations of one motion")
    for which in ("a", "b"):
        p.add_argument(f"--signal-{which}", help=f"side {which}: CSV t,value")
        p.add_argument(f"--frames-{which}", help=f"side {which}: directory of PGM frames")
        p.add_argument(f"--flows-{which}", help=f"side {which}: directory of XFLW flows")
        p.add_argument(f"--region-{which}", help=f"side {which}: x,y,w,h,dx,dy")
    p.add_argument("--fps", type=float, help="frame rate for frame/flow input")
    p.add_argument("--max-lag", type=float, help="search range s (default 1.0)")
    p.add_argument("--block", type=int, help="matching block size px")
    p.add_argument("--radius", type=int, help="matching search radius px")

    p = add("pipeline", "full capture-to-plant harness with latency budget")
    p.add_argument("--eta", type=float, help="single feedforward ratio")
    p.add_argument("--eta-sweep", help="comma list or start:stop:step of ratios")
    p.add_argument("--duration", type=float, help="run length s")
    p.add_argument("--signals-out", help="prefix for human/robot signal CSV pair")

    return parser


_HANDLERS = {
    "calibrate-map": _cmd_calibrate_map,
    "map": _cmd_map,
    "calibrate-gains": _cmd_calibrate_gains,
    "simulate": _cmd_simulate,
    "delay-curve": _cmd_delay_curve,
    "latency": _cmd_latency,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except (ExtremControlError, ValueError, KeyError, OSError, MemoryError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
