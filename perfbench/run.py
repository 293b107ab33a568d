"""extremctl benchmark: four operator workloads, end to end, plus a traced
run that times every module from outside.

One run (the command BENCHMARK.json names, with these arguments):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

runs from the root of a checkout, imports extremctl from its src/, writes
its inputs and outputs under .perfbench_work/ and removes them at the
end. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The lines before it print every
metric by name with its unit, the workload-specific figures, and an
environment record. Exit code 1 if a correctness check failed, 2 if
the program cannot be found. --out appends the full record as one JSON
line.

Many runs, and comparing two sets of them:

    python3 perfbench/run.py suite --seeds 1-10 --seconds S --out FILE [--workloads a,b] [--traced]
    python3 perfbench/run.py compare BASE.json NEW.json

suite runs each workload once per seed in a fresh process, as the
single-run form above, and writes the records, the environment and the spread
of every end-to-end metric. compare gives every (metric, workload) pair
a verdict: better, worse or unresolved.

All load is closed-loop: one caller in one process, no extra threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, Round, Sizes

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7

# End-to-end metrics, reported for every workload (see BENCHMARK.json).
END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# Figures that belong to one workload each; printed and kept in --out.
SPECIFIC = {
    "teleop_sweep": {"realtime_factor": "ratio", "teleop_overall_ms": "ms"},
    "capture_stream": {
        "frame_latency_us_p50": "us",
        "frame_latency_us_p99": "us",
        "frames_per_s": "1/s",
    },
    "gain_calibration": {"probe_releases_per_s": "1/s", "meff_rel_error": "ratio"},
    "video_latency": {"frame_pairs_per_s": "1/s", "lag_error_ms": "ms"},
}
HIGHER_IS_BETTER = {"items_per_s", "realtime_factor", "frames_per_s", "frame_pairs_per_s",
                    "probe_releases_per_s"}


# ------------------------------------------------------------ environment


def _blas_threads() -> int | None:
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------- one run


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "extremctl" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no extremctl package under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import extremctl

    if Path(extremctl.__file__).resolve().parent != (src / "extremctl").resolve():
        sys.stderr.write(f"perfbench: imported extremctl from {extremctl.__file__}\n")
        sys.exit(2)


def measure_setup(name: str, workdir: Path) -> float:
    """Median of SETUP_REPEATS fresh-interpreter import + set-up times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(workdir)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _round_wall(name: str, rd: Round) -> float:
    """The wall_s sample of one round; for the relay, its mean per-frame
    latency (a per-frame median flips between the machine's fast and slow
    phases, a mean over the pass does not)."""
    return float(np.mean(rd.frame_s)) if name == "capture_stream" else rd.wall_s


def _rate(name: str, rd: Round) -> float:
    return rd.items / (rd.batch_s if name == "capture_stream" else rd.wall_s)


def end_to_end(name: str, rounds: list[Round], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": float(np.median([_round_wall(name, rd) for rd in rounds])),
        "items_per_s": float(np.median([_rate(name, rd) for rd in rounds])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def specific(name: str, rounds: list[Round], e2e: dict) -> dict:
    info = {k: float(np.median([rd.info[k] for rd in rounds])) for k in rounds[0].info}
    if name == "teleop_sweep":
        info["realtime_factor"] = e2e["items_per_s"]
    elif name == "capture_stream":
        frames = np.concatenate([rd.frame_s for rd in rounds]) * 1e6
        info["frame_latency_us_p50"] = float(np.percentile(frames, 50))
        info["frame_latency_us_p99"] = float(np.percentile(frames, 99))
        info["frames_per_s"] = e2e["items_per_s"]
    elif name == "gain_calibration":
        info["probe_releases_per_s"] = e2e["items_per_s"]
    else:
        info["frame_pairs_per_s"] = e2e["items_per_s"]
    return info


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](workdir, seed, sizes)
        workload.generate()
        setup_s = measure_setup(name, workdir)
        workload.setup()
        workload.warm_up()

        tracer = tracing.Tracer()
        plain: list[Round] = []
        traced: list[Round] = []
        spent: list[float] = []
        start = time.perf_counter()
        while True:
            gc.collect()  # no round pays for garbage an earlier one left
            t0 = time.perf_counter()
            use_trace = trace and len(traced) < len(plain)
            if use_trace:
                with tracer.installed():
                    rd = workload.round()
                traced.append(rd)
            else:
                rd = workload.round()
                plain.append(rd)
            workload.check(rd)
            rd.outputs = None  # keep peak_rss_mb independent of the round count
            spent.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if trace and not traced:
                continue
            if elapsed + statistics.median(spent) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = plain + traced
    attempted = sum(rd.checks for rd in done)
    failed = sum(rd.failed for rd in done)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(done),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "round_wall_s": [rd.wall_s for rd in plain],
    }
    e2e = end_to_end(name, plain, setup_s)
    if trace:
        layers = tracing.layer_metrics(tracer, len(traced), sum(rd.wall_s for rd in traced))
        layers["trace.overhead_s"] = float(
            np.median([_round_wall(name, rd) for rd in traced])
            - np.median([_round_wall(name, rd) for rd in plain])
        )
        record["metrics"] = {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in layers.items()}
        record["untraced_wall_s"] = e2e["wall_s"]
    else:
        units = {**END_TO_END, **SPECIFIC[name]}
        values = {**e2e, **specific(name, plain, e2e)}
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return record


def print_report(record: dict, env: dict) -> None:
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['rounds']} rounds, {record['failed']}/{record['attempted']} checks failed "
          f"(ops_failed_ratio {record['ops_failed_ratio']:.6g})")
    for k, m in record["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print("# environment " + json.dumps(env, sort_keys=True))


def main_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (the benchmark's tests)")
    args = parser.parse_args(argv)
    _import_program()

    sizes = Sizes.tiny() if args.tiny else Sizes()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    env = environment()
    record["env"] = env
    print_report(record, env)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    wanted = tracing.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: record["metrics"][k] for k in wanted},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------- suite, compare


def spread(values) -> float:
    """Interquartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main_suite(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py suite")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--traced", action="store_true", help="one traced run per workload too")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    lines = ROOT / ".perfbench_work" / f"suite-{os.getpid()}.jsonl"
    lines.parent.mkdir(exist_ok=True)
    ok = True
    try:
        for name in args.workloads.split(","):
            jobs = [(s, 0) for s in seeds] + ([(seeds[0], 1)] if args.traced else [])
            for seed, trace in jobs:
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(lines)]
                t0 = time.perf_counter()
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
                print(f"{name} seed {seed} trace {trace}: exit {done.returncode} "
                      f"in {time.perf_counter() - t0:.1f} s {last}", flush=True)
                if done.returncode != 0:
                    print(done.stderr, flush=True)
                    ok = False
        records = [json.loads(line) for line in lines.read_text().splitlines()]
    finally:
        lines.unlink(missing_ok=True)

    summary = {}
    for name in args.workloads.split(","):
        runs = [r for r in records if r["workload"] == name and r["trace"] == 0]
        for metric in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                continue
            s = spread(values)
            bound = bounds.get(metric)
            summary[f"{name}/{metric}"] = {"median": statistics.median(values), "spread": s}
            flag = "" if metric == "setup_s" or bound is None or s < bound / 3 else "  <-- above bound/3"
            print(f"{name:18s} {metric:12s} median {statistics.median(values):.6g} "
                  f"spread {s:.4f} bound {bound}{flag}")
    out = {"env": environment(), "seconds": args.seconds, "seeds": seeds,
           "summary": summary, "runs": records}
    Path(args.out).write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    return 0 if ok else 1


def verdict(base: list, new: list, higher_better: bool, bound: float) -> str:
    """better / worse / unresolved for two sets of runs paired by seed.

    Better: the new median beats the base median by more than the base's
    interquartile distance, and the new run wins at least 9 in 10 pairs.
    Worse: the new median loses by more than both the bound (a share of
    the base median) and that distance. Anything else is unresolved.
    """
    sign = 1.0 if higher_better else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) >= 2 else (mb, mb, mb)
    noise = q3 - q1
    gain = sign * (mn - mb)
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new)) / len(base)
    if gain > noise and wins >= 0.9:
        return "better"
    if -gain > max(noise, bound * abs(mb)):
        return "worse"
    return "unresolved"


def main_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def by_key(path):
        runs = json.loads(Path(path).read_text())["runs"]
        return {(r["workload"], r["seed"]): r for r in runs if r["trace"] == 0}

    base, new = by_key(args.base), by_key(args.new)
    worse = 0
    for name in WORKLOADS:
        seeds = sorted(s for (w, s) in base if w == name and (w, s) in new)
        if not seeds:
            continue
        for metric in {**END_TO_END, **SPECIFIC[name]}:
            b = [base[(name, s)]["metrics"][metric]["value"] for s in seeds]
            n = [new[(name, s)]["metrics"][metric]["value"] for s in seeds]
            v = verdict(b, n, metric in HIGHER_IS_BETTER, bounds.get(metric, 0.1))
            worse += v == "worse"
            print(f"{name:18s} {metric:22s} {statistics.median(b):12.6g} -> "
                  f"{statistics.median(n):12.6g}  {v}  (n={len(seeds)})")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "suite":
        return main_suite(argv[1:])
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
