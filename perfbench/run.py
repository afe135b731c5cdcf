"""Benchmark of the cavmem toolkit: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload scans --seed 1 --seconds 25 --trace 0

The package is imported from `src/` of the current directory.  The run first
times fresh interpreter starts (set-up), then repeats rounds of the
workload's operations until `--seconds` have passed, and prints one JSON
line with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`).  Times are corrected for host throttling (see throttle.py).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import throttle

SETUP_STARTS = 5
SETUP_CODE = "import time\n_t0 = time.perf_counter()\n" + throttle.PY_PROBE_SOURCE + """
import json, sys
sys.path.insert(0, sys.argv[1])
import cavmem.cli
from cavmem.config import ExperimentConfig
cfg = ExperimentConfig()
cfg.memory_config(), cfg.vapour_params(), cfg.parameter_space(), cfg.ga_settings()
_t1 = time.perf_counter()
signal.setitimer(signal.ITIMER_REAL, 0)
print(json.dumps({"t0": _t0, "t1": _t1, "samples": _probe_samples}))
"""
THIRD_PARTY = ("numpy", "scipy")


def measure_setup(src, importtime):
    """Set-up time: fresh interpreters that import the package and build the
    default configuration.  One untimed warm-up start (it also compiles the
    package's bytecode), then the median of SETUP_STARTS starts, corrected
    and raw.  With `importtime`, also the median import time of the numpy
    and scipy modules."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", SETUP_CODE, src]
    starts = []
    for _ in range(SETUP_STARTS + 1):
        begin = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - begin
        if proc.returncode != 0:
            raise SystemExit(f"set-up start failed:\n{proc.stderr}")
        starts.append((wall, json.loads(proc.stdout.splitlines()[-1]), proc.stderr))
    raw, corrected, third_party = [], [], []
    for wall, child, stderr in starts[1:]:
        clock = throttle.Clock(child["samples"], throttle.PY_PROBE_S,
                               origin=child["t0"])
        inside = child["t1"] - child["t0"]
        raw.append(wall)
        corrected.append(wall - inside + clock.span(child["t0"], child["t1"]))
        if importtime:
            third_party.append(_third_party_import_s(stderr))
    return (statistics.median(corrected), statistics.median(raw),
            statistics.median(third_party) if importtime else None)


def _third_party_import_s(stderr):
    """Sum of self import times of numpy and scipy modules (-X importtime)."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name.split(".")[0] in THIRD_PARTY and fields[0].strip().isdigit():
            total_us += int(fields[0])
    return total_us * 1e-6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scans", "tuning", "spectroscopy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cavmem", "__init__.py")):
        print(f"no cavmem package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    setup_s, setup_raw_s, third_party_s = measure_setup(src, bool(args.trace))

    sys.path.insert(0, src)
    import tracing
    import workloads
    run_round, detail = workloads.WORKLOADS[args.workload]

    out_root = os.path.join(root, ".perfbench_out")
    run_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    probe = throttle.Probe()
    rounds = []
    start = time.perf_counter()
    probe.start()
    try:
        # whole rounds until the time is up; a traced run alternates plain
        # and traced rounds and needs one of each
        while not rounds or time.perf_counter() - start < args.seconds \
                or (args.trace and len(rounds) < 2):
            k = len(rounds)
            traced = bool(args.trace) and k % 2 == 1
            rnd = workloads.Round(os.path.join(run_dir, f"r{k}"),
                                  tracer if traced else None)
            rng = np.random.default_rng([args.seed, k])
            workloads.clear_program_caches()
            if traced:
                tracer.install()
            try:
                run_round(rnd, rng)
            finally:
                if traced:
                    tracer.remove()
            shutil.rmtree(rnd.out_dir, ignore_errors=True)
            rounds.append(rnd)
    finally:
        probe.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(out_root)  # only if empty: spans files stay
    clock = throttle.Clock(probe.samples, throttle.NUMPY_PROBE_S)

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    plain = [r for r in rounds if r.tracer is None]
    traced = [r for r in rounds if r.tracer is not None]
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "ops_per_round": rounds[0].attempted,
            "round_s": [r.wall(clock) for r in rounds],
            "raw_round_s": [r.wall(None) for r in rounds],
            "raw_setup_s": setup_raw_s,
            "probe_speed": [float(np.percentile(clock.speed, q)) for q in (5, 50, 95)],
            "detail": {name: {"value": v, "unit": u}
                       for name, (u, v) in detail(plain, clock).items()},
            "raw_detail": {name: {"value": v, "unit": u}
                           for name, (u, v) in detail(plain, None).items()}}
    if args.trace:
        metrics = tracer.layer_metrics(len(traced), clock)
        metrics["setup.third_party_import_s"] = (third_party_s, "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall(clock) for r in traced)
            - statistics.median(r.wall(clock) for r in plain), "s")
        os.makedirs(out_root, exist_ok=True)
        spans_path = os.path.join(out_root, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        info["spans"] = os.path.relpath(spans_path, root)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.wall(clock) for r in plain), "s"),
            "cli_s": (statistics.median(r.cli_time(clock) for r in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
