"""Write a benchmark record: numeric fingerprints and the environment.

    python tools/record_bench.py OUT.json

Each fingerprint is a cheap, deterministic output of the physics that a
speed-up must not move; two records are compared value by value with `==`.
The record holds three sections:

- `fingerprints`: the GA objective at one vector, the default `store` run's
  total efficiency and photon-closure residual, three lifetime-scan points,
  the best of a 4-generation slice GA, the noise-free default Doppler fit,
  criterion 5's two-line separation and the sha256 of every array of a
  pinned random 48-lane batch;
- `timings`: per-layer wall times, which vary from run to run and are
  never compared with `==`: one RK4 loop step at 1, 24 and 192 lanes;
- `environment`: Python, numpy and scipy versions and the CPU count.

It needs only the standard library, numpy and the package (scipy is used by
the package itself).  The slice GA's fixed genes and box
are read from `perfbench/workloads.py`, whose `tuning` workload runs it.
The test suite imports `random_lanes`, `pinned_batch` and
`criterion_5_lines` from here, so a pin and its record entry are one
computation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cavmem import atomic, fitting, memory, optimize, vapour  # noqa: E402
from cavmem.config import ExperimentConfig  # noqa: E402

OBJECTIVE_VECTOR = [0.0, 0.2, 5.0, -0.1, 1.5, 1.6, 12.5, 2.7]
LIFETIMES_NS = [20.0, 60.0, 104.0]
DOPPLER_GRID = np.linspace(-12.0, 4.0, 400)     # the spectroscopy workload's


def _store(ec: ExperimentConfig) -> dict:
    """Total efficiency and closure residual of the default `store` run."""
    res = memory.simulate_storage_retrieval(
        ec.memory_config(), ec.pulse("signal"), ec.pulse("write"), ec.pulse("read"),
        dt_ns=0.01)
    book = res.bookkeeping
    accounted = book["output_total"] + book["loss_polarization"] + book["loss_spin"] \
        + book["loss_cavity_internal"] + book["loss_dephasing"] \
        + book["residual_excitation"]
    return {"total_efficiency": res.total_efficiency,
            "closure_residual": 1.0 - accounted / res.input_photons}


def _slice_ga(ec: ExperimentConfig) -> dict:
    """Best of the `tuning` workload's slice GA from the configured seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True      # leave no cache files in the benchmark's folder
    from workloads import SLICE_BOX, SLICE_FIXED

    bounds = ec.doc["optimizer"]["bounds"]
    slice_bounds = dict(ec.parameter_space().restrict(**SLICE_FIXED).bounds)
    for name, (lo, hi) in SLICE_BOX.items():
        slice_bounds[name] = (lo, hi, bounds[name][2])
    settings = replace(ec.ga_settings(), population=48, generations=4, mutation_prob=0.5)
    trace = optimize.run_ga(optimize.ParameterSpace(bounds=slice_bounds),
                            ec.memory_config(), optimize.DriftModel(enabled=False),
                            settings, ec.seed)
    return {"objective": trace.best["objective"], "parameters": trace.best["parameters"]}


def _doppler_fit(ec: ExperimentConfig) -> dict:
    """Fit of the default vapour's noise-free spectrum at the default field."""
    y = vapour.one_photon_spectrum(ec.vapour_params(), ec.field_mt, "sigma-",
                                   DOPPLER_GRID)
    fit = fitting.fit_doppler_absorption(DOPPLER_GRID, y,
                                         temperature_c=ec.vapour_params().temperature_c)
    return {"parameters": fit.parameters, "residual_norm": fit.residual_norm,
            "iterations": fit.iterations}


def criterion_5_lines() -> tuple[int, float]:
    """Criterion 5 at 169 mT: how many strong two-photon lines lie within
    0.5 GHz of the strongest one, itself included, and the nearest one's
    separation from it in MHz (0 when there is none)."""
    grouped = atomic.group_two_photon_lines(atomic.two_photon_lines(
        169.0, "sigma-", "sigma-", total_window_ghz=(-20.0, 5.0)))
    smax = max(s for _, s, _ in grouped)
    main = max(grouped, key=lambda t: t[1])
    near = [t for t in grouped if abs(t[0] - main[0]) <= 0.5 and t[1] > 0.05 * smax]
    others = [t for t in near if t is not main]
    return len(near), min(abs(t[0] - main[0]) for t in others) * 1e3 if others else 0.0


def random_lanes(rng, size):
    """Signal, write and read pulse lists of `size` random GA vectors with
    random phases and carriers."""
    space = optimize.ParameterSpace()
    lanes = []
    for x in rng.uniform(space.lower(), space.upper(),
                         size=(size, len(optimize.PARAMETER_NAMES))):
        sig, write, read = optimize._pulses_from_vector(x)
        lanes.append((replace(sig, phase_rad=float(rng.uniform(-3.0, 3.0)),
                              carrier_detuning_ghz=float(rng.uniform(-0.2, 0.2))),
                      replace(write, phase_rad=float(rng.uniform(-3.0, 3.0))),
                      replace(read, phase_rad=float(rng.uniform(-3.0, 3.0)),
                              carrier_detuning_ghz=float(rng.uniform(-0.5, 0.5)))))
    return [list(c) for c in zip(*lanes)]


def pinned_batch(seed: int, size: int) -> dict:
    """Loop steps and the sha256 of every array of the default memory's
    batch of `size` random lanes drawn from `seed`, at dt 0.02 with its
    output flux."""
    signals, writes, reads = random_lanes(np.random.default_rng(seed), size)
    main, c_ref, _ = memory.simulate_batch(memory.MemoryConfig(), signals, writes, reads,
                                           0.0, 0.02, keep_flux=True)
    arrays = {k: v for k, v in main.items() if isinstance(v, np.ndarray)}
    arrays["reference_counts"] = c_ref
    return {"loop_steps": main["loop_steps"],
            "sha256": {k: hashlib.sha256(v.tobytes()).hexdigest()
                       for k, v in arrays.items()}}


def step_timings() -> dict:
    """Microseconds per RK4 loop step at 1, 24 and 192 lanes: the best of 5
    wall times of `_integrate_batch` over random lanes (seed 5) at dt 0.02,
    divided by the loop steps that the run returns."""
    out = {}
    for size in (1, 24, 192):
        signals, writes, reads = random_lanes(np.random.default_rng(5), size)
        par = memory._pulse_par_arrays(memory.MemoryConfig(), signals, writes, reads, 0.0)
        k_start, *_, k_end = memory._lane_steps(par, 0.02)
        t0, t1 = 0.02 * int(k_start.min()), 0.02 * int(k_end.max())
        best = math.inf
        for _ in range(5):
            begin = time.perf_counter()
            run = memory._integrate_batch(par, t0, t1, 0.02)
            best = min(best, time.perf_counter() - begin)
        out[str(size)] = best / run["loop_steps"] * 1e6
    return out


def record() -> dict:
    import scipy

    ec = ExperimentConfig()
    mem = ec.memory_config()
    lifetimes = memory.lifetime_scan(mem, ec.pulse("signal"), ec.pulse("write"),
                                     ec.pulse("read"), LIFETIMES_NS, dt_ns=0.02)
    return {
        "fingerprints": {
            "objective": optimize.objective(OBJECTIVE_VECTOR, mem),
            "store": _store(ec),
            "lifetime_scan": dict(zip(map(repr, LIFETIMES_NS), lifetimes.tolist())),
            "slice_ga": _slice_ga(ec),
            "doppler_fit": _doppler_fit(ec),
            "criterion_5_separation_mhz": criterion_5_lines()[1],
            "pinned_batch": pinned_batch(5, 48),
        },
        "timings": {"rk4_step_us": step_timings()},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "cpus": os.cpu_count()},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/record_bench.py OUT.json", file=sys.stderr)
        return 2
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=2, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
