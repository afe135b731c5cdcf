"""Write a benchmark record: numeric fingerprints and the environment.

    python tools/record_bench.py OUT.json

Each fingerprint is a cheap, deterministic output of the physics that a
speed-up must not move; two records are compared value by value with `==`.
The record holds four sections:

- `fingerprints`: the GA objective at one vector, the default `store` run's
  total efficiency and photon-closure residual, three lifetime-scan points,
  four bandwidth-scan points, the best of a 4-generation slice GA, the
  noise-free default Doppler fit, the cavity, lifetime and line fits of
  seeded noisy data shaped like the `spectroscopy` workload's (each with
  its parameters, residual norm, iterations and flags), criterion 5's
  two-line separation, the
  sha256 of every array of a pinned random 48-lane batch, the sha256 of
  the 301-point `cavity resmap` table's CSV bytes and the sha256 of the
  CSV bytes of the default `spectrum one-photon` and `spectrum two-photon`;
- `timings`: per-layer times, which vary from run to run and are never
  compared with `==`: one RK4 loop step at 1, 24 and 192 lanes, the
  blockwise eigensolve over 1024 fields, `transition_lines`,
  `one_photon_spectrum`, one GA generation, one Doppler fit, the
  four-point bandwidth scan, the default `store` run, its closed-form
  control-off reference, a 48-point lifetime scan and the writing of the
  301-point resmap CSV.  Each is read
  on the throttle-corrected clock of `perfbench/throttle.py`, which a probe
  drives while the timings run, as
  perfbench reads its own times, so that records taken under different
  host load compare;
- `raw_timings`: the same timings as wall times;
- `environment`: Python, numpy and scipy versions (scipy's read from its
  metadata, null when it is absent) and the CPU count.

It needs only the standard library, numpy and the package.  The slice
GA's fixed genes and box are read from `perfbench/workloads.py`, whose
`tuning` workload runs it, and the clock from `perfbench/throttle.py`.
The test suite imports `random_lanes` and `pinned_batch` from here, so a
pin and its record entry are one computation.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cavmem import atomic, cavity, cli, fitting, memory, optimize, vapour  # noqa: E402
from cavmem.config import ExperimentConfig  # noqa: E402

OBJECTIVE_VECTOR = [0.0, 0.2, 5.0, -0.1, 1.5, 1.6, 12.5, 2.7]
LIFETIMES_NS = [20.0, 60.0, 104.0]
BANDWIDTH_FWHMS_NS = [0.6, 1.0, 1.5, 3.0]
SCAN_LIFETIMES_NS = np.linspace(8.0, 104.0, 48)   # the timed lifetime scan's
DOPPLER_GRID = np.linspace(-12.0, 4.0, 400)     # the spectroscopy workload's
# the spectroscopy workload's grids and noise levels for the other three fits
CAVITY_GRID = np.linspace(-12.0, 12.0, 1200)
LIFETIME_GRID = np.arange(5.0, 100.0, 0.5)
LINE_GRID = np.linspace(-60.0, 60.0, 500)
FIT_NOISE_SEED = 31
RESMAP_ARGV = ["cavity", "resmap", "--points", "301"]   # the spectroscopy workload's
SPECTRUM_KINDS = ("one-photon", "two-photon")    # `cavmem spectrum KIND` at its defaults


def _store(ec: ExperimentConfig) -> dict:
    """Total efficiency and closure residual of the default `store` run."""
    res = memory.simulate_storage_retrieval(
        ec.memory_config(), ec.pulse("signal"), ec.pulse("write"), ec.pulse("read"),
        dt_ns=0.01)
    return {"total_efficiency": res.total_efficiency,
            "closure_residual": res.integrator["closure_residual"]}


def _bandwidth_scan(ec: ExperimentConfig) -> dict:
    """The default pulses' bandwidth scan over BANDWIDTH_FWHMS_NS at dt 0.02,
    keyed by width."""
    effs = memory.bandwidth_scan(ec.memory_config(), ec.pulse("signal"),
                                 ec.pulse("write"), ec.pulse("read"),
                                 BANDWIDTH_FWHMS_NS, dt_ns=0.02)
    return dict(zip(map(repr, BANDWIDTH_FWHMS_NS), effs.tolist()))


def _table(ec: ExperimentConfig, argv: list) -> tuple:
    """The header and columns of the CSV table of `cavmem` argv."""
    args = cli.build_parser().parse_args(argv)
    (_, header, columns), _ = args.func(ec, args)
    return header, columns


def _csv_timing(header: list, columns: list):
    """A timing of `cli._write_csv` of this table to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        return _timed(lambda: cli._write_csv(path, header, columns))


def _csv_sha256(ec: ExperimentConfig, argv: list) -> str:
    """The sha256 of the bytes that `cavmem` argv writes as its CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        cli._write_csv(path, *_table(ec, argv))
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def _perfbench(name: str):
    """The module `name` of perfbench/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True      # leave no cache files in the benchmark's folder
    return importlib.import_module(name)


def _slice_ga(ec: ExperimentConfig) -> dict:
    """Best of the `tuning` workload's slice GA from the configured seed."""
    workloads = _perfbench("workloads")
    bounds = ec.doc["optimizer"]["bounds"]
    slice_bounds = dict(ec.parameter_space().restrict(**workloads.SLICE_FIXED).bounds)
    for name, (lo, hi) in workloads.SLICE_BOX.items():
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


def _noisy_fits() -> dict:
    """The cavity, lifetime and line fits of the default cavity's reflection,
    the operating point's decay law and a dip of depth 0.55 and FWHM 11.8
    centred at 3, each with the noise of the `spectroscopy` workload drawn
    from FIT_NOISE_SEED: 0.01 added, 2% multiplied and 0.01 added."""
    rng = np.random.default_rng(FIT_NOISE_SEED)
    y_cav = cavity.reflection_response(cavity.CavityParams(), CAVITY_GRID).reflected_power \
        + rng.normal(0.0, 0.01, len(CAVITY_GRID))
    y_life = memory.lifetime_model(LIFETIME_GRID) \
        * (1 + rng.normal(0.0, 0.02, len(LIFETIME_GRID)))
    y_line = 1.0 - 0.55 * np.exp(-4 * np.log(2) * (LINE_GRID - 3.0) ** 2 / 11.8 ** 2) \
        + rng.normal(0.0, 0.01, len(LINE_GRID))
    fits = {"cavity_fit": fitting.fit_cavity_reflection(CAVITY_GRID, y_cav),
            "lifetime_fit": fitting.fit_lifetime(LIFETIME_GRID, y_life),
            "line_fit": fitting.fit_gaussian_line(LINE_GRID, y_line)}
    return {key: {"parameters": fit.parameters, "residual_norm": fit.residual_norm,
                  "iterations": fit.iterations, "flags": fit.flags}
            for key, fit in fits.items()}


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
    """Loop steps and the sha256 of every array that `simulate_batch`
    returns for the default memory's batch of `size` random lanes drawn
    from `seed`, at dt 0.02 with its output flux."""
    signals, writes, reads = random_lanes(np.random.default_rng(seed), size)
    result = memory.simulate_batch(memory.MemoryConfig(), signals, writes, reads,
                                   0.0, 0.02, keep_flux=True)
    return {"loop_steps": result["loop_steps"],
            "sha256": {k: hashlib.sha256(v.tobytes()).hexdigest()
                       for k, v in result.items() if isinstance(v, np.ndarray)}}


def _timed(run, repeats: int = 5, before=None, unit: float = 1e3):
    """A timing: `unit`, the factor from seconds to its reported unit
    (milliseconds by default), and the perf_counter readings (begin, end)
    of `repeats` runs of `run()`, each after `before()` when it is given.
    _read gives its best time."""
    spans = []
    for _ in range(repeats):
        if before is not None:
            before()
        begin = time.perf_counter()
        run()
        spans.append((begin, time.perf_counter()))
    return unit, spans


def _read(timings: dict, span) -> dict:
    """The best time of each timing of `timings`, nested as given, with
    each run's duration read as span(begin, end)."""
    return {key: _read(value, span) if isinstance(value, dict)
            else value[0] * min(span(*pair) for pair in value[1])
            for key, value in timings.items()}


def step_timings() -> dict:
    """Timings of one RK4 loop step at 1, 24 and 192 lanes, in
    microseconds: 5 runs of `_integrate` over random lanes (seed 5) at dt
    0.02, on the lane schedule and the grid that spans the lanes, divided
    by the loop steps that the run returns."""
    out = {}
    for size in (1, 24, 192):
        lanes = random_lanes(np.random.default_rng(5), size)
        par = memory._pulse_par_arrays(memory.MemoryConfig(), *lanes, 0.0)

        def run():
            return memory._integrate(par, 0.02)
        out[str(size)] = _timed(run, unit=1e6 / run()["loop_steps"])
    return out


def layer_timings(ec: ExperimentConfig) -> dict:
    """Timings of the other layers in milliseconds, each of a few runs:
    `atomic._eigh_blockwise` of every manifold over 1024 fields from 0 to
    300 mT; `transition_lines` from 5S1/2 to 5P3/2 and `one_photon_spectrum`
    on the Doppler grid, both at the configured field and each after the
    per-field eigensystem cache is emptied, as at a new field; one GA
    generation, a 2-generation `run_ga` at the configured settings divided
    by the 3 populations it evaluates; the default Doppler fit; the
    bandwidth-scan fingerprint; the store fingerprint's run, the default
    `store` at dt 0.01; its control-off reference, `memory._control_off`
    of its admitted parameters, counts and flux on its grid, both made
    once beforehand; the default pulses' lifetime scan over
    SCAN_LIFETIMES_NS at dt 0.02; and `cli._write_csv` of the RESMAP_ARGV
    table, whose columns are computed once beforehand."""
    fields = np.linspace(0.0, 300.0, 1024)
    manifolds = atomic.all_manifolds()
    lower, upper = (atomic.manifold_spec(m) for m in ("5S1/2", "5P3/2"))
    settings = replace(ec.ga_settings(), generations=2)
    fresh = atomic._labelled_system.cache_clear
    sig, write, read = (ec.pulse(name) for name in ("signal", "write", "read"))
    par = memory._admit(ec.memory_config(), [sig], [write], [read], 0.0, 0.01)
    ts = memory.simulate_storage_retrieval(ec.memory_config(), sig, write, read,
                                           dt_ns=0.01).time_grid_ns
    return {
        "eigh_blockwise_ms": _timed(
            lambda: [atomic._eigh_blockwise(m, fields) for m in manifolds]),
        "transition_lines_ms": _timed(
            lambda: atomic.transition_lines(lower, upper, ec.field_mt), before=fresh),
        "one_photon_spectrum_ms": _timed(
            lambda: vapour.one_photon_spectrum(ec.vapour_params(), ec.field_mt, "sigma-",
                                               DOPPLER_GRID), before=fresh),
        "ga_generation_ms": _timed(
            lambda: optimize.run_ga(ec.parameter_space(), ec.memory_config(),
                                    optimize.DriftModel(enabled=False), settings,
                                    ec.seed), repeats=3, unit=1e3 / (settings.generations + 1)),
        "doppler_fit_ms": _timed(lambda: _doppler_fit(ec), repeats=3),
        "bandwidth_scan_ms": _timed(lambda: _bandwidth_scan(ec)),
        "store_ms": _timed(lambda: _store(ec)),
        "control_off_ms": _timed(lambda: memory._control_off(par, ts)),
        "lifetime_scan_ms": _timed(
            lambda: memory.lifetime_scan(ec.memory_config(), ec.pulse("signal"),
                                         ec.pulse("write"), ec.pulse("read"),
                                         SCAN_LIFETIMES_NS, dt_ns=0.02)),
        "resmap_csv_ms": _csv_timing(*_table(ec, RESMAP_ARGV)),
    }


def _version(package: str):
    """The installed version of `package`, None when it is absent; read
    from its metadata, without importing it."""
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def record() -> dict:
    ec = ExperimentConfig()
    mem = ec.memory_config()
    lifetimes = memory.lifetime_scan(mem, ec.pulse("signal"), ec.pulse("write"),
                                     ec.pulse("read"), LIFETIMES_NS, dt_ns=0.02)
    fingerprints = {
        "objective": optimize.objective(OBJECTIVE_VECTOR, mem),
        "store": _store(ec),
        "lifetime_scan": dict(zip(map(repr, LIFETIMES_NS), lifetimes.tolist())),
        "bandwidth_scan": _bandwidth_scan(ec),
        "slice_ga": _slice_ga(ec),
        "doppler_fit": _doppler_fit(ec),
        **_noisy_fits(),
        "criterion_5_separation_mhz": atomic.criterion_5_lines()[1],
        "pinned_batch": pinned_batch(5, 48),
        "resmap_csv_sha256": _csv_sha256(ec, RESMAP_ARGV),
        "spectrum_csv_sha256": {kind: _csv_sha256(ec, ["spectrum", kind])
                                for kind in SPECTRUM_KINDS},
    }
    throttle = _perfbench("throttle")
    probe = throttle.Probe()
    probe.start()
    try:
        timings = {"rk4_step_us": step_timings(), **layer_timings(ec)}
    finally:
        probe.stop()
    clock = throttle.Clock(probe.samples, throttle.NUMPY_PROBE_S)
    return {
        "fingerprints": fingerprints,
        "timings": _read(timings, clock.span),
        "raw_timings": _read(timings, lambda begin, end: end - begin),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": _version("scipy"), "cpus": os.cpu_count()},
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
