"""The benchmark's three workloads: seeded inputs, timed operations, checks.

A workload runs in rounds.  Each round draws fresh inputs from its own seeded
generator, runs a fixed list of program operations (each one timed on its
own), and then checks every output against `refs`.  The same operations run
in every round, so the share of failed operations is the same in every run.

Program caches are cleared before a round and before every CLI command: a
user runs each command in a fresh process, and a round stands for one user
session, so no round is served from what an earlier round computed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

import refs
from cavmem import (CavmemError, atomic, cli, constants, fitting, memory,
                    optimize, vapour)
from cavmem.config import ExperimentConfig

FAILED = object()  # stands in for the output of an operation that raised

# criterion 8's two-parameter slice of the GA space and its grid oracle
SLICE_FIXED = {
    "read_write_ratio": 5.0, "signal_delay_ns": -0.1, "signal_fwhm_ns": 1.5,
    "write_fwhm_ns": 1.6, "write_read_delay_ns": 12.5, "read_fwhm_ns": 2.7,
}
SLICE_BOX = {"write_energy_nj": (0.02, 1.0), "two_photon_detuning_ghz": (-0.4, 0.4)}
GRID_SIDE = 20


def clear_program_caches():
    """Empty every memoizing cache in the package, as a fresh process has."""
    for name, mod in list(sys.modules.items()):
        if name == "cavmem" or name.startswith("cavmem."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Round:
    """One pass over a workload's operations: timings, counts and problems.

    Operations are recorded as raw perf_counter intervals; durations are read
    on a `throttle.Clock` (or raw when the clock is None) once the run ends.
    """

    def __init__(self, out_dir, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer
        self.ops: list[tuple[str, float, float, bool]] = []  # group, t0, t1, cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work: dict[str, float] = {}   # units of work per timing group

    def call(self, group, fn, *args, _cli=False, **kwargs):
        """Run and time one program operation; an exception counts it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the benchmark reports the failure and goes on
            out = FAILED
        end = time.perf_counter()
        self.ops.append((group, start, end, _cli))
        if out is FAILED:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        return out

    def cli(self, group, tag, argv):
        """Run `cavmem <argv>` in-process with caches as a fresh process has
        them; returns the output directory, or FAILED."""
        out = os.path.join(self.out_dir, tag)
        clear_program_caches()
        sink = io.StringIO()

        def run():
            with contextlib.redirect_stdout(sink):
                code = cli.main(["--out", out, *argv])
            if code != 0:
                raise RuntimeError(f"cavmem {' '.join(argv)} exited {code}")

        if self.call(group, run, _cli=True) is FAILED:
            return FAILED
        if self.tracer is not None:
            self.tracer.count("cli.rows_written", _csv_rows(sink.getvalue().strip()))
        return out

    def known_fault(self, what):
        """The operation ran but showed a documented program fault."""
        self.failed += 1
        print(f"known fault: {what}", file=sys.stderr)

    def check(self, name, ok, detail=""):
        if not ok:
            self.problems.append(f"{name}: {detail}")

    def add_work(self, group, units):
        self.work[group] = self.work.get(group, 0.0) + units

    def durations(self, clock, group=None, cli_only=False):
        """Durations of the round's operations, optionally one group's."""
        return [t1 - t0 if clock is None else clock.span(t0, t1)
                for g, t0, t1, is_cli in self.ops
                if (group is None or g == group) and (is_cli or not cli_only)]

    def wall(self, clock):
        return sum(self.durations(clock))

    def cli_time(self, clock):
        return sum(self.durations(clock, cli_only=True))

    def rate(self, clock, group):
        """Units of work per second of the group's timed operations."""
        return self.work[group] / sum(self.durations(clock, group))

    def path(self, name):
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)


def _csv_rows(path):
    if not path.endswith(".csv") or not os.path.isfile(path):
        return 0
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _read_csv(path):
    """The numeric rows of a CSV file written by the CLI, header skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader if row])


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_config(rnd, name, doc):
    path = rnd.path(name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _reference_per_photon(mem, signal):
    """Closed-form control-off counts per photon for the configured cavity."""
    dc = 2 * math.pi * (mem.cavity.mode_offset_signal_ghz
                        - signal.carrier_detuning_ghz) - mem.cavity_pull
    return refs.reference_counts_per_photon(
        mem.kappa, mem.kappa_ext, dc, mem.coupling_g, mem.gamma_eff,
        2 * math.pi * mem.intermediate_detuning_ghz, signal.fwhm_ns)


def _sorted_uniform(rng, lo, hi, fixed, total):
    """`total` sorted points in [lo, hi]: the `fixed` ones plus random fill."""
    pts = np.concatenate([fixed, rng.uniform(lo, hi, total - len(fixed))])
    return np.sort(pts)


# ------------------------------------------------------------------- scans

def scans(rnd, rng):
    """Storage runs and storage scans: the RK4 simulator over wide batches."""
    ec = ExperimentConfig()
    mem = ec.memory_config()
    sig, wr, rd = (ec.pulse(n) for n in ("signal", "write", "read"))
    n_seeded = float(rng.uniform(0.2, 2.0))
    seeded_cfg = _write_config(rnd, "store.json",
                               {"pulses": {"signal": {"energy": n_seeded}}})
    taus = _sorted_uniform(rng, 8.0, 104.0, [8.0, 12.5, 104.0], 48)
    energies = _sorted_uniform(rng, 0.02, 1.0, [0.02, 0.2, 1.0], 26)
    scan_dt = 0.02  # the CLI's default step for scans

    store_default = rnd.cli("store", "store_default", ["store"])
    store_seeded = rnd.cli("store", "store_seeded",
                           ["--config", seeded_cfg, "store"])
    lifetime = rnd.call("scan", memory.lifetime_scan, mem, sig, wr, rd, taus,
                        dt_ns=scan_dt)
    energy = rnd.call("scan", memory.energy_scan, mem, sig, wr, rd, energies,
                      dt_ns=scan_dt)
    rnd.add_work("scan", len(taus) + len(energies))

    per_photon = _reference_per_photon(mem, sig)
    passive_bound = (1 - mem.zeta()) / per_photon  # retrieved <= input
    summaries = {}
    for tag, out, n in (("default", store_default, sig.energy),
                        ("seeded", store_seeded, n_seeded)):
        if out is FAILED:
            continue
        s = _read_json(os.path.join(out, "store_summary.json"))
        summaries[tag] = (s, n)
        rnd.check(f"store {tag} input", _rel(s["input_photons"], n) < 1e-6,
                  f"{s['input_photons']} vs {n}")
        rnd.check(f"store {tag} closed-form reference",
                  _rel(s["reference_counts"], n * per_photon) < 1e-6,
                  f"{s['reference_counts']} vs {n * per_photon}")
        out_total = s["leak_counts"] + s["retrieved_counts"]
        rnd.check(f"store {tag} passive",
                  out_total <= s["input_photons"] * (1 + 1e-9)
                  and s["reference_counts"] <= s["input_photons"] * (1 + 1e-9),
                  f"out {out_total}, ref {s['reference_counts']}, "
                  f"in {s['input_photons']}")
        flux = _read_csv(os.path.join(out, "store_flux.csv"))
        rnd.check(f"store {tag} flux", flux.shape[1] == 3
                  and np.all(np.isfinite(flux)) and np.all(flux[:, 1:] >= 0),
                  "non-finite or negative flux")
    if len(summaries) == 2:
        (a, na), (b, nb) = summaries["default"], summaries["seeded"]
        for key in ("reference_counts", "leak_counts", "retrieved_counts"):
            rnd.check(f"store linear in signal energy ({key})",
                      _rel(a[key] / na, b[key] / nb) < 1e-9,
                      f"{a[key] / na} vs {b[key] / nb} per photon")
    if lifetime is not FAILED:
        law = refs.decay_law(taus, mem.gamma_m, mem.dephasing_width_mhz * 1e-3,
                             mem.line_amp_main, mem.line_amp_beat,
                             2 * math.pi * mem.line_splitting_mhz * 1e-3)
        ratio = lifetime / law
        spread = (ratio.max() - ratio.min()) / ratio.mean()
        rnd.check("lifetime scan follows the decay law", spread < 1e-3,
                  f"spread {spread:.2e}")
        rnd.check("lifetime scan passive",
                  np.all((lifetime >= 0) & (lifetime <= passive_bound)), "")
    if energy is not FAILED:
        rnd.check("energy scan passive",
                  np.all((energy >= 0) & (energy <= passive_bound)), "")
    if "default" in summaries:
        eta = summaries["default"][0]["total_efficiency"]
        for name, values, grid, at in (("lifetime", lifetime, taus, 12.5),
                                       ("energy", energy, energies, 0.2)):
            if values is not FAILED:
                v = float(values[np.flatnonzero(grid == at)[0]])
                rnd.check(f"{name} scan at the operating point matches store",
                          _rel(v, eta) < 1e-3, f"{v} vs {eta}")


def scans_detail(rounds, clock):
    return {
        "store_s": ("s", statistics.median(t for r in rounds
                                           for t in r.durations(clock, "store"))),
        "scan_points_per_s": ("1/s", statistics.median(r.rate(clock, "scan")
                                                       for r in rounds)),
    }


# ------------------------------------------------------------------ tuning

def _ga_evals(settings, drift_on):
    """Simulated objective evaluations of one GA run."""
    per_gen = 2 if drift_on else 1  # drift on re-measures the survivors
    return settings.population * (1 + per_gen * settings.generations)


def _within(vec, lower, upper):
    v = np.asarray(vec)
    return bool(np.all(v >= lower - 1e-12) and np.all(v <= upper + 1e-12))


def tuning(rnd, rng):
    """GA runs, the grid oracle and a bandwidth scan: many narrow batches."""
    ec = ExperimentConfig()
    mem = ec.memory_config()
    space = ec.parameter_space()
    bounds = ec.doc["optimizer"]["bounds"]
    names = optimize.PARAMETER_NAMES
    lower = np.array([bounds[n][0] for n in names])
    upper = np.array([bounds[n][1] for n in names])

    drift_settings = replace(ec.ga_settings(), generations=1)
    drift_seed = int(rng.integers(2 ** 31))
    slice_bounds = dict(space.restrict(**SLICE_FIXED).bounds)
    for name, (lo, hi) in SLICE_BOX.items():
        slice_bounds[name] = (lo, hi, bounds[name][2])
    slice_space = optimize.ParameterSpace(bounds=slice_bounds)
    slice_lower, slice_upper = slice_space.lower(), slice_space.upper()
    # two live genes, so one mutation per child on average
    slice_settings = replace(ec.ga_settings(), population=48, generations=4,
                             mutation_prob=0.5)
    short_settings = replace(slice_settings, generations=1)
    scan = {name: np.linspace(lo, hi, GRID_SIDE) for name, (lo, hi) in SLICE_BOX.items()}
    i, j = divmod(int(rng.integers(GRID_SIDE ** 2)), GRID_SIDE)
    point = dict(SLICE_FIXED, **{n: scan[n][k] for n, k in zip(scan, (i, j))})
    point_vec = np.array([point[n] for n in names])
    # up to the write pulse's width the integration window, and so the
    # cost, does not depend on the signal width
    width = float(rng.uniform(1.0, 1.6))

    drift_trace = rnd.call("ga", optimize.run_ga, space, mem,
                           ec.drift_model(enabled=True), drift_settings,
                           drift_seed)
    grid = rnd.call("grid", optimize.grid_search, space, mem, scan, SLICE_FIXED)
    # criterion 8 runs its slice GA from the configured seed; so does this one
    slice_trace = rnd.call("ga", optimize.run_ga, slice_space, mem,
                           optimize.DriftModel(enabled=False), slice_settings,
                           ec.seed)
    short_trace = rnd.call("ga", optimize.run_ga, slice_space, mem,
                           optimize.DriftModel(enabled=False), short_settings,
                           ec.seed)
    point_value = rnd.call("objective", optimize.objective, point_vec, mem)
    bw_out = rnd.cli("bandwidth", "bandwidth",
                     ["scan", "bandwidth", "--lo", repr(width), "--hi",
                      repr(width), "--points", "1"])
    rnd.add_work("ga", _ga_evals(drift_settings, True)
                 + _ga_evals(slice_settings, False)
                 + _ga_evals(short_settings, False))
    rnd.add_work("grid", GRID_SIDE * GRID_SIDE)
    rnd.add_work("bandwidth", 1)

    if drift_trace is not FAILED:
        rnd.check("drift GA bound violations", drift_trace.bound_violations == 0,
                  str(drift_trace.bound_violations))
        rnd.check("drift GA stays in bounds",
                  all(_within(r["parameters"], lower, upper)
                      for r in drift_trace.iterations)
                  and _within(drift_trace.final_population, lower, upper), "")
    if slice_trace is not FAILED:
        best = [r["objective"] for r in slice_trace.iterations]
        rnd.check("slice GA best never falls without drift",
                  all(b >= a for a, b in zip(best, best[1:])), str(best))
        rnd.check("slice GA stays in bounds",
                  all(_within(r["parameters"], slice_lower, slice_upper)
                      for r in slice_trace.iterations), "")
        if grid is not FAILED:
            rnd.check("slice GA within 1% of the grid optimum",
                      slice_trace.best["objective"] >= 0.99 * grid[1],
                      f"GA {slice_trace.best['objective']} vs grid {grid[1]}")
        if short_trace is not FAILED:
            n = len(short_trace.iterations)
            rnd.check("short GA trace reproducible from its seed",
                      short_trace.iterations == slice_trace.iterations[:n], "")
    if grid is not FAILED:
        values = grid[2]
        rnd.check("grid values finite and non-negative",
                  values.shape == (GRID_SIDE, GRID_SIDE)
                  and np.all(np.isfinite(values)) and np.all(values >= 0), "")
        rnd.check("grid best is the map maximum", grid[1] == values.max(), "")
        if point_value is not FAILED:
            rnd.check("grid point matches a single-point objective",
                      _rel(values[i, j], point_value) < 1e-3,
                      f"{values[i, j]} vs {point_value}")
    if bw_out is not FAILED:
        data = _read_csv(os.path.join(bw_out, "scan_bandwidth.csv"))
        sig = replace(ec.pulse("signal"), fwhm_ns=width)
        bound = (1 - mem.zeta()) / _reference_per_photon(mem, sig)
        rnd.check("bandwidth scan point", data.shape == (1, 2)
                  and _rel(data[0, 0], width) < 1e-12
                  and 0 < data[0, 1] <= bound, f"{data} bound {bound}")


def tuning_detail(rounds, clock):
    return {f"{g}_{u}": ("1/s", statistics.median(r.rate(clock, g) for r in rounds))
            for g, u in (("ga", "evals_per_s"), ("grid", "points_per_s"),
                         ("bandwidth", "points_per_s"))}


# ------------------------------------------------------------ spectroscopy

MANIFOLD_COLUMNS = {"5S1/2": (0, 8), "5P3/2": (8, 24), "5D5/2": (24, 48)}


def _check_levels(rnd, tag, data, consts):
    """Energies of a `levels` table against closed forms; returns the number
    of last-row labels that disagree with diagonalize_manifold."""
    fields = data[:, 0]
    s = consts.s12
    lo, hi = MANIFOLD_COLUMNS["5S1/2"]
    worst = max(float(np.max(np.abs(np.sort(row[1 + lo:1 + hi]) - refs.breit_rabi_j_half(
        s.a_mhz, s.g_j, consts.g_i, consts.nuclear_spin, consts.mu_b_mhz_per_mt, b))))
        for b, row in zip(fields, data))
    rnd.check(f"levels {tag}: 5S1/2 follows Breit-Rabi", worst < 1e-6,
              f"max dev {worst:.2e} MHz")
    mismatched = 0
    for man in atomic.all_manifolds(consts):
        lo, hi = MANIFOLD_COLUMNS[man.label]
        if fields[0] == 0.0:
            zero = refs.zero_field_hyperfine(man.j, man.i, man.a_hfs_mhz,
                                             man.b_hfs_mhz)
            dev = float(np.max(np.abs(np.sort(data[0, 1 + lo:1 + hi]) - zero)))
            rnd.check(f"levels {tag}: {man.label} zero-field hyperfine",
                      dev < 1e-6, f"max dev {dev:.2e} MHz")
        direct = np.array([st.energy_mhz for st in
                           atomic.diagonalize_manifold(man, float(fields[-1]))])
        mismatched += int(np.sum(np.abs(data[-1, 1 + lo:1 + hi] - direct) > 1e-6))
    return mismatched


def spectroscopy(rnd, rng):
    """Level tables, spectra, cavity maps and fits: atomic, vapour, fitting."""
    ec = ExperimentConfig()
    consts = constants.default_constants()
    spec_field = float(rng.uniform(120.0, 220.0))
    spec_cfg = _write_config(rnd, "spectra.json", {"field_mt": spec_field})
    lv_lo, lv_hi = float(rng.uniform(20.0, 60.0)), float(rng.uniform(200.0, 300.0))
    lv_points = 121  # the default, so the table's cost does not vary
    resmap_points = 301

    x_dop = np.linspace(-12.0, 4.0, 400)
    doppler_truth, doppler_data = [], []
    for _ in range(2):
        b, off, depth = (float(rng.uniform(60.0, 280.0)),
                         float(rng.uniform(-0.2, 0.2)),
                         float(rng.uniform(120.0, 280.0)))
        y = vapour.one_photon_spectrum(vapour.VapourParams(optical_depth=depth),
                                       b, "sigma-", x_dop - off)
        doppler_truth.append((b, off, depth))
        doppler_data.append(y + rng.normal(0.0, 0.005, len(x_dop)))
    zeta, fsr = float(rng.uniform(0.08, 0.2)), float(rng.uniform(7.5, 9.0))
    x_cav = np.linspace(-12.0, 12.0, 1200)
    y_cav = refs.airy_reflectance(0.6, 0.9998, zeta, fsr, x_cav) \
        + rng.normal(0.0, 0.01, len(x_cav))
    life_truth = (float(rng.uniform(0.011, 0.014)), float(rng.uniform(0.45, 0.55)),
                  float(rng.uniform(0.03, 0.045)),
                  2 * math.pi * float(rng.uniform(0.16, 0.18)))
    gamma_m = 2 * math.pi * 0.66e-3
    t_life = np.arange(5.0, 100.0, 0.5)
    y_life = refs.decay_law(t_life, gamma_m, life_truth[0], life_truth[1],
                            life_truth[2], life_truth[3]) \
        * (1 + rng.normal(0.0, 0.02, len(t_life)))
    line_truth = (float(rng.uniform(-20.0, 20.0)), float(rng.uniform(8.0, 16.0)),
                  float(rng.uniform(0.4, 0.7)))
    x_line = np.linspace(-60.0, 60.0, 500)
    y_line = refs.gaussian_dip(x_line, *line_truth, 1.0) \
        + rng.normal(0.0, 0.01, len(x_line))
    # fixed input for the NaN fault: one bad sample in a clean dip
    y_nan = refs.gaussian_dip(x_line, 0.0, 11.8, 0.55, 1.0)
    y_nan[250] = math.nan
    sum_rule_field = float(rng.uniform(1.0, 300.0))

    levels_full = rnd.cli("cli", "levels_full", ["levels"])
    levels_seeded = rnd.cli("cli", "levels_seeded",
                            ["levels", "--field", repr(lv_lo), repr(lv_hi),
                             "--points", str(lv_points)])
    one_photon = rnd.cli("cli", "one_photon",
                         ["--config", spec_cfg, "spectrum", "one-photon"])
    two_photon = rnd.cli("cli", "two_photon",
                         ["--config", spec_cfg, "spectrum", "two-photon"])
    cav_scan = rnd.cli("cli", "cavity_scan", ["cavity", "scan"])
    resmap = rnd.cli("cli", "resmap",
                     ["cavity", "resmap", "--points", str(resmap_points)])
    cav_fit_cli = FAILED if cav_scan is FAILED else rnd.cli(
        "cli", "fit_cavity",
        ["fit", "--model", "cavity", os.path.join(cav_scan, "cavity_scan.csv")])

    clear_program_caches()
    doppler = [rnd.call("doppler", fitting.fit_doppler_absorption, x_dop, y)
               for y in doppler_data]
    rnd.add_work("doppler", len(doppler_data))
    cav_fit = rnd.call("fit", fitting.fit_cavity_reflection, x_cav, y_cav)
    life_fit = rnd.call("fit", fitting.fit_lifetime, t_life, y_life)
    line_fit = rnd.call("fit", fitting.fit_gaussian_line, x_line, y_line)
    nan_fit = rnd.call("fit", _expect_refusal, fitting.fit_gaussian_line,
                       x_line, y_nan)
    s12, p32, d52 = atomic.all_manifolds()
    sums = rnd.call("sum_rules", lambda: (
        atomic.dipole_strength_sums(s12, p32, sum_rule_field),
        atomic.dipole_strength_sums(p32, d52, sum_rule_field)))

    if levels_full is not FAILED:
        data = _read_csv(os.path.join(levels_full, "levels.csv"))
        bad = _check_levels(rnd, "0-300 mT", data, consts)
        if bad:
            rnd.known_fault(f"levels 0-300 mT: {bad} of 48 last-row labels "
                            "differ from diagonalize_manifold at 300 mT")
    if levels_seeded is not FAILED:
        data = _read_csv(os.path.join(levels_seeded, "levels.csv"))
        rnd.check("levels seeded grid", data.shape == (lv_points, 49)
                  and abs(data[0, 0] - lv_lo) < 1e-9, str(data.shape))
        bad = _check_levels(rnd, "seeded", data, consts)
        rnd.check("levels seeded: last-row labels match diagonalize_manifold",
                  bad == 0, f"{bad} differ")
    depth = ec.vapour_params().depth()
    if one_photon is not FAILED:
        data = _read_csv(os.path.join(one_photon, "spectrum_one_photon.csv"))
        meta = _read_json(os.path.join(one_photon, "spectrum_one_photon.json"))
        t = data[:, 1]
        rnd.check("one-photon transmission in (0, 1]",
                  np.all((t > 0) & (t <= 1)), "")
        rnd.check("one-photon strongest line at full depth",
                  -math.log(t.min()) >= 0.999 * depth, f"{-math.log(t.min())}")
        rnd.check("one-photon field", meta["field_mt"] == spec_field, "")
    if two_photon is not FAILED:
        data = _read_csv(os.path.join(two_photon, "spectrum_two_photon.csv"))
        meta = _read_json(os.path.join(two_photon, "spectrum_two_photon.json"))
        t = data[:, 1]
        vp = ec.vapour_params()
        width = refs.two_photon_fwhm_mhz(vp.temperature_c, consts.mass_amu,
                                         consts.wavelength_signal_nm,
                                         consts.wavelength_control_nm,
                                         consts.d52.gamma_fwhm_mhz,
                                         vp.field_inhomogeneity_mhz)
        rnd.check("two-photon transmission in (0, 1]",
                  np.all((t > 0) & (t <= 1)) and t.min() < 1, "")
        rnd.check("two-photon line width",
                  _rel(meta["line_fwhm_mhz"], width) < 1e-9,
                  f"{meta['line_fwhm_mhz']} vs {width}")
        rnd.check("two-photon lines listed", len(meta["lines"]) > 0, "")
    cav = ec.cavity_params()
    if cav_scan is not FAILED:
        data = _read_csv(os.path.join(cav_scan, "cavity_scan.csv"))
        want = refs.airy_reflectance(cav.r1, cav.r2, cav.zeta_rt, cav.fsr_ghz,
                                     data[:, 0])
        dev = float(np.max(np.abs(data[:, 1] - want)))
        rnd.check("cavity scan follows the Airy sum", dev < 1e-12, f"{dev:.2e}")
        rnd.check("cavity scan passive",
                  np.all(data[:, 1] + data[:, 2] <= 1 + 1e-12), "")
    if resmap is not FAILED:
        data = _read_csv(os.path.join(resmap, "cavity_resmap.csv"))
        sig, ctl = data[:, 0], data[:, 1]
        want = refs.buildup(cav.r1, cav.r2, cav.zeta_rt, cav.fsr_ghz, sig) \
            * refs.buildup(cav.r1, cav.r2, cav.zeta_rt, cav.fsr_ghz, ctl)
        dev = float(np.max(np.abs(data[:, 2] / want - 1)))
        step = 24.0 / (resmap_points - 1)
        mask = np.abs(sig + ctl) <= 0.5 * step + 1e-12
        rnd.check("resmap rows", len(data) == resmap_points ** 2, str(len(data)))
        rnd.check("resmap buildup is the product of Airy buildups", dev < 1e-12,
                  f"{dev:.2e}")
        rnd.check("resmap two-photon mask", np.array_equal(mask, data[:, 3] == 1), "")
    if cav_fit_cli is not FAILED:
        fit = _read_json(os.path.join(cav_fit_cli, "fit_cavity.json"))
        p = fit["parameters"]
        rnd.check("fit re-ingest of cavity_scan.csv",
                  fit["converged"] and _rel(p["fsr_ghz"], cav.fsr_ghz) < 1e-4
                  and abs(p["zeta_rt"] - cav.zeta_rt) < 1e-4, str(p))
    for (b, off, dep), fit in zip(doppler_truth, doppler):
        if fit is not FAILED:
            rnd.check("Doppler fit recovers its field",
                      abs(fit["b_mt"] - b) < 1.0 and abs(fit["offset_ghz"] - off) < 0.02
                      and _rel(fit["optical_depth"], dep) < 0.08,
                      f"{fit.parameters} vs {(b, off, dep)}")
    if cav_fit is not FAILED:
        rnd.check("cavity fit recovers fsr and loss",
                  abs(cav_fit["fsr_ghz"] - fsr) < 0.02
                  and abs(cav_fit["zeta_rt"] - zeta) < 0.015,
                  f"{cav_fit.parameters} vs {(fsr, zeta)}")
    if life_fit is not FAILED:
        nu, a, b, om = life_truth
        rnd.check("lifetime fit recovers the decay law",
                  abs(life_fit["nu_prime_ghz"] - nu) < 0.5e-3
                  and abs(life_fit["omega_rad_ns"] - om) < 2 * math.pi * 2e-3
                  and abs(life_fit["amp_main"] - a) < 0.04
                  and abs(life_fit["amp_beat"] - b) < 0.008,
                  f"{life_fit.parameters} vs {life_truth}")
    if line_fit is not FAILED:
        c, w, d = line_truth
        rnd.check("line fit recovers the dip",
                  abs(line_fit["center"] - c) < 0.5 and abs(line_fit["fwhm"] - w) < 1.0
                  and abs(line_fit["depth"] - d) < 0.05,
                  f"{line_fit.parameters} vs {line_truth}")
    if nan_fit is not FAILED and not nan_fit:
        rnd.known_fault("a fit given one NaN sample returned instead of "
                        "raising CavmemError")
    if sums is not FAILED:
        dev = max(float(np.max(np.abs(sums[0] - refs.dipole_sum_rule(s12.j, p32.j)))),
                  float(np.max(np.abs(sums[1] - refs.dipole_sum_rule(p32.j, d52.j)))))
        rnd.check("dipole sum rules independent of B", dev < 1e-9, f"{dev:.2e}")


def _expect_refusal(fit_fn, x, y):
    """True when the fit refuses the data with a CavmemError."""
    try:
        fit_fn(x, y)
    except CavmemError:
        return True
    return False


def spectroscopy_detail(rounds, clock):
    return {"doppler_fits_per_s": ("1/s", statistics.median(r.rate(clock, "doppler")
                                                             for r in rounds))}


WORKLOADS = {
    "scans": (scans, scans_detail),
    "tuning": (tuning, tuning_detail),
    "spectroscopy": (spectroscopy, spectroscopy_detail),
}
