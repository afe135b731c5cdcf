"""Command-line front end: scenario execution with CSV/JSON outputs.

Every command is deterministic given (config, seed).  A command computes its
table and summary and returns them; `main` alone writes them, prints the
path and sets the exit code.  Failures exit nonzero with a machine-readable
JSON error object on stderr: exit code 2 for configuration problems, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__, atomic, cavity, fitting, memory, optimize, vapour
from .config import ExperimentConfig, read_constants, reject_non_finite
from .constants import ENV_VAR
from .errors import CavmemError, ConfigError, DomainError, NumericalError


# rows per block of _write_csv, which bounds the text held at once
_CSV_BLOCK_ROWS = 4096
# most float texts that _write_csv keeps for later blocks, about 3 MB
_CSV_MEMO_CAP = 8 * _CSV_BLOCK_ROWS


def _write_csv(path: str, header: list[str], columns) -> None:
    """Equal-length 1-D arrays as table columns, rows ended by \r\n as csv.writer
    does.  Floats are written with repr, the shortest text that parses back to
    the identical double, so tables round-trip losslessly; integers with str."""
    is_float = [c.dtype.kind == "f" for c in columns]
    rows = len(columns[0])
    # a table of one block keeps no memo
    memo = (np.empty(0, np.int64), np.empty(0, object)) if rows > _CSV_BLOCK_ROWS else None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(0, rows, _CSV_BLOCK_ROWS):
            block = [c[k:k + _CSV_BLOCK_ROWS] for c in columns]
            texts, memo = _repr_columns([c for c, f in zip(block, is_float) if f], memo,
                                        k + _CSV_BLOCK_ROWS < rows)
            texts = iter(texts)
            cells = [next(texts) if f else _str_column(c) for c, f in zip(block, is_float)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _repr_columns(columns: list, memo, more: bool) -> tuple[list, tuple | None]:
    """The repr text of each equal-length float column, and the memo for the
    next block.  Values are keyed by their bits, so 0.0 and -0.0 stay apart
    and equal keys have equal text.  memo is None or (keys, texts), the
    sorted bits that earlier blocks of the table formatted beside their
    text: a block formats only the distinct values that it misses there,
    and adds them while the memo is under _CSV_MEMO_CAP and `more` blocks
    follow.  A block that finds no hit drops the memo, so a table whose
    values are all distinct pays one insert and one lookup."""
    if not columns:
        return [], memo
    values = np.concatenate(columns, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if memo is None or not len(memo[0]):
        text = _reprs(keys)
        missed = slice(None)
    else:
        known, known_text = memo
        at = np.searchsorted(known, keys)
        hit = known[np.minimum(at, len(known) - 1)] == keys
        if not hit.any():
            memo = None
        text = np.empty(len(keys), dtype=object)
        text[hit] = known_text[at[hit]]
        missed = ~hit
        text[missed] = _reprs(keys[missed])
    if memo is not None and more and len(memo[0]) < _CSV_MEMO_CAP:
        known, known_text = memo
        new = keys[missed][:_CSV_MEMO_CAP - len(known)]
        at = np.searchsorted(known, new)
        memo = (np.insert(known, at, new), np.insert(known_text, at, text[missed][:len(new)]))
    return text[inverse].reshape(len(columns), -1).tolist(), memo


def _reprs(keys: np.ndarray) -> np.ndarray:
    """The repr text of each float whose bits are `keys`."""
    return np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)


def _str_column(column: np.ndarray) -> list:
    """The str text of each value of an integer column, each distinct value
    formatted once."""
    keys, inverse = np.unique(column, return_inverse=True)
    return np.array(list(map(str, keys.tolist())), dtype=object)[inverse].tolist()


def _write_json(path: str, payload: dict, cfg: ExperimentConfig) -> None:
    doc = dict(payload)
    doc["provenance"] = cfg.provenance()
    with open(path, "w") as fh:
        json.dump(_strict(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _strict(value):
    """`value` with arrays as lists and every non-finite float as the text
    that float() reads back ("inf", "-inf", "nan"), which strict JSON
    parsers accept."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _load_config(args) -> ExperimentConfig:
    """The run's config with its atom constants, taken from --constants, the
    config's constants_path, the CAVMEM_CONSTANTS variable or the bundled
    file, the first that is set; a bad file fails here, before any output."""
    cfg = ExperimentConfig.from_file(args.config) if args.config \
        else ExperimentConfig()
    path = args.constants or (None if cfg.constants_path
                              else os.environ.get(ENV_VAR))
    if path:
        cfg = replace(cfg, constants=read_constants(path))
    cfg.atom_constants()
    return cfg


# ---------------------------------------------------------------- commands
#
# Each command returns (table, summary): table is (CSV file name, header,
# columns), or None for a command without one; summary is (JSON file name,
# payload).  Commands write nothing; main writes both files.

def cmd_levels(cfg: ExperimentConfig, args):
    lo, hi = min(args.field), max(args.field)
    grid = np.array([lo]) if lo == hi else np.linspace(lo, hi, args.points)
    manifolds = atomic.all_manifolds(cfg.atom_constants())
    wanted = [m for m in manifolds
              if args.manifolds is None or m.label in args.manifolds]
    columns, labels = [grid], ["field_mt"]
    for man in wanted:
        columns.extend(atomic.breit_rabi_curve(man, grid).T)
        labels.extend(f"state_{n}_mhz" for n in atomic.state_numbers(man))
    return (("levels.csv", labels, columns),
            ("levels.json", {"field_mt": grid, "manifolds": [m.label for m in wanted]}))


def cmd_spectrum(cfg: ExperimentConfig, args):
    vap = cfg.vapour_params()
    c = cfg.atom_constants()
    b = cfg.field_mt
    grid = np.linspace(args.lo, args.hi, args.points)
    if args.kind == "one-photon":
        trans = vapour.one_photon_spectrum(vap, b, args.polarization, grid,
                                           constants=c)
        return (("spectrum_one_photon.csv", ["detuning_ghz", "transmission"],
                 [grid, trans]),
                ("spectrum_one_photon.json", {
                    "kind": "one-photon", "field_mt": b,
                    "polarization": args.polarization,
                    "optical_depth": vap.depth()}))
    trans, warn = vapour.two_photon_spectrum(
        vap, b, args.polarization, args.control_polarization,
        args.signal_detuning, grid, geometry=args.geometry, constants=c)
    window = vapour.two_photon_window(args.signal_detuning, grid)
    found = []
    for pol_s, pol_c in (("sigma-", "sigma-"), ("sigma-", "sigma+"),
                         ("sigma+", "sigma-"), ("sigma+", "sigma+")):
        lines = atomic.two_photon_lines(
            b, pol_s, pol_c, total_window_ghz=window,
            reference_signal_detuning_ghz=args.signal_detuning, constants=c)
        pos, strength, best = atomic.group_two_photon_lines(lines)
        loss = atomic.is_loss_channel(pol_s, pol_c)
        for delta, s, g, u in zip((pos - args.signal_detuning).tolist(), strength.tolist(),
                                  lines["ground"][best].tolist(),
                                  lines["doubly_excited"][best].tolist()):
            found.append({"control_detuning_ghz": delta, "strength": s,
                          "signal_pol": pol_s, "control_pol": pol_c,
                          "is_loss_channel": loss, "ground_index": g, "upper_index": u})
    found.sort(key=lambda d: d["control_detuning_ghz"])
    return (("spectrum_two_photon.csv", ["control_detuning_ghz", "transmission"],
             [grid, trans]),
            ("spectrum_two_photon.json", {
                "kind": "two-photon", "field_mt": b,
                "signal_detuning_ghz": args.signal_detuning,
                "geometry": args.geometry,
                "linear_absorption_warning": bool(warn),
                "line_fwhm_mhz": vapour.two_photon_linewidth_mhz(
                    vap, args.geometry, constants=c),
                "lines": found}))


def cmd_cavity(cfg: ExperimentConfig, args):
    params = cfg.cavity_params()
    summary = cavity.summary_dict(params)
    grid = np.linspace(args.lo, args.hi, args.points)
    if args.mode == "scan":
        resp = cavity.reflection_response(params, grid)
        header = ["detuning_ghz", "reflected_power", "transmitted_power",
                  "reflection_re", "reflection_im"]
        columns = [resp.detunings_ghz, resp.reflected_power, resp.transmitted_power,
                   resp.reflection.real, resp.reflection.imag]
    else:
        m = cavity.dual_resonance_map(params, grid, grid)
        n_sig, n_ctl = m.buildup.shape
        header = ["signal_detuning_ghz", "control_detuning_ghz", "buildup",
                  "two_photon_line"]
        columns = [np.repeat(m.signal_detunings_ghz, n_ctl),
                   np.tile(m.control_detunings_ghz, n_sig), m.buildup.ravel(),
                   m.two_photon_mask.ravel().astype(int)]
        summary["dual_resonant_pairs"] = m.resonant_pairs
    return ((f"cavity_{args.mode}.csv", header, columns),
            (f"cavity_{args.mode}.json", summary))


def cmd_store(cfg: ExperimentConfig, args):
    mem = cfg.memory_config()
    res = memory.simulate_storage_retrieval(
        mem, cfg.pulse("signal"), cfg.pulse("write"), cfg.pulse("read"),
        drift_offset_ghz=args.drift_offset, dt_ns=args.dt)
    # the drift offset asked for, then the fields after the time grid and
    # the two fluxes
    summary = {"drift_offset_ghz": args.drift_offset,
               **{f.name: getattr(res, f.name) for f in fields(res)[3:]}}
    return (("store_flux.csv",
             ["time_ns", "output_flux_per_ns", "reference_flux_per_ns"],
             [res.time_grid_ns, res.output_flux, res.reference_flux]),
            ("store_summary.json", summary))


# default grid bounds and the CSV column of each scan kind
_SCAN_AXES = {"lifetime": (8.0, 100.0, "storage_time_ns"),
              "energy": (0.01, 1.0, "write_energy_nj"),
              "bandwidth": (0.5, 4.0, "signal_fwhm_ns")}


def cmd_scan(cfg: ExperimentConfig, args):
    mem = cfg.memory_config()
    sig, wr, rd = (cfg.pulse(n) for n in ("signal", "write", "read"))
    lo, hi, column = _SCAN_AXES[args.kind]
    grid = np.linspace(lo if args.lo is None else args.lo,
                       hi if args.hi is None else args.hi, args.points)
    # memory.lifetime_scan, memory.energy_scan or memory.bandwidth_scan
    effs = getattr(memory, f"{args.kind}_scan")(mem, sig, wr, rd, grid, dt_ns=args.dt)
    return ((f"scan_{args.kind}.csv", [column, "total_efficiency"], [grid, effs]),
            (f"scan_{args.kind}.json",
             {"kind": args.kind, column: grid, "dt_ns": args.dt}))


def cmd_optimize(cfg: ExperimentConfig, args):
    mem = cfg.memory_config()
    settings = cfg.ga_settings()
    if args.generations is not None:
        settings = replace(settings, generations=args.generations)
    drift = cfg.drift_model(enabled=None if args.drift is None else args.drift == "on")
    seed = args.seed if args.seed is not None else cfg.seed
    trace = optimize.run_ga(cfg.parameter_space(), mem, drift, settings, seed)
    recs = trace.iterations
    values = np.array([[*r["parameters"], r["objective"], r["drift_offset_ghz"]]
                       for r in recs])
    return (("optimize_trace.csv",
             ["iteration", *optimize.PARAMETER_NAMES, "objective", "drift_offset_ghz"],
             [np.array([r["iteration"] for r in recs]), *values.T]),
            ("optimize_settings.json", {
                "seed": seed, **asdict(settings),
                **{f"drift_{k}": v for k, v in asdict(drift).items()},
                "bounds": trace.space.bounds,
                "bound_violations": trace.bound_violations,
                # each distinct fault message, counted, in order of first occurrence
                "faults": dict(Counter(trace.faults))}))


def cmd_fit(cfg: ExperimentConfig, args):
    try:
        with open(args.data, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [(reader.line_num, [float(v) for v in row]) for row in reader if row]
    except (OSError, ValueError, StopIteration) as exc:
        raise ConfigError(f"cannot read fit data {args.data}: {exc}") from exc
    if len(header) < 2 or len(rows) < 3:
        raise ConfigError("fit data must be a two-column CSV with a header")
    for line, row in rows:
        if len(row) < 2 or not all(map(math.isfinite, row[:2])):
            raise ConfigError(f"fit data {args.data} line {line} holds {row}; "
                              "each row needs a finite x and y value")
    x = np.array([row[0] for _, row in rows])
    y = np.array([row[1] for _, row in rows])
    if args.model == "cavity":
        cav = cfg.cavity_params()
        fit = fitting.fit_cavity_reflection(x, y, r1=cav.r1, r2=cav.r2)
        extra = fitting.derived_cavity_metrics(fit, r1=cav.r1, r2=cav.r2)
    elif args.model == "doppler":
        fit = fitting.fit_doppler_absorption(
            x, y, temperature_c=cfg.vapour_params().temperature_c,
            polarization=args.polarization, constants=cfg.atom_constants())
        extra = {}
    elif args.model == "lifetime":
        gamma_m = cfg.memory_config().gamma_m
        fit = fitting.fit_lifetime(x, y, gamma_m_rad_ns=gamma_m)
        extra = fitting.derived_lifetime_metrics(fit, gamma_m_rad_ns=gamma_m)
    else:
        fit = fitting.fit_gaussian_line(x, y)
        extra = {}
    payload = asdict(fit)
    payload["derived"] = extra
    if args.model == "doppler":
        # the probe polarization whose lines the model assumed
        payload["polarization"] = args.polarization
    return None, (f"fit_{args.model}.json", payload)


# ------------------------------------------------------------------ parser

def _bounded(name: str, cast, floor, what: str):
    """The argparse type `name`: the text read by `cast`, refused at or below
    `floor` as not being `what`.  NaN passes here, for main to refuse as
    non-finite; argparse names a type it cannot apply by its __name__."""
    def read(text: str):
        value = cast(text)
        if value <= floor:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    read.__name__ = name
    return read


_positive_int = _bounded("_positive_int", int, 0, "a positive integer")
_non_negative_int = _bounded("_non_negative_int", int, -1, "a non-negative integer")
_positive_float = _bounded("float", float, 0.0, "a positive number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavmem",
        description="Cavity-enhanced warm-vapour memory simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--constants", help="physical-constants file override")
    parser.add_argument("--out", help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", help="magnetic-level energies vs field")
    p.add_argument("--field", type=float, nargs=2, default=[0.0, 300.0],
                   metavar=("LO", "HI"))
    p.add_argument("--points", type=_positive_int, default=121)
    p.add_argument("--manifolds", nargs="+", default=None,
                   choices=["5S1/2", "5P3/2", "5D5/2"])
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("spectrum", help="one- or two-photon spectra")
    p.add_argument("kind", choices=["one-photon", "two-photon"])
    p.add_argument("--polarization", default="sigma-",
                   choices=["sigma-", "sigma+", "pi"])
    p.add_argument("--control-polarization", default="sigma-",
                   choices=["sigma-", "sigma+", "pi"])
    p.add_argument("--signal-detuning", type=float, default=-8.0,
                   help="fixed signal detuning for two-photon scans (GHz)")
    p.add_argument("--geometry", default="counter", choices=["counter", "co"])
    p.add_argument("--lo", type=float, default=-12.0)
    p.add_argument("--hi", type=float, default=4.0)
    p.add_argument("--points", type=_positive_int, default=1601)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cavity", help="frequency response or resonance map")
    p.add_argument("mode", choices=["scan", "resmap"])
    p.add_argument("--lo", type=float, default=-12.0)
    p.add_argument("--hi", type=float, default=12.0)
    p.add_argument("--points", type=_positive_int, default=1201)
    p.set_defaults(func=cmd_cavity)

    p = sub.add_parser("store", help="single storage/retrieval run")
    p.add_argument("--drift-offset", type=float, default=0.0)
    p.add_argument("--dt", type=_positive_float, default=0.01)
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("scan", help="lifetime/energy/bandwidth scans")
    p.add_argument("kind", choices=["lifetime", "energy", "bandwidth"])
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--points", type=_positive_int, default=25)
    p.add_argument("--dt", type=_positive_float, default=0.02)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("optimize", help="genetic-algorithm tuning run")
    p.add_argument("--seed", type=_non_negative_int, default=None,
                   help="GA seed (default: the config's seed)")
    p.add_argument("--drift", choices=["on", "off"], default=None,
                   help="cavity drift (default: the config's optimizer.drift.enabled)")
    p.add_argument("--generations", type=_positive_int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("fit", help="fit a model to two-column CSV data")
    p.add_argument("--model", required=True,
                   choices=["cavity", "doppler", "lifetime", "line"])
    p.add_argument("data", help="CSV file with x,y columns")
    p.add_argument("--polarization", default="sigma-",
                   choices=["sigma-", "sigma+", "pi"],
                   help="probe polarization of the doppler model")
    p.set_defaults(func=cmd_fit)
    return parser


# exit code and JSON error name of a failed run, by the first class its
# error is an instance of
_EXITS = ((ConfigError, 2, "config"), ((NumericalError, DomainError), 3, "numerical"),
          (CavmemError, 3, "internal"))


def main(argv=None) -> int:
    """Run one command: write its table and summary under --out (or the
    config's output_dir) and print the table's path, or the summary's for a
    command without a table."""
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            reject_non_finite(value, f"argument --{name.replace('_', '-')}")
        cfg = _load_config(args)
        table, (summary_name, payload) = args.func(cfg, args)
        base = args.out or cfg.output_dir
        printed = os.path.join(base, summary_name)
        try:
            os.makedirs(base, exist_ok=True)
            if table is not None:
                name, header, columns = table
                printed = os.path.join(base, name)
                _write_csv(printed, header, columns)
            _write_json(os.path.join(base, summary_name), payload, cfg)
        except OSError as exc:
            raise ConfigError(f"cannot write to output directory {base}: {exc}") from exc
    except CavmemError as exc:
        code, kind = next((code, kind) for cls, code, kind in _EXITS
                          if isinstance(exc, cls))
        json.dump({"error": kind, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return code
    print(printed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
