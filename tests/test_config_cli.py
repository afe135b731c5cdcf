"""Configuration ingestion and CLI round-trip tests."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmem import cli
from cavmem.cli import _write_csv, build_parser, cmd_levels, main
from cavmem.config import ExperimentConfig
from cavmem.errors import ConfigError


# ----------------------------------------------------------------- config

def test_default_config_reproduces_operating_point():
    cfg = ExperimentConfig()
    assert cfg.field_mt == 169.0
    cav = cfg.cavity_params()
    assert (cav.r1, cav.r2, cav.zeta_rt, cav.fsr_ghz) == (0.6, 0.9998, 0.135, 8.3)
    vap = cfg.vapour_params()
    assert (vap.temperature_c, vap.cell_length_mm) == (85.0, 6.0)
    mem = cfg.memory_config()
    assert mem.cooperativity == 3800.0
    assert mem.intermediate_detuning_ghz == -8.0
    assert cfg.pulse("read").center_ns - cfg.pulse("write").center_ns == 12.5


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"cavityy": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"cavity": {"r3": 0.5}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"pulses": {"write": {"amplitude": 2}}})


@pytest.mark.parametrize("override, message", [
    ({"memory": 5}, "section memory must be an object"),
    ({"optimizer": {"drift": []}}, "section optimizer.drift must be an object"),
    ({"memory": {"foo": 1}}, "unknown config key 'memory.foo'"),
    ({"optimizer": {"drift": {"foo": 1}}}, "unknown config key 'optimizer.drift.foo'"),
], ids=["section", "nested-section", "key", "nested-key"])
def test_refused_section_or_key_named_by_its_dotted_path(override, message):
    # a section that is not an object was named with a trailing dot
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig.from_dict(override)
    assert str(refused.value) == message


def test_unknown_pulse_name_refused():
    with pytest.raises(ConfigError, match="unknown pulse 'probe'"):
        ExperimentConfig().pulse("probe")


def test_partial_override_fills_defaults():
    cfg = ExperimentConfig.from_dict({"cavity": {"zeta_rt": 0.05}})
    assert cfg.cavity_params().zeta_rt == 0.05
    assert cfg.cavity_params().r1 == 0.6
    assert cfg.memory_config().cooperativity == 3800.0


def test_partial_bounds_override_merges_per_parameter():
    # a bound left out keeps its default, as every other missing field does
    from cavmem.optimize import ParameterSpace
    cfg = ExperimentConfig.from_dict(
        {"optimizer": {"bounds": {"write_energy_nj": [0.01, 1.0, 1e-4]}}})
    bounds = dict(ParameterSpace().bounds, write_energy_nj=(0.01, 1.0, 1e-4))
    assert cfg.parameter_space() == ParameterSpace(bounds=bounds)


def test_unknown_bound_name_refused():
    with pytest.raises(ConfigError, match="optimizer.bounds.write_energy"):
        ExperimentConfig.from_dict({"optimizer": {"bounds": {"write_energy": [0, 1, 1e-3]}}})


@pytest.mark.parametrize("bound", [[0.01, 1.0], [0.01, 1.0, 1e-4, 5.0], 0.5, "abc", None,
                                   [0.01, "1", 1e-4], [False, True, 1e-4]],
                         ids=["two", "four", "number", "text", "null", "text-entry",
                              "bools"])
def test_bound_that_is_not_three_numbers_refused_by_name(bound):
    with pytest.raises(ConfigError,
                       match="bound of write_energy_nj must be three finite numbers"):
        ExperimentConfig.from_dict({"optimizer": {"bounds": {"write_energy_nj": bound}}})


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig.from_dict({})
    c = ExperimentConfig.from_dict({"field_mt": 170.0})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_sections_are_the_class_defaults():
    # the default document states no value of its own: every section builds
    # the default parameter set of its class, and the hash stays put
    from dataclasses import fields

    from cavmem.cavity import CavityParams
    from cavmem.memory import MemoryConfig
    from cavmem.optimize import DriftModel, GASettings, ParameterSpace
    from cavmem.vapour import VapourParams
    cfg = ExperimentConfig()
    doc = cfg.doc
    assert cfg.cavity_params() == CavityParams()
    assert cfg.vapour_params() == VapourParams()
    assert cfg.memory_config() == MemoryConfig()
    assert cfg.ga_settings() == GASettings()
    assert cfg.drift_model() == DriftModel()
    assert cfg.parameter_space() == ParameterSpace()
    for section, cls in ((doc["cavity"], CavityParams), (doc["vapour"], VapourParams),
                         (doc["optimizer"]["drift"], DriftModel)):
        assert section == {f.name: f.default for f in fields(cls)}
    assert doc["memory"] == {f.name: f.default for f in fields(MemoryConfig)
                             if f.name != "cavity"}
    assert {k: v for k, v in doc["optimizer"].items()
            if k not in ("drift", "bounds")} == {f.name: f.default
                                                 for f in fields(GASettings)}
    assert doc["optimizer"]["bounds"] == {k: list(v) for k, v
                                          in ParameterSpace().bounds.items()}
    assert cfg.config_hash() == "893c73aac85c62f9"


def test_config_constants_path_loaded_on_first_use(tmp_path):
    # a config built through the API honours its own constants_path, in its
    # constants and in its provenance
    alt = _edited_constants(tmp_path / "alt.cfg", "d52_a_mhz = -7.44",
                            "d52_a_mhz = -7.5")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"constants_path": alt}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.atom_constants().d52.a_mhz == -7.5
    assert cfg.atom_constants() is cfg.atom_constants()
    assert cfg.provenance()["constants_path"] == alt
    assert ExperimentConfig().atom_constants().d52.a_mhz == -7.44
    assert ExperimentConfig().provenance()["constants_path"] is None
    bad = ExperimentConfig.from_dict({"constants_path": str(tmp_path / "missing")})
    with pytest.raises(ConfigError):
        bad.atom_constants()


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 777, "memory": {"cooperativity": 1200.0}}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.seed == 777
    assert cfg.memory_config().cooperativity == 1200.0


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(path))


@pytest.mark.parametrize("override", [
    {"memory": {"cooperativity": math.nan}},
    {"field_mt": math.inf},
    {"cavity": {"r1": -math.inf}},
    {"optimizer": {"bounds": {"write_energy_nj": [0.01, math.nan, 1e-4]}}},
])
def test_non_finite_values_rejected(tmp_path, override):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(override)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(override))   # writes NaN / Infinity literals
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(path))


# -------------------------------------------------------------------- CLI

def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


def test_write_csv_matches_csv_writer(tmp_path):
    # byte for byte what csv.writer writes for repr(float) rows, across more
    # rows than one block, whether a block repeats its values or not
    n = 4099
    x = np.linspace(-1.0, 1.0, n)
    x[[0, 1, 2, 3, 4097]] = [-0.0, 0.0, math.inf, -math.inf, math.nan]
    y = np.geomspace(1e-300, 1e300, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    flags = np.arange(n) % 3 - 1
    # signed zeros, nan, infinities and a subnormal, each repeated
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.5])
    # a resmap-shaped pair of one grid: 67 x 67 rows cross the block boundary
    grid = np.linspace(-12.0, 12.0, 67)
    sig, ctl = np.repeat(grid, 67), np.tile(grid, 67)
    tables = {
        "mixed": [x, y, flags],
        "distinct": [y, flags],
        "special": [np.tile(special, 600), np.repeat(special, 600),
                    np.arange(4200) % 3 - 1],
        "resmap": [sig, ctl, 1.0 / (1.0 + (sig - ctl) ** 2),
                   (np.abs(sig - ctl) < 1.0).astype(int)],
        "twin": [x, x.copy(), flags],
    }
    for name, columns in tables.items():
        header = [f"c{j}" for j in range(len(columns))]
        _write_csv(str(tmp_path / f"{name}.csv"), header, columns)
        with open(tmp_path / f"{name}_ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*(c.tolist() for c in columns)):
                writer.writerow([repr(float(v)) if isinstance(v, float) else v
                                 for v in row])
        assert (tmp_path / f"{name}.csv").read_bytes() \
            == (tmp_path / f"{name}_ref.csv").read_bytes(), name
    assert b"-0.0," in (tmp_path / "mixed.csv").read_bytes()
    assert b"\r\n-0.0,-0.0," in (tmp_path / "special.csv").read_bytes()


@pytest.mark.parametrize("block_rows, cap", [(4096, 1000), (1000, 700)])
def test_write_csv_matches_csv_writer_past_the_memo_cap(tmp_path, monkeypatch,
                                                       block_rows, cap):
    # a memo capped below one block keeps only part of the first block's
    # values; at 1000 rows a block, later blocks find the memo full and
    # take nothing, and the all-distinct tables drop it at their second
    # block and format their later blocks without it
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(cli, "_CSV_MEMO_CAP", cap)
    test_write_csv_matches_csv_writer(tmp_path)


def test_write_csv_memo_size_after_each_block(tmp_path, monkeypatch):
    # the memo is bounded by its cap, and only a block that more blocks
    # follow adds to it; a table of one block keeps none, and a block
    # that finds no hit drops it
    sizes = []
    unrecorded = cli._repr_columns

    def recorded(columns, memo, more):
        texts, memo = unrecorded(columns, memo, more)
        sizes.append(None if memo is None else len(memo[0]))
        return texts, memo
    monkeypatch.setattr(cli, "_repr_columns", recorded)
    monkeypatch.setattr(cli, "_CSV_MEMO_CAP", 10000)
    rows = cli._CSV_BLOCK_ROWS

    def sizes_of(n, columns):
        sizes.clear()
        _write_csv(str(tmp_path / "t.csv"), ["c"] * len(columns), [c[:n] for c in columns])
        return sizes

    # each block: the 4 shared values, all hits after the first, and its
    # own distinct ones
    shared = np.tile(np.arange(4.0), 10 * rows // 4)
    distinct = np.arange(10.0 * rows) + 0.5
    assert sizes_of(10 * rows, [shared, distinct]) == [4100, 8196] + [10000] * 8
    assert sizes_of(2 * rows, [shared, distinct]) == [4100, 4100]
    assert sizes_of(rows, [shared, distinct]) == [None]
    assert sizes_of(3 * rows, [distinct]) == [4096, None, None]


def test_write_csv_formats_each_distinct_float_of_a_resmap_once(tmp_path, monkeypatch):
    # the 301-point resmap spans 23 blocks, and its 22 144 distinct floats
    # fit the memo, so no value is formatted twice
    args = build_parser().parse_args(["cavity", "resmap", "--points", "301"])
    (name, header, columns), _ = args.func(ExperimentConfig(), args)
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)
    monkeypatch.setattr(cli, "repr", counted, raising=False)
    _write_csv(str(tmp_path / name), header, columns)
    floats = np.concatenate([c for c in columns if c.dtype.kind == "f"])
    assert len(calls) == len(np.unique(floats.view(np.int64))) == 22144
    assert len(columns[0]) > 22 * cli._CSV_BLOCK_ROWS


def test_cli_levels_roundtrip(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "levels", "--field", "0", "300",
               "--points", "31"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "levels.csv")
    assert header[0] == "field_mt"
    assert len(header) == 1 + 48
    assert rows.shape == (31, 49)
    # traces continuous: bounded steps between rows
    assert np.max(np.abs(np.diff(rows[:, 1:], axis=0))) < 500.0
    # parse-back oracle: the CSV is bit-lossless against the library values
    from cavmem.atomic import all_manifolds, breit_rabi_curve
    grid = np.linspace(0.0, 300.0, 31)
    col = 1
    for man in all_manifolds():
        table = breit_rabi_curve(man, grid)
        assert np.array_equal(rows[:, col:col + man.dim], table)
        col += man.dim


def test_cli_levels_last_row_matches_direct_diagonalization(tmp_path):
    # labels do not depend on where the grid starts
    rc = main(["--out", str(tmp_path), "levels", "--field", "0", "300"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "levels.csv")
    from cavmem.atomic import all_manifolds, diagonalize_manifold
    direct = [s.energy_mhz for man in all_manifolds()
              for s in diagonalize_manifold(man, 300.0)]
    assert len(direct) == 48
    assert np.array_equal(rows[-1, 1:], direct)


def test_cli_levels_zero_field(tmp_path):
    rc = main(["--out", str(tmp_path), "levels", "--field", "0", "0"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "levels.csv")
    assert rows.shape[0] == 1
    ground = rows[0, 1:9]
    assert len(np.unique(np.round(ground, 6))) == 2


def test_cli_levels_summary(tmp_path):
    # the field grid and the manifolds of the table, and the provenance
    assert main(["--out", str(tmp_path), "levels", "--field", "0", "300",
                 "--points", "7", "--manifolds", "5D5/2", "5S1/2"]) == 0
    doc = json.loads((tmp_path / "levels.json").read_text(),
                     parse_constant=_reject_constant)
    assert set(doc) == {"field_mt", "manifolds", "provenance"}
    assert doc["field_mt"] == np.linspace(0.0, 300.0, 7).tolist()
    assert doc["manifolds"] == ["5S1/2", "5D5/2"]
    _, rows = read_csv(tmp_path / "levels.csv")
    assert rows.shape == (7, 1 + 8 + 24)
    assert doc["provenance"] == ExperimentConfig().provenance()


def test_cli_levels_bad_manifold(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--out", str(tmp_path), "levels", "--manifolds", "6X1/2"])


def test_cli_spectrum_one_photon(tmp_path):
    rc = main(["--out", str(tmp_path), "spectrum", "one-photon",
               "--points", "301"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "spectrum_one_photon.csv")
    assert header == ["detuning_ghz", "transmission"]
    assert rows[:, 1].min() < 0.1     # deep composite dip
    assert rows[:, 1].max() > 0.98
    meta = json.loads((tmp_path / "spectrum_one_photon.json").read_text())
    assert meta["optical_depth"] == pytest.approx(200.0)
    assert "provenance" in meta


def test_cli_spectrum_flat_when_depth_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vapour": {"optical_depth": 0.0}}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path),
               "spectrum", "one-photon", "--points", "101"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "spectrum_one_photon.csv")
    assert np.allclose(rows[:, 1], 1.0)


def test_cli_spectrum_two_photon_matches_lines(tmp_path):
    rc = main(["--out", str(tmp_path), "spectrum", "two-photon",
               "--signal-detuning", "-15", "--lo", "7.18", "--hi", "8.18",
               "--points", "2001"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "spectrum_two_photon.csv")
    deltas, trans = rows[:, 0], rows[:, 1]
    dips = deltas[np.r_[False, (trans[1:-1] < trans[:-2])
                        & (trans[1:-1] < trans[2:]), False] & (trans < 0.995)]
    assert len(dips) == 2
    from cavmem.atomic import group_two_photon_lines, two_photon_lines
    pos, strength, _ = group_two_photon_lines(two_photon_lines(
        169.0, "sigma-", "sigma-", total_window_ghz=(-7.9, -6.8),
        reference_signal_detuning_ghz=-15.0))
    expected = np.sort(pos[strength > 1e-3 * strength.max()] - (-15.0))
    assert np.allclose(sorted(dips), expected, atol=1e-3)


def test_cli_spectrum_two_photon_reversed_window(tmp_path):
    # a grid from high to low shows the lines of the same window, as the
    # library's spectrum does; the table once used --lo and --hi as given
    # and refused the reversed window
    docs = {}
    for tag, lo, hi in (("up", "-12", "4"), ("down", "4", "-12")):
        assert main(["--out", str(tmp_path / tag), "spectrum", "two-photon",
                     "--lo", lo, "--hi", hi, "--points", "11"]) == 0
        docs[tag] = json.loads((tmp_path / tag / "spectrum_two_photon.json").read_text())
    assert docs["down"]["lines"]
    assert docs["down"]["lines"] == docs["up"]["lines"]


def test_cli_spectrum_two_photon_window_without_a_line(tmp_path):
    # far from every two-photon resonance the signal passes untouched
    assert main(["--out", str(tmp_path), "spectrum", "two-photon",
                 "--lo", "100", "--hi", "101", "--points", "11"]) == 0
    _, rows = read_csv(tmp_path / "spectrum_two_photon.csv")
    assert np.all(rows[:, 1] == 1.0)
    assert json.loads((tmp_path / "spectrum_two_photon.json").read_text())["lines"] == []


def test_cli_cavity_scan_summary(tmp_path):
    rc = main(["--out", str(tmp_path), "cavity", "scan"])
    assert rc == 0
    summary = json.loads((tmp_path / "cavity_scan.json").read_text())
    assert summary["finesse"] == pytest.approx(9.5, abs=0.7)
    assert summary["linewidth_ghz"] == pytest.approx(0.88, abs=0.06)
    assert summary["insertion_loss_db"] == pytest.approx(-5.0, abs=0.6)


def test_cli_cavity_lossless_zero_db(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cavity": {"zeta_rt": 0.0, "r2": 1.0}}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "cavity", "scan"])
    assert rc == 0
    summary = json.loads((tmp_path / "cavity_scan.json").read_text())
    assert abs(summary["insertion_loss_db"]) < 1e-9


def test_cli_cavity_resmap_spacing(tmp_path):
    rc = main(["--out", str(tmp_path), "cavity", "resmap",
               "--lo", "-20", "--hi", "20", "--points", "401"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "cavity_resmap.csv")
    summary = json.loads((tmp_path / "cavity_resmap.json").read_text())
    # buildup peaks along the diagonal slice repeat at the fsr
    sig = rows[:, 0].reshape(401, 401)[:, 0]
    diag = rows[:, 2].reshape(401, 401)[:, 0]
    peaks = sig[1:-1][(diag[1:-1] > diag[:-2]) & (diag[1:-1] > diag[2:])]
    assert np.allclose(np.diff(peaks), 8.3, atol=0.2)
    assert summary["dual_resonant_pairs"]


def test_cli_cavity_resmap_descending_grid_marks_the_two_photon_line(tmp_path):
    # the mask's default tolerance is half the grid spacing; a descending
    # grid once took it negative and marked no point
    marked = {}
    for tag, lo, hi in (("up", "-12", "12"), ("down", "12", "-12")):
        assert main(["--out", str(tmp_path / tag), "cavity", "resmap",
                     "--lo", lo, "--hi", hi, "--points", "101"]) == 0
        _, rows = read_csv(tmp_path / tag / "cavity_resmap.csv")
        marked[tag] = rows[rows[:, 3] == 1, :2]
    assert len(marked["up"]) == len(marked["down"]) == 101
    assert np.allclose(marked["down"][::-1], marked["up"], rtol=0.0, atol=1e-12)


def test_cli_store_defaults(tmp_path):
    rc = main(["--out", str(tmp_path), "store"])
    assert rc == 0
    summary = json.loads((tmp_path / "store_summary.json").read_text())
    assert summary["total_efficiency"] == pytest.approx(0.249, abs=0.01)
    assert summary["snr_db"] == pytest.approx(
        10 * math.log10(summary["retrieved_counts"] / 3e-4), rel=1e-9)


def test_cli_store_summary_records_its_drift_offset(tmp_path):
    for tag, flags, expected in (("on", ["--drift-offset", "0.25"], 0.25), ("off", [], 0.0)):
        assert main(["--out", str(tmp_path / tag), "store", "--dt", "0.02", *flags]) == 0
        summary = json.loads((tmp_path / tag / "store_summary.json").read_text())
        assert summary["drift_offset_ghz"] == expected


def test_cli_store_summary_closes_and_reference_flux_integrates(tmp_path):
    # the summary's closure residual is the share of its input photons that
    # its own channels leave unbooked
    assert main(["--out", str(tmp_path), "store"]) == 0
    summary = json.loads((tmp_path / "store_summary.json").read_text())
    b = summary["bookkeeping"]
    total = (b["output_total"] + b["loss_polarization"] + b["loss_spin"]
             + b["loss_cavity_internal"] + b["loss_dephasing"]
             + b["residual_excitation"])
    residual = summary["integrator"]["closure_residual"]
    assert residual == pytest.approx(1.0 - total / summary["input_photons"],
                                     rel=0.0, abs=1e-15)
    assert abs(residual) <= 1e-4
    _, rows = read_csv(tmp_path / "store_flux.csv")
    integral = np.trapezoid(rows[:, 2], rows[:, 0])
    assert integral == pytest.approx(summary["reference_counts"], rel=1e-12)


def test_cli_store_summary_reports_the_integrator(tmp_path, capsys):
    # the storage lane loops 2592 steps at dt 0.01, stepped in time blocks
    # of 48; the margin is the factor by which dt could grow before the
    # guard refuses it
    assert main(["--out", str(tmp_path / "a"), "store"]) == 0
    run = json.loads((tmp_path / "a" / "store_summary.json").read_text())["integrator"]
    assert list(run) == ["dt_ns", "loop_steps", "lane_steps", "block_steps", "lam_max_dt",
                         "stability_margin", "closure_residual"]
    assert (run["dt_ns"], run["loop_steps"], run["lane_steps"], run["block_steps"]) \
        == (0.01, 2592, 2592, 48)
    assert 1.0 < run["stability_margin"] == pytest.approx(2.5 / run["lam_max_dt"])
    assert main(["--out", str(tmp_path / "b"), "store", "--dt", "0.02"]) == 0
    run2 = json.loads((tmp_path / "b" / "store_summary.json").read_text())["integrator"]
    assert run2["lam_max_dt"] == pytest.approx(2 * run["lam_max_dt"], rel=1e-12)
    capsys.readouterr()
    too_large = f"{0.01 * run['stability_margin'] * 1.01:.6f}"
    assert main(["--out", str(tmp_path / "c"), "store", "--dt", too_large]) == 3
    assert "too large for the fastest mode" in capsys.readouterr().err


def test_cli_store_with_jumped_storage_flux_integrates_to_counts(tmp_path):
    # a 40 ns read delay leaves a drive-free stretch that the integrator
    # jumps over; the flux rows inside it still carry the output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulses": {"read": {"center_ns": 40.1}}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "store"]) == 0
    summary = json.loads((tmp_path / "store_summary.json").read_text())
    _, rows = read_csv(tmp_path / "store_flux.csv")
    assert np.trapezoid(rows[:, 1], rows[:, 0]) == pytest.approx(
        summary["leak_counts"] + summary["retrieved_counts"], rel=1e-6)
    assert np.trapezoid(rows[:, 2], rows[:, 0]) == pytest.approx(
        summary["reference_counts"], rel=1e-12)
    assert abs(summary["integrator"]["closure_residual"]) <= 1e-4


def test_cli_store_flux_ends_at_last_counted_grid_point(tmp_path):
    # the flux table stops at the last grid point that the storage lane
    # counts, t1 of its lane integrated alone
    from cavmem.memory import simulate_batch
    assert main(["--out", str(tmp_path), "store"]) == 0
    _, rows = read_csv(tmp_path / "store_flux.csv")
    cfg = ExperimentConfig()
    sig, wr, rd = (cfg.pulse(n) for n in ("signal", "write", "read"))
    ts = simulate_batch(cfg.memory_config(), [sig], [wr], [rd], 0.0, 0.01)["ts"]
    assert rows[-1, 0] == ts[-1]


def test_cli_store_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "store"]) == 0
    assert main(["--out", str(out2), "store"]) == 0
    flux1 = (out1 / "store_flux.csv").read_bytes()
    flux2 = (out2 / "store_flux.csv").read_bytes()
    assert flux1 == flux2


def test_cli_store_control_off(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulses": {
        "write": {"center_ns": 0.1, "fwhm_ns": 1.6, "energy": 0.0,
                  "carrier_detuning_ghz": 0.0, "phase_rad": 0.0},
        "read": {"center_ns": 12.6, "fwhm_ns": 2.7, "energy": 0.0,
                 "carrier_detuning_ghz": 0.5341, "phase_rad": 0.0}}}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "store"])
    assert rc == 0
    summary = json.loads((tmp_path / "store_summary.json").read_text())
    assert summary["retrieved_counts"] < 1e-4 * summary["reference_counts"]


def test_cli_store_without_coupling_or_polarization_damping(tmp_path):
    # at cooperativity 0 and natural width 0 the polarization's pole lies on
    # the real axis, uncoupled: the reference is the bare cavity's, the same
    # as with any natural width, and is found without a warning
    import warnings
    references = []
    for width in (0.0, 6.0666):
        cfg, out = tmp_path / f"cfg{width}.json", tmp_path / f"out{width}"
        cfg.write_text(json.dumps({"memory": {"cooperativity": 0,
                                              "intermediate_natural_fwhm_mhz": width}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg), "--out", str(out), "store"]) == 0
        references.append(json.loads((out / "store_summary.json").read_text())
                          ["reference_counts"])
    assert math.isfinite(references[0]) and references[0] > 0
    assert references[0] == references[1]


def test_cli_store_signal_without_photons_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulses": {"signal": {"energy": 0.0}}}))
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "store"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "signal" in err["message"] and "photons" in err["message"]
    assert not (out / "store_summary.json").exists()


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_cli_store_summary_is_strict_json_without_noise(tmp_path):
    # zero noise makes the SNR unbounded; it is written as text that
    # float() reads back, not as a bare Infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"memory": {"noise_photons_per_pulse": 0.0}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "store"]) == 0
    text = (tmp_path / "store_summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["snr_db"] == "inf"
    assert float(summary["snr_db"]) == math.inf


def test_cli_json_writes_non_finite_floats_as_text(tmp_path):
    from cavmem.cli import _write_json
    path = tmp_path / "doc.json"
    _write_json(str(path), {"x": [math.inf, -math.inf], "y": {"z": np.array([math.nan, 1.5])}},
                ExperimentConfig())
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert doc["x"] == ["inf", "-inf"] and doc["y"]["z"] == ["nan", 1.5]
    assert [float(v) for v in doc["x"]] == [math.inf, -math.inf]


def test_cli_scan_energy(tmp_path):
    rc = main(["--out", str(tmp_path), "scan", "energy",
               "--lo", "0.05", "--hi", "0.5", "--points", "10"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "scan_energy.csv")
    assert header == ["write_energy_nj", "total_efficiency"]
    assert rows.shape == (10, 2)


def test_cli_scan_summary(tmp_path):
    # the scan's kind, grid and step, and the provenance
    assert main(["--out", str(tmp_path), "scan", "energy", "--lo", "0.05",
                 "--hi", "0.5", "--points", "4", "--dt", "0.01"]) == 0
    doc = json.loads((tmp_path / "scan_energy.json").read_text(),
                     parse_constant=_reject_constant)
    assert set(doc) == {"kind", "write_energy_nj", "dt_ns", "provenance"}
    assert doc["kind"] == "energy" and doc["dt_ns"] == 0.01
    _, rows = read_csv(tmp_path / "scan_energy.csv")
    assert doc["write_energy_nj"] == rows[:, 0].tolist()
    assert doc["provenance"] == ExperimentConfig().provenance()


def test_cli_optimize_zero_generations_equivalent(tmp_path):
    # the trace CSV parses back to the trace's records exactly, and the
    # settings file carries every GA setting and the provenance
    from dataclasses import asdict, replace

    from cavmem.optimize import PARAMETER_NAMES, run_ga
    rc = main(["--out", str(tmp_path), "optimize", "--generations", "1",
               "--seed", "9"])
    assert rc == 0
    with open(tmp_path / "optimize_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + initial population + one generation
    assert rows[0] == ["iteration", *PARAMETER_NAMES, "objective",
                       "drift_offset_ghz"]
    cfg = ExperimentConfig()
    settings = replace(cfg.ga_settings(), generations=1)
    trace = run_ga(cfg.parameter_space(), cfg.memory_config(),
                   cfg.drift_model(enabled=False), settings, 9)
    assert [{"iteration": int(row[0]),
             "parameters": [float(v) for v in row[1:-2]],
             "objective": float(row[-2]),
             "drift_offset_ghz": float(row[-1])} for row in rows[1:]] \
        == trace.iterations
    doc = json.loads((tmp_path / "optimize_settings.json").read_text())
    assert doc["seed"] == 9
    for name, value in asdict(settings).items():
        assert doc[name] == value
    assert doc["drift_enabled"] is False
    assert doc["bounds"] == cfg.doc["optimizer"]["bounds"]
    assert doc["provenance"] == cfg.provenance()


def test_cli_optimize_summary_counts_its_faults(tmp_path):
    # write/read delays no longer than the pulses' widths make most settings
    # overlap, and signals narrower than four steps are not resolved; the
    # summary counts each fault message as the API run does
    from collections import Counter
    from dataclasses import replace

    from cavmem.optimize import run_ga
    doc = {"optimizer": {"population": 8, "bounds": {
        "write_read_delay_ns": [1.0, 4.0, 1e-3], "write_fwhm_ns": [1.0, 3.0, 1e-3],
        "read_fwhm_ns": [1.0, 3.0, 1e-3], "signal_fwhm_ns": [0.02, 0.1, 1e-3]}}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "optimize",
                 "--generations", "2", "--seed", "4"]) == 0
    summary = json.loads((tmp_path / "optimize_settings.json").read_text())
    cfg = ExperimentConfig.from_dict(doc)
    trace = run_ga(cfg.parameter_space(), cfg.memory_config(), cfg.drift_model(),
                   replace(cfg.ga_settings(), generations=2), 4)
    assert list(summary["faults"]) == ["a pulse too narrow for the grid at dt 0.02 ns",
                                       "read/write overlap"]
    assert summary["faults"] == dict(Counter(trace.faults))
    assert list(summary["faults"]) == list(dict.fromkeys(trace.faults))
    assert summary["bound_violations"] == trace.bound_violations
    # the diagnostics stay out of the trace table
    header, _ = read_csv(tmp_path / "optimize_trace.csv")
    assert "faults" not in header and "bound_violations" not in header


def test_cli_fit_roundtrip_cavity(tmp_path):
    # emitted cavity scan re-ingested by the fitter
    assert main(["--out", str(tmp_path), "cavity", "scan",
                 "--lo", "-12", "--hi", "12", "--points", "1001"]) == 0
    rc = main(["--out", str(tmp_path), "fit", "--model", "cavity",
               str(tmp_path / "cavity_scan.csv")])
    assert rc == 0
    fit = json.loads((tmp_path / "fit_cavity.json").read_text())
    assert fit["parameters"]["fsr_ghz"] == pytest.approx(8.3, abs=0.01)
    assert fit["parameters"]["zeta_rt"] == pytest.approx(0.135, abs=0.005)
    assert fit["derived"]["finesse"] == pytest.approx(9.5, abs=0.7)


def test_cli_fit_of_a_cavity_scan_with_every_row_twice(tmp_path):
    # the fsr guess reads the trace averaged over the distinct detunings;
    # counted in samples of a doubled scan, whose median spacing is 0, it
    # refused the scan ("free spectral range must be positive", exit 3)
    assert main(["--out", str(tmp_path), "cavity", "scan"]) == 0
    header, rows = read_csv(tmp_path / "cavity_scan.csv")
    doubled = tmp_path / "doubled.csv"
    _write_csv(str(doubled), header, list(np.repeat(rows, 2, axis=0).T))
    fsr = []
    for name, data in (("once", tmp_path / "cavity_scan.csv"), ("twice", doubled)):
        assert main(["--out", str(tmp_path / name), "fit", "--model", "cavity",
                     str(data)]) == 0
        fit = json.loads((tmp_path / name / "fit_cavity.json").read_text())
        fsr.append(fit["parameters"]["fsr_ghz"])
    assert fsr[1] == pytest.approx(fsr[0], rel=1e-6)


def test_cli_fit_roundtrip_lifetime(tmp_path):
    assert main(["--out", str(tmp_path), "scan", "lifetime",
                 "--lo", "8", "--hi", "98", "--points", "181"]) == 0
    rc = main(["--out", str(tmp_path), "fit", "--model", "lifetime",
               str(tmp_path / "scan_lifetime.csv")])
    assert rc == 0
    fit = json.loads((tmp_path / "fit_lifetime.json").read_text())
    assert fit["parameters"]["nu_prime_ghz"] * 1e3 == pytest.approx(12.6, abs=0.7)
    assert fit["parameters"]["amp_main"] == pytest.approx(0.51, abs=0.03)


def test_cli_fit_of_a_lifetime_scan_in_percent(tmp_path):
    # the amplitudes' box follows the data's scale: efficiencies in percent
    # once started outside it and exited 3
    assert main(["--out", str(tmp_path), "scan", "lifetime", "--points", "40"]) == 0
    header, rows = read_csv(tmp_path / "scan_lifetime.csv")
    percent = tmp_path / "percent.csv"
    _write_csv(str(percent), header, [rows[:, 0], 100.0 * rows[:, 1]])
    unit = _fit_doc(tmp_path / "unit", "lifetime", tmp_path / "scan_lifetime.csv")
    scaled = _fit_doc(tmp_path / "percent", "lifetime", percent)
    assert scaled["flags"] == unit["flags"] == []
    unit, scaled = unit["parameters"], scaled["parameters"]
    for name in ("nu_prime_ghz", "omega_rad_ns"):
        assert scaled[name] == pytest.approx(unit[name], rel=1e-9)
    for name in ("amp_main", "amp_beat"):
        assert scaled[name] == pytest.approx(10.0 * unit[name], rel=1e-9)


def _fit_via_cli(tmp_path, model, x, y, override=None):
    """The parameters and derived values `cavmem fit --model model` gives for
    the data (x, y), run with the config document `override`."""
    data = tmp_path / "data.csv"
    _write_csv(str(data), ["x", "y"], [x, y])
    argv = ["--out", str(tmp_path)]
    if override is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        argv += ["--config", str(cfg)]
    assert main([*argv, "fit", "--model", model, str(data)]) == 0
    doc = json.loads((tmp_path / f"fit_{model}.json").read_text())
    return doc["parameters"], doc["derived"]


def test_cli_doppler_fit_uses_config_temperature(tmp_path):
    from cavmem.vapour import VapourParams, one_photon_spectrum
    x = np.linspace(-12.0, 4.0, 400)
    y = one_photon_spectrum(VapourParams(temperature_c=110.0, optical_depth=200.0),
                            169.0, "sigma-", x)
    params, _ = _fit_via_cli(tmp_path, "doppler", x, y,
                             {"vapour": {"temperature_c": 110.0}})
    assert params["b_mt"] == pytest.approx(169.0, abs=0.5)
    assert params["optical_depth"] == pytest.approx(200.0, rel=0.02)


def test_cli_doppler_fit_of_sigma_plus_spectrum(tmp_path):
    # without --polarization the fit assumed sigma- lines and ran off to
    # 310.5 mT without converging
    assert main(["--out", str(tmp_path), "spectrum", "one-photon",
                 "--polarization", "sigma+"]) == 0
    assert main(["--out", str(tmp_path), "fit", "--model", "doppler",
                 "--polarization", "sigma+",
                 str(tmp_path / "spectrum_one_photon.csv")]) == 0
    fit = json.loads((tmp_path / "fit_doppler.json").read_text())
    assert fit["parameters"]["b_mt"] == pytest.approx(ExperimentConfig().field_mt, abs=0.5)
    assert fit["converged"] is True
    assert fit["polarization"] == "sigma+"
    # the summary names the polarization the default run assumed
    assert main(["--out", str(tmp_path), "fit", "--model", "doppler",
                 str(tmp_path / "spectrum_one_photon.csv")]) == 0
    fit = json.loads((tmp_path / "fit_doppler.json").read_text())
    assert fit["polarization"] == "sigma-"


def test_cli_cavity_fit_uses_config_mirrors(tmp_path):
    from cavmem import cavity
    truth = cavity.CavityParams(r1=0.8)
    x = np.linspace(-12.0, 12.0, 1001)
    y = cavity.reflection_response(truth, x).reflected_power
    params, derived = _fit_via_cli(tmp_path, "cavity", x, y, {"cavity": {"r1": 0.8}})
    assert params["fsr_ghz"] == pytest.approx(truth.fsr_ghz, abs=1e-3)
    assert params["zeta_rt"] == pytest.approx(truth.zeta_rt, abs=1e-3)
    assert derived["finesse"] == pytest.approx(cavity.finesse(truth), rel=1e-3)


def test_cli_lifetime_fit_uses_config_spin_width(tmp_path):
    from cavmem.fitting import derived_lifetime_metrics, fit_lifetime
    from cavmem.memory import MemoryConfig, lifetime_model
    gamma_m = MemoryConfig(spin_fwhm_mhz=3.0).gamma_m
    t = np.linspace(8.0, 98.0, 181)
    y = lifetime_model(t, gamma_m_rad_ns=gamma_m)
    params, derived = _fit_via_cli(tmp_path, "lifetime", t, y,
                                   {"memory": {"spin_fwhm_mhz": 3.0}})
    expected = fit_lifetime(t, y, gamma_m_rad_ns=gamma_m)
    assert params == expected.parameters
    assert derived == derived_lifetime_metrics(expected, gamma_m_rad_ns=gamma_m)
    assert params != fit_lifetime(t, y).parameters
    assert params["nu_prime_ghz"] == pytest.approx(0.0126, rel=1e-3)


def _fit_doc(tmp_path, model, data):
    """The summary of `cavmem fit --model model data`, which must exit 0."""
    assert main(["--out", str(tmp_path), "fit", "--model", model, str(data)]) == 0
    return json.loads((tmp_path / f"fit_{model}.json").read_text())


def test_cli_lifetime_fit_of_a_descending_scan(tmp_path):
    # the scan writes its rows in the order of its grid; the fit's FFT
    # heuristic once took a negative spacing and died in np.polyfit
    assert main(["--out", str(tmp_path), "scan", "lifetime",
                 "--lo", "100", "--hi", "8"]) == 0
    _, rows = read_csv(tmp_path / "scan_lifetime.csv")
    assert rows[0, 0] == 100.0 and rows[-1, 0] == 8.0
    fit = _fit_doc(tmp_path, "lifetime", tmp_path / "scan_lifetime.csv")
    assert fit["parameters"]["nu_prime_ghz"] * 1e3 == pytest.approx(12.6, abs=0.7)


def test_cli_lifetime_fit_of_repeated_times(tmp_path):
    # every time twice: the median spacing of the samples is 0, which once
    # asked np.arange for an unbounded grid
    from cavmem.memory import lifetime_model
    t = np.repeat(np.linspace(8.0, 98.0, 91), 2)
    params, _ = _fit_via_cli(tmp_path, "lifetime", t, lifetime_model(t))
    assert params["nu_prime_ghz"] == pytest.approx(0.0126, rel=1e-3)


def test_cli_cavity_fit_of_a_descending_scan(tmp_path):
    # a negative spacing once made the initial fsr negative, outside its
    # own bounds (exit 3)
    assert main(["--out", str(tmp_path), "cavity", "scan",
                 "--lo", "12", "--hi", "-12"]) == 0
    fit = _fit_doc(tmp_path, "cavity", tmp_path / "cavity_scan.csv")
    assert fit["parameters"]["fsr_ghz"] == pytest.approx(8.3, abs=0.01)
    assert fit["parameters"]["zeta_rt"] == pytest.approx(0.135, abs=0.005)


@pytest.mark.parametrize("model, argv, table", [
    ("cavity", ["cavity", "scan"], "cavity_scan.csv"),
    ("lifetime", ["scan", "lifetime"], "scan_lifetime.csv"),
    ("doppler", ["spectrum", "one-photon", "--points", "201"], "spectrum_one_photon.csv"),
    ("line", ["spectrum", "two-photon", "--signal-detuning", "-15", "--lo", "7.18",
              "--hi", "7.68", "--points", "201"], "spectrum_two_photon.csv"),
], ids=["cavity", "lifetime", "doppler", "line"])
def test_cli_fit_of_reversed_rows_keeps_its_bits(tmp_path, model, argv, table):
    # each fit orders its samples by x first, so the row order of its data
    # cannot move a bit of its result
    assert main(["--out", str(tmp_path), *argv]) == 0
    lines = (tmp_path / table).read_text().splitlines(keepends=True)
    reversed_rows = tmp_path / "reversed.csv"
    reversed_rows.write_text("".join([lines[0], *lines[:0:-1]]))
    forward = _fit_doc(tmp_path / "forward", model, tmp_path / table)
    backward = _fit_doc(tmp_path / "backward", model, reversed_rows)
    assert backward == forward


def _line_data(tmp_path):
    """A two-column CSV of a Gaussian line, for `cavmem fit --model line`."""
    x = np.linspace(-1.0, 1.0, 41)
    path = tmp_path / "line.csv"
    _write_csv(str(path), ["x", "y"], [x, 1.0 - 0.5 * np.exp(-x ** 2 / 0.1)])
    return str(path)


@pytest.mark.parametrize("argv, table, summary", [
    (["levels", "--points", "3"], "levels.csv", "levels.json"),
    (["spectrum", "one-photon", "--points", "11"], "spectrum_one_photon.csv",
     "spectrum_one_photon.json"),
    (["cavity", "scan", "--points", "11"], "cavity_scan.csv", "cavity_scan.json"),
    (["store", "--dt", "0.02"], "store_flux.csv", "store_summary.json"),
    (["scan", "energy", "--points", "2", "--lo", "0.1", "--hi", "0.2"],
     "scan_energy.csv", "scan_energy.json"),
    (["optimize", "--generations", "1"], "optimize_trace.csv",
     "optimize_settings.json"),
    (["fit", "--model", "line", _line_data], None, "fit_line.json"),
], ids=["levels", "spectrum", "cavity", "store", "scan", "optimize", "fit"])
def test_cli_command_writes_table_and_summary_and_prints_path(tmp_path, capsys,
                                                             argv, table, summary):
    # every command leaves its table and its summary, with provenance, under
    # --out and prints the table's path (the summary's when it has no table);
    # an --out holding ".csv" once sent the summary to a missing directory
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimizer": {"population": 8}}))
    out = tmp_path / "run.csv"
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert main(["--config", str(cfg), "--out", str(out), *argv]) == 0
    printed = capsys.readouterr().out
    assert printed == os.path.join(str(out), table or summary) + "\n"
    assert sorted(os.listdir(out)) == sorted(n for n in (table, summary) if n)
    doc = json.loads((out / summary).read_text(), parse_constant=_reject_constant)
    assert doc["provenance"] == ExperimentConfig.from_file(str(cfg)).provenance()


def test_cli_command_returns_its_outputs_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    args = build_parser().parse_args(["--out", str(out), "levels", "--points", "3"])
    (name, header, columns), (summary_name, payload) = cmd_levels(ExperimentConfig(), args)
    assert (name, summary_name) == ("levels.csv", "levels.json")
    assert header[0] == "field_mt" and len(header) == len(columns) == 1 + 48
    assert payload["field_mt"].tolist() == [0.0, 150.0, 300.0]
    assert "provenance" not in payload
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_cli_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"unknown_section": 1}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "store"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_cli_nan_config_exits_2_without_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"memory": {"cooperativity": NaN}}')
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "store"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert not (out / "store_summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["levels", "--field", "nan", "300"],
    ["levels", "--field", "0", "inf"],
    ["store", "--dt", "nan"],
    ["spectrum", "one-photon", "--lo", "nan"],
], ids=["levels-nan", "levels-inf", "store-dt-nan", "spectrum-lo-nan"])
def test_cli_non_finite_argument_exits_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(["--out", str(out), *argv])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "must be finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["levels", "--points", "-1"],
    ["levels", "--points", "0"],
    ["spectrum", "one-photon", "--points", "0"],
    ["cavity", "scan", "--points", "0"],
    ["scan", "lifetime", "--points", "0"],
    ["scan", "energy", "--points", "-3"],
], ids=["levels-neg", "levels-zero", "spectrum-zero", "cavity-zero",
        "scan-lifetime-zero", "scan-energy-neg"])
def test_cli_non_positive_points_exits_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), *argv])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["store", "--dt", "0"],
    ["store", "--dt", "-0.01"],
    ["scan", "lifetime", "--dt", "0"],
    ["scan", "energy", "--dt", "-0.02"],
], ids=["store-zero", "store-negative", "scan-lifetime-zero", "scan-energy-negative"])
def test_cli_non_positive_dt_exits_2_without_output(tmp_path, capsys, argv):
    # a zero step once ended in a ZeroDivisionError traceback, and a
    # negative one in an empty run that reported an efficiency of 0
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), *argv])
    assert exc.value.code == 2
    assert "argument --dt: must be a positive number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    {"memory": {"cooperativity": -1}},
    {"optimizer": {"population": 4}},
    {"memory": {"cooperativity": "x"}},
    {"seed": -1},
    {"seed": 1.5},
    {"pulses": {"read": {"fwhm_ns": 0}}},
    {"optimizer": {"drift": {"enabled": True, "rate_ghz_per_iteration": "x"}}},
    {"optimizer": {"drift": {"noise_sd_ghz": -1}}},
    {"optimizer": {"drift": {"enabled": "no"}}},
    {"field_mt": "x"},
    {"field_mt": -5},
    {"optimizer": {"dt_ns": -0.02}},
    {"optimizer": {"dt_ns": 0}},
    {"optimizer": {"objective_noise_sd": -1}},
    {"memory": {"line_amp_main": 0.0, "line_amp_beat": 0.0}},
    {"memory": {"spin_fwhm_mhz": -50}},
    {"memory": {"intermediate_natural_fwhm_mhz": -600}},
    {"memory": {"noise_photons_per_pulse": -1e-4}},
], ids=["cooperativity-negative", "population-4", "cooperativity-text",
        "seed-negative", "seed-float", "read-fwhm-zero", "drift-rate-text",
        "drift-noise-negative", "drift-enabled-text", "field-text",
        "field-negative", "ga-dt-negative", "ga-dt-zero", "ga-noise-negative",
        "line-amplitudes-zero", "spin-width-negative", "natural-width-negative",
        "noise-photons-negative"])
def test_cli_refused_config_value_exits_2_without_output(tmp_path, capsys, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "optimize",
               "--generations", "1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("override", [
    {"optimizer": {"tournament": 0}},
    {"optimizer": {"population": 24.5}},
    {"optimizer": {"generations": 1.5}},
    {"optimizer": {"mutation_eta": -1.0}},
    {"pulses": {"read": {"center_ns": "12.6"}}},
    {"memory": {"cooperativity": True}},
], ids=["tournament-zero", "population-fraction", "generations-fraction",
        "mutation-eta-negative", "read-centre-text", "cooperativity-bool"])
def test_cli_config_value_of_wrong_kind_exits_2_without_output(tmp_path, capsys,
                                                                override):
    # each field holds what its annotation says, so a fraction in a count,
    # text or a bool in a number and a count that the GA cannot use are all
    # refused when the config loads, before any command runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "store", "--dt", "0.02"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("output_dir", 5), ("output_dir", ""), ("constants_path", 3),
    ("constants_path", 0), ("constants_path", ""),
], ids=["output-dir-number", "output-dir-empty", "constants-number",
        "constants-zero", "constants-empty"])
def test_cli_config_path_of_wrong_kind_exits_2_naming_the_key(tmp_path, capsys,
                                                               monkeypatch, key, value):
    # a path is a non-empty string (constants_path may also be null): a
    # number would reach os.makedirs as a TypeError, or open() as a file
    # descriptor, and a 0 or "" would fall back to the bundled constants
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main(["--config", str(cfg), "levels"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and key in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    # a directory under a plain file cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    assert main(["--out", str(out), "levels", "--points", "3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and str(out) in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cli_unwritable_config_output_dir_exits_2_naming_the_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(out)}))
    assert main(["--config", str(cfg), "levels", "--points", "3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and str(out) in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]


def test_parameter_sets_refuse_what_they_cannot_use():
    from cavmem.errors import DomainError
    from cavmem.optimize import DriftModel, GASettings
    from cavmem.vapour import VapourParams
    with pytest.raises(DomainError):
        VapourParams(temperature_c=math.nan, optical_depth=100.0)
    with pytest.raises(DomainError):
        GASettings(crossover_eta=math.nan)
    for bad in ({"enabled": "no"}, {"enabled": 1}, {"rate_ghz_per_iteration": "x"},
                {"rate_ghz_per_iteration": math.inf}, {"noise_sd_ghz": -1.0},
                {"noise_sd_ghz": math.nan}):
        with pytest.raises(DomainError):
            DriftModel(**bad)


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "must be a non-negative integer"),
    (["--generations", "0"], "must be a positive integer"),
], ids=["seed-negative", "generations-zero"])
def test_cli_optimize_bad_count_exits_2_without_output(tmp_path, capsys, argv,
                                                       message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "optimize", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_optimize_drift_follows_config_unless_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimizer": {"population": 8,
                                             "drift": {"enabled": True}}}))

    def drift_offsets(tag, *flags):
        out = tmp_path / tag
        assert main(["--config", str(cfg), "--out", str(out), "optimize",
                     "--generations", "1", *flags]) == 0
        header, rows = read_csv(out / "optimize_trace.csv")
        return rows[:, header.index("drift_offset_ghz")]

    assert np.all(drift_offsets("config") != 0.0)
    assert np.all(drift_offsets("off", "--drift", "off") == 0.0)


def test_cli_store_beyond_the_work_cap_exits_3_naming_the_window(tmp_path, capsys):
    # a cavity this narrow rings down for about 1.8e10 ns: 1.8e12 grid
    # points, which the run would allocate before it could fail
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cavity": {"fsr_ghz": 1e-9}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "store"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "cap" in err["message"] and "window runs from" in err["message"]
    assert not out.exists()


def test_cli_store_with_a_signal_one_step_wide_exits_3_naming_the_largest_step(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulses": {"signal": {"fwhm_ns": 0.01}}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "store", "--dt", "0.01"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "signal pulse" in err["message"] and "at most 0.0025 ns" in err["message"]
    assert not out.exists()


def test_cli_store_with_a_fast_spin_wave_exits_3(tmp_path, capsys):
    # a write carrier 30 GHz off turns the spin wave at 188 rad/ns, which
    # RK4 at dt 0.02 cannot follow: the run must be refused, not reported
    # with counts that are not finite
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulses": {"write": {"carrier_detuning_ghz": 30.0}}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "store", "--dt", "0.02"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical" and "fastest mode" in err["message"]
    assert not out.exists()


def _widths():
    """Pulse widths log-uniform over 3 ps to 8 ns: from a sixth of a step of
    0.02 ns to 400 steps."""
    return st.floats(math.log10(0.003), math.log10(8.0)).map(lambda u: 10.0 ** u)


def _maybe_zero(values):
    return st.one_of(st.just(0.0), values)


@settings(max_examples=40)
@given(fwhm=st.tuples(_widths(), _widths(), _widths()),
       energy=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
       carrier=st.tuples(*[_maybe_zero(st.floats(-40.0, 40.0))] * 3),
       write_ns=st.floats(-1.0, 1.0), storage_ns=st.floats(0.0, 30.0),
       cooperativity=_maybe_zero(st.floats(-1.0, 5.0).map(lambda u: 10.0 ** u)),
       widths_mhz=st.tuples(*[_maybe_zero(st.floats(0.01, 3000.0))] * 2),
       detuning_ghz=st.floats(-40.0, 40.0))
def test_cli_store_closes_or_refuses_by_name(tmp_path_factory, fwhm, energy, carrier,
                                             write_ns, storage_ns, cooperativity,
                                             widths_mhz, detuning_ghz):
    # across the domain that the CLI accepts, at the scans' step of 0.02 ns,
    # a run either closes its photon bookkeeping to 1e-3 of the input and
    # emits no more than it receives, or exits 2 or 3 with a named error;
    # a pulse narrower than four steps is refused, so nothing else fails
    centers = (0.0, write_ns, write_ns + storage_ns)
    pulses = {role: {"center_ns": c, "fwhm_ns": f, "energy": e, "carrier_detuning_ghz": d}
              for role, c, f, e, d in zip(("signal", "write", "read"), centers, fwhm,
                                          energy, carrier)}
    doc = {"pulses": pulses,
           "memory": {"cooperativity": cooperativity, "spin_fwhm_mhz": widths_mhz[0],
                      "intermediate_natural_fwhm_mhz": widths_mhz[1],
                      "intermediate_detuning_ghz": detuning_ghz}}
    base = tmp_path_factory.mktemp("store")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["--config", str(cfg), "--out", str(base / "out"), "store", "--dt", "0.02"])
    if rc == 0:
        s = json.loads((base / "out" / "store_summary.json").read_text())
        n_in = s["input_photons"]
        assert abs(s["integrator"]["closure_residual"]) <= 1e-3
        assert s["leak_counts"] + s["retrieved_counts"] <= n_in * (1 + 1e-9)
        assert s["reference_counts"] <= n_in * (1 + 1e-9)
    else:
        assert rc in (2, 3)
        named = json.loads(err.getvalue())
        assert named["error"] in ("config", "numerical") and named["message"]


def test_cli_exit_code_numerical_error(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "store", "--dt", "0.2"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"


def test_cli_stability_guard_prints_a_positive_limit_below_dt(tmp_path, capsys):
    # a far cavity offset makes the fastest mode fast enough that the limit
    # is well below 1e-4 ns; four decimals printed it as 0.0000
    import re
    rc = main(["--out", str(tmp_path), "store", "--drift-offset", "1e6"])
    assert rc == 3
    message = json.loads(capsys.readouterr().err)["message"]
    limit = float(re.search(r"reduce dt below (\S+) ns", message).group(1))
    assert 0.0 < limit < 0.01


def test_cli_fit_missing_file(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "fit", "--model", "line",
               str(tmp_path / "nope.csv")])
    assert rc == 2


@pytest.mark.parametrize("text, code, kind, message", [
    ("x,y\n1,2\n3,4\n", 2, "config", "two-column CSV with a header"),
    ("x,y\n1,2\n1,3\n1,4\n1,5\n1,6\n", 3, "numerical", "two distinct x values"),
], ids=["two-rows", "one-x"])
def test_cli_fit_of_too_few_samples_exits_without_output(tmp_path, capsys, text, code,
                                                          kind, message):
    data = tmp_path / "few.csv"
    data.write_text(text)
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit", "--model", "line", str(data)]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == kind
    assert message in err["message"]
    assert not out.exists()


def test_cli_fit_short_row_exits_2_without_output(tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text("x,y\n1,2\n3\n4,5\n6,7\n")
    out = tmp_path / "out"
    rc = main(["--out", str(out), "fit", "--model", "line", str(data)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "line 3" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cli_fit_non_finite_cell_exits_2_naming_the_line(tmp_path, capsys, cell):
    # the LM engine would refuse it as a numerical failure (exit 3)
    data = tmp_path / "bad.csv"
    data.write_text(f"x,y\n0,1\n1,2\n2,5\n3,{cell}\n4,5\n5,2\n6,1\n7,1\n")
    out = tmp_path / "out"
    rc = main(["--out", str(out), "fit", "--model", "line", str(data)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "line 5" in err["message"] and "finite" in err["message"]
    assert not out.exists()


def test_cli_constants_override(tmp_path):
    # a constants file with a doubled ground hyperfine constant shifts the
    # zero-field splitting accordingly
    from importlib import resources
    text = resources.files("cavmem.data").joinpath("rb87_constants.cfg").read_text()
    text = text.replace("s12_a_mhz = 3417.341305452145",
                        "s12_a_mhz = 6834.68261090429")
    alt = tmp_path / "alt.cfg"
    alt.write_text(text)
    rc = main(["--constants", str(alt), "--out", str(tmp_path),
               "levels", "--field", "0", "0"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "levels.csv")
    ground = rows[0, 1:9]
    split = ground.max() - ground.min()
    assert split == pytest.approx(2 * 6834.68261090429, abs=1e-3)


def test_cli_constants_recorded_in_provenance(tmp_path):
    # an edited 5D5/2 A constant changes the outputs' constants hash but not
    # the config hash, which covers only the config document
    from importlib import resources
    text = resources.files("cavmem.data").joinpath("rb87_constants.cfg").read_text()
    edited = text.replace("d52_a_mhz = -7.44", "d52_a_mhz = -7.5")
    assert edited != text
    alt = tmp_path / "alt.cfg"
    alt.write_text(edited)
    prov = {}
    for tag, extra in (("bundled", []), ("edited", ["--constants", str(alt)])):
        rc = main([*extra, "--out", str(tmp_path / tag), "spectrum",
                   "one-photon", "--points", "11"])
        assert rc == 0
        with open(tmp_path / tag / "spectrum_one_photon.json") as fh:
            prov[tag] = json.load(fh)["provenance"]
    assert prov["bundled"]["constants_path"] is None
    assert prov["edited"]["constants_path"] == str(alt)
    assert prov["bundled"]["constants_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert prov["edited"]["constants_sha256"] == hashlib.sha256(edited.encode()).hexdigest()
    assert prov["bundled"]["config_hash"] == prov["edited"]["config_hash"]


def test_cli_constants_override_does_not_leak(tmp_path):
    # a run with --constants leaves the next run in the process on the
    # bundled file, in its outputs and in its provenance
    from importlib import resources
    text = resources.files("cavmem.data").joinpath("rb87_constants.cfg").read_text()
    edited = text.replace("d52_a_mhz = -7.44", "d52_a_mhz = -7.5")
    assert edited != text
    alt = tmp_path / "alt.cfg"
    alt.write_text(edited)
    env_before = os.environ.get("CAVMEM_CONSTANTS")
    argv = ["spectrum", "two-photon", "--points", "11"]
    assert main(["--out", str(tmp_path / "bundled"), *argv]) == 0
    assert main(["--constants", str(alt), "--out", str(tmp_path / "edited"), *argv]) == 0
    assert os.environ.get("CAVMEM_CONSTANTS") == env_before
    assert main(["--out", str(tmp_path / "after"), *argv]) == 0
    docs = {tag: json.loads((tmp_path / tag / "spectrum_two_photon.json").read_text())
            for tag in ("bundled", "edited", "after")}
    assert docs["edited"]["lines"] != docs["bundled"]["lines"]
    assert docs["after"] == docs["bundled"]
    assert docs["after"]["provenance"]["constants_path"] is None
    assert ((tmp_path / "after" / "spectrum_two_photon.csv").read_bytes()
            == (tmp_path / "bundled" / "spectrum_two_photon.csv").read_bytes())


def _edited_constants(path, old, new):
    """Write the bundled constants file with `old` replaced by `new` to path."""
    from importlib import resources
    text = resources.files("cavmem.data").joinpath("rb87_constants.cfg").read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return str(path)


def _name_constants_file(source, path, tmp_path, monkeypatch):
    """Name `path` as the constants file through `source`: the --constants
    flag, the config's constants_path or CAVMEM_CONSTANTS.  Returns the CLI
    arguments this takes."""
    if source == "env":
        monkeypatch.setenv("CAVMEM_CONSTANTS", path)
        return []
    if source == "flag":
        return ["--constants", path]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"constants_path": path}))
    return ["--config", str(cfg_path)]


@pytest.mark.parametrize("winner", ["flag", "config", "env", "bundled"])
def test_cli_constants_resolution_order(tmp_path, monkeypatch, winner):
    # --constants beats the config's constants_path, which beats
    # CAVMEM_CONSTANTS, which beats the bundled file
    monkeypatch.delenv("CAVMEM_CONSTANTS", raising=False)
    sources = ["flag", "config", "env"]
    given = sources[sources.index(winner):] if winner in sources else []
    files = {src: _edited_constants(tmp_path / f"{src}.cfg", "d52_a_mhz = -7.44",
                                    f"d52_a_mhz = -7.{50 + n}")
             for n, src in enumerate(given)}
    argv = ["--out", str(tmp_path / "out")]
    for src, path in files.items():
        argv += _name_constants_file(src, path, tmp_path, monkeypatch)
    assert main([*argv, "cavity", "scan", "--points", "11"]) == 0
    prov = json.loads((tmp_path / "out" / "cavity_scan.json").read_text())["provenance"]
    assert prov["constants_path"] == files.get(winner)


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_cli_missing_constants_file_exits_2_without_output(tmp_path, capsys,
                                                           monkeypatch, source):
    out = tmp_path / "out"
    argv = _name_constants_file(source, str(tmp_path / "missing.cfg"), tmp_path,
                                monkeypatch)
    assert main([*argv, "--out", str(out), "spectrum", "one-photon",
                 "--points", "11"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


def test_library_ignores_constants_env(tmp_path, monkeypatch):
    # the variable reaches the CLI run, but library defaults stay on the
    # bundled file, even with the variable still set
    from cavmem.constants import default_constants, load_constants
    alt = _edited_constants(tmp_path / "alt.cfg", "d52_a_mhz = -7.44",
                            "d52_a_mhz = -7.5")
    monkeypatch.setenv("CAVMEM_CONSTANTS", alt)
    assert main(["--out", str(tmp_path), "cavity", "scan", "--points", "11"]) == 0
    prov = json.loads((tmp_path / "cavity_scan.json").read_text())["provenance"]
    assert prov["constants_path"] == alt
    assert default_constants().source_path is None
    assert load_constants().source_path is None


def test_cli_constants_reach_doppler_fit(tmp_path):
    from cavmem.constants import load_constants
    from cavmem.fitting import fit_doppler_absorption
    from cavmem.vapour import VapourParams, one_photon_spectrum
    alt = _edited_constants(tmp_path / "alt.cfg",
                            "s12_a_mhz = 3417.341305452145",
                            "s12_a_mhz = 6834.68261090429")
    x = np.linspace(-12.0, 4.0, 200)
    y = one_photon_spectrum(VapourParams(optical_depth=150.0), 150.0, "sigma-", x,
                            constants=load_constants(alt))
    data = tmp_path / "doppler.csv"
    _write_csv(str(data), ["detuning_ghz", "transmission"], [x, y])
    assert main(["--constants", alt, "--out", str(tmp_path), "fit", "--model",
                 "doppler", str(data)]) == 0
    params = json.loads((tmp_path / "fit_doppler.json").read_text())["parameters"]
    expected = fit_doppler_absorption(x, y, constants=load_constants(alt))
    assert params == expected.parameters
    assert params != fit_doppler_absorption(x, y).parameters


def test_building_default_config_loads_no_scipy_and_no_constants():
    # the set-up path (import the CLI, build the default config and its
    # parameter sets) stays free of scipy imports and of constants-file reads
    import subprocess
    import sys
    code = (
        "import json, sys\n"
        "import cavmem.cli\n"
        "from cavmem.config import ExperimentConfig\n"
        "from cavmem.constants import default_constants\n"
        "cfg = ExperimentConfig()\n"
        "cfg.memory_config(), cfg.vapour_params(), cfg.parameter_space(), "
        "cfg.ga_settings()\n"
        "print(json.dumps({'scipy': sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy'), "
        "'constants_loaded': default_constants.cache_info().currsize}))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state == {"scipy": [], "constants_loaded": 0}


def test_simulating_loads_no_scipy(tmp_path):
    # `store`, a lifetime scan with one lane on the lane schedule (12.5 ns)
    # and one sharing the write and the read (40 ns), and the GA objective
    # take their control-off reference from numpy alone
    import subprocess
    import sys
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from cavmem import cli, memory, optimize\n"
        "from cavmem.config import ExperimentConfig\n"
        f"assert cli.main(['--out', {str(tmp_path)!r}, 'store', '--dt', '0.02']) == 0\n"
        "ec = ExperimentConfig()\n"
        "mem = ec.memory_config()\n"
        "pulses = [ec.pulse(n) for n in ('signal', 'write', 'read')]\n"
        "assert np.all(memory.lifetime_scan(mem, *pulses, [12.5, 40.0], dt_ns=0.02) > 0)\n"
        "shared = memory._lifetime_lanes(mem, *pulses, [12.5, 40.0], 0.02)['shared']\n"
        "vector = np.array([0.0, 0.2, 5.0, -0.1, 1.5, 1.6, 12.5, 2.7])\n"
        "assert optimize.objective(vector, mem) > 0\n"
        "print(json.dumps({'shared': shared.tolist(), 'scipy': sorted(m for m in "
        "sys.modules if m.split('.')[0] == 'scipy')}))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state == {"shared": [False, True], "scipy": []}
