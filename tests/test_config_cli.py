"""Configuration ingestion and CLI round-trip tests."""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

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


def test_partial_override_fills_defaults():
    cfg = ExperimentConfig.from_dict({"cavity": {"zeta_rt": 0.05}})
    assert cfg.cavity_params().zeta_rt == 0.05
    assert cfg.cavity_params().r1 == 0.6
    assert cfg.memory_config().cooperativity == 3800.0


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
    lines = group_two_photon_lines(two_photon_lines(
        169.0, "sigma-", "sigma-", total_window_ghz=(-7.9, -6.8),
        reference_signal_detuning_ghz=-15.0))
    smax = max(s for _, s, _ in lines)
    expected = sorted(pos - (-15.0) for pos, s, _ in lines if s > 1e-3 * smax)
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


def test_cli_store_defaults(tmp_path):
    rc = main(["--out", str(tmp_path), "store"])
    assert rc == 0
    summary = json.loads((tmp_path / "store_summary.json").read_text())
    assert summary["total_efficiency"] == pytest.approx(0.249, abs=0.01)
    assert summary["snr_db"] == pytest.approx(
        10 * math.log10(summary["retrieved_counts"] / 3e-4), rel=1e-9)


def test_cli_store_summary_closes_and_reference_flux_integrates(tmp_path):
    assert main(["--out", str(tmp_path), "store"]) == 0
    summary = json.loads((tmp_path / "store_summary.json").read_text())
    b = summary["bookkeeping"]
    total = (b["output_total"] + b["loss_polarization"] + b["loss_spin"]
             + b["loss_cavity_internal"] + b["loss_dephasing"]
             + b["residual_excitation"])
    assert total == pytest.approx(summary["input_photons"], rel=1e-4)
    _, rows = read_csv(tmp_path / "store_flux.csv")
    integral = np.trapezoid(rows[:, 2], rows[:, 0])
    assert integral == pytest.approx(summary["reference_counts"], rel=1e-6)


def test_cli_store_summary_reports_the_integrator(tmp_path, capsys):
    # the storage lane and its control-off twin loop 2592 steps at dt 0.01;
    # the margin is the factor by which dt could grow before the guard
    # refuses it
    assert main(["--out", str(tmp_path / "a"), "store"]) == 0
    run = json.loads((tmp_path / "a" / "store_summary.json").read_text())["integrator"]
    assert list(run) == ["dt_ns", "loop_steps", "lane_steps", "lam_max_dt",
                         "stability_margin"]
    assert (run["dt_ns"], run["loop_steps"], run["lane_steps"]) == (0.01, 2592, 2 * 2592)
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
        summary["reference_counts"], rel=1e-6)
    b = summary["bookkeeping"]
    total = (b["output_total"] + b["loss_polarization"] + b["loss_spin"]
             + b["loss_cavity_internal"] + b["loss_dephasing"]
             + b["residual_excitation"])
    assert total == pytest.approx(summary["input_photons"], rel=1e-4)


def test_cli_store_flux_ends_at_last_counted_grid_point(tmp_path):
    # the flux table stops at the last grid point any lane counts, t1 of
    # the storage lane and its control-off twin integrated together
    from dataclasses import replace
    from cavmem.memory import simulate_batch
    assert main(["--out", str(tmp_path), "store"]) == 0
    _, rows = read_csv(tmp_path / "store_flux.csv")
    cfg = ExperimentConfig()
    sig, wr, rd = (cfg.pulse(n) for n in ("signal", "write", "read"))
    _, _, (_, t1) = simulate_batch(cfg.memory_config(), [sig, sig],
                                   [wr, replace(wr, energy=0.0)],
                                   [rd, replace(rd, energy=0.0)], 0.0, 0.01)
    assert rows[-1, 0] == t1


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


def test_cli_fit_roundtrip_lifetime(tmp_path):
    assert main(["--out", str(tmp_path), "scan", "lifetime",
                 "--lo", "8", "--hi", "98", "--points", "181"]) == 0
    rc = main(["--out", str(tmp_path), "fit", "--model", "lifetime",
               str(tmp_path / "scan_lifetime.csv")])
    assert rc == 0
    fit = json.loads((tmp_path / "fit_lifetime.json").read_text())
    assert fit["parameters"]["nu_prime_ghz"] * 1e3 == pytest.approx(12.6, abs=0.7)
    assert fit["parameters"]["amp_main"] == pytest.approx(0.51, abs=0.03)


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
], ids=["cooperativity-negative", "population-4", "cooperativity-text",
        "seed-negative", "seed-float", "read-fwhm-zero", "drift-rate-text",
        "drift-noise-negative", "drift-enabled-text", "field-text",
        "field-negative", "ga-dt-negative", "ga-dt-zero", "ga-noise-negative"])
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


def test_cli_exit_code_numerical_error(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "store", "--dt", "0.2"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"


def test_cli_fit_missing_file(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "fit", "--model", "line",
               str(tmp_path / "nope.csv")])
    assert rc == 2


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
