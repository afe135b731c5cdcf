"""The benchmark record script: it runs, its fingerprints are the pins, and
they stay within the stated budget of the committed record."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_memory import _PINNED_BATCHES

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "record_bench.py"
# the record that a change which moves ulps is measured against
BASELINE = ROOT / "BENCH_17.json"


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), str(out)], check=True, timeout=300)
    return json.loads(out.read_text())


def test_record_holds_the_pinned_fingerprints(record):
    prints = record["fingerprints"]
    assert prints["objective"] == 1.0872241089227768
    assert prints["bandwidth_scan"] == {"0.6": 0.12527423086055092,
                                        "1.0": 0.19808656862149404,
                                        "1.5": 0.2491559029965402,
                                        "3.0": 0.2518105930440279}
    steps, pinned = _PINNED_BATCHES[5, 48]
    assert prints["pinned_batch"] == {"loop_steps": steps, "sha256": pinned}
    assert round(prints["criterion_5_separation_mhz"], 1) == 246.9
    # the bytes of `cavmem cavity resmap --points 301`'s CSV
    assert prints["resmap_csv_sha256"] \
        == "dfee51019fbed3c53c5848285e2b230e4c9bd7ce92d919542ab4aa09bb9696ec"
    # the bytes of the CSVs of the default `cavmem spectrum one-photon` and
    # `cavmem spectrum two-photon`
    assert prints["spectrum_csv_sha256"] == {
        "one-photon": "b91a99cf4bf335bdb0cc2462e90170a5a00b31fc85a5302698b747c46f75e9b8",
        "two-photon": "0e2640c3b3357578164f1bcc26affe503aa10eed1449ff304ee5e509ecc98234"}
    assert set(prints) == {"objective", "store", "lifetime_scan", "bandwidth_scan",
                           "slice_ga", "doppler_fit", "cavity_fit", "lifetime_fit",
                           "line_fit", "criterion_5_separation_mhz",
                           "pinned_batch", "resmap_csv_sha256", "spectrum_csv_sha256"}
    for key in ("cavity_fit", "lifetime_fit", "line_fit"):
        assert set(prints[key]) == {"parameters", "residual_norm", "iterations", "flags"}
        assert prints[key]["flags"] == [], key
    assert set(record["environment"]) == {"python", "numpy", "scipy", "cpus"}


def test_record_times_one_rk4_step_per_batch_width(record):
    steps = record["timings"]["rk4_step_us"]
    assert set(steps) == {"1", "24", "192"}
    assert all(value > 0 for value in steps.values())


def test_record_times_every_other_layer(record):
    timings = dict(record["timings"])
    del timings["rk4_step_us"]
    assert set(timings) == {"eigh_blockwise_ms", "transition_lines_ms",
                            "one_photon_spectrum_ms", "ga_generation_ms",
                            "doppler_fit_ms", "bandwidth_scan_ms", "store_ms",
                            "control_off_ms", "lifetime_scan_ms", "resmap_csv_ms"}
    assert all(value > 0 for value in timings.values())


def test_record_holds_each_timing_raw_beside_its_corrected_reading(record):
    # `timings` are read on the throttle-corrected clock, `raw_timings` are
    # the same runs' wall times
    raw, corrected = record["raw_timings"], record["timings"]
    assert set(raw) == set(corrected)
    assert set(raw["rk4_step_us"]) == set(corrected["rk4_step_us"]) == {"1", "24", "192"}
    assert all(value > 0 for value in raw["rk4_step_us"].values())
    assert all(value > 0 for key, value in raw.items() if key != "rk4_step_us")


def test_fingerprints_within_the_budget_of_the_committed_record(record):
    # the budget: every scalar within 1e-12 relative; the closure residual,
    # a difference of sums of order 1, within 1e-14 absolute; the GA's best
    # parameters, the Doppler fit and the separation, and the loop steps,
    # equal
    old, new = json.loads(BASELINE.read_text())["fingerprints"], record["fingerprints"]
    for key in ("objective", "lifetime_scan"):
        assert new[key] == pytest.approx(old[key], rel=1e-12, abs=0.0), key
    assert new["store"]["total_efficiency"] == pytest.approx(
        old["store"]["total_efficiency"], rel=1e-12, abs=0.0)
    assert new["store"]["closure_residual"] == pytest.approx(
        old["store"]["closure_residual"], rel=0.0, abs=1e-14)
    assert new["slice_ga"]["objective"] == pytest.approx(
        old["slice_ga"]["objective"], rel=1e-12, abs=0.0)
    assert new["slice_ga"]["parameters"] == old["slice_ga"]["parameters"]
    assert new["doppler_fit"] == old["doppler_fit"]
    assert new["criterion_5_separation_mhz"] == old["criterion_5_separation_mhz"]
    assert new["pinned_batch"]["loop_steps"] == old["pinned_batch"]["loop_steps"]


def test_record_needs_one_output_path():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 2
    assert "usage" in run.stderr
