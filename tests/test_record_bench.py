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
    steps, pinned = _PINNED_BATCHES[5, 48]
    assert prints["pinned_batch"] == {"loop_steps": steps, "sha256": pinned}
    assert round(prints["criterion_5_separation_mhz"], 1) == 246.9
    assert set(record["environment"]) == {"python", "numpy", "scipy", "cpus"}


def test_record_times_one_rk4_step_per_batch_width(record):
    steps = record["timings"]["rk4_step_us"]
    assert set(steps) == {"1", "24", "192"}
    assert all(value > 0 for value in steps.values())


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
