"""The benchmark record script: it runs, and its fingerprints are the pins."""

import json
import subprocess
import sys
from pathlib import Path

from test_memory import _PINNED_BATCHES

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"


def test_record_holds_the_pinned_fingerprints(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), str(out)], check=True, timeout=300)
    record = json.loads(out.read_text())
    prints = record["fingerprints"]
    assert prints["objective"] == 1.087224108922777
    steps, pinned = _PINNED_BATCHES[5, 48]
    assert prints["pinned_batch"] == {"loop_steps": steps, "sha256": pinned}
    assert round(prints["criterion_5_separation_mhz"], 1) == 246.9
    assert set(record["environment"]) == {"python", "numpy", "scipy", "cpus"}


def test_record_needs_one_output_path():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 2
    assert "usage" in run.stderr
