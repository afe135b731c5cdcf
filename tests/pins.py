"""The exact pins of the physics outputs, loaded once from pins.json beside
this module.

Each value is stated there once.  A change that moves the physics rewrites
the entries it moves, so the diff of that file lists every moved pin."""

import json
from pathlib import Path

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())
