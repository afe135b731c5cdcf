"""Experiment configuration: JSON document with strict keys and defaults.

The default document reproduces the reference operating point.  Its field,
seed and pulses (12.5 ns storage) are stated here; its cavity, vapour, memory
and optimizer sections are the field defaults of CavityParams, VapourParams,
MemoryConfig, GASettings, DriftModel and ParameterSpace, which state each
value once.  The control Rabi constant (MemoryConfig) and the two-photon
offset of the read carrier (the read pulse below) were fixed by a one-time
calibration run (write-energy optimum pinned at 0.2 nJ, zero-time total
efficiency pinned at the observed 30%) and are kept frozen.

Unknown keys and non-finite numbers (NaN, +/-Infinity, which json.load
accepts) anywhere in the document are rejected; missing sections and fields
fall back to these defaults.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from functools import partial

from . import __version__
from .cavity import CavityParams
from .constants import AtomConstants, default_constants, load_constants
from .errors import ConfigError, DomainError
from .memory import MemoryConfig, PulseShape
from .optimize import DriftModel, GASettings, ParameterSpace
from .vapour import VapourParams

__all__ = ["ExperimentConfig", "DEFAULT_CONFIG", "reject_non_finite",
           "read_constants"]


def _field_defaults(cls, *skip) -> dict:
    """The field defaults of a parameter class, as a config section."""
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


DEFAULT_CONFIG: dict = {
    "constants_path": None,
    "field_mt": 169.0,
    "seed": 12345,
    "output_dir": ".",
    "cavity": _field_defaults(CavityParams),
    "vapour": _field_defaults(VapourParams),
    # MemoryConfig's cavity is the "cavity" section above
    "memory": _field_defaults(MemoryConfig, "cavity"),
    "pulses": {
        "signal": {"center_ns": 0.0, "fwhm_ns": 1.5, "energy": 0.8,
                   "carrier_detuning_ghz": 0.0, "phase_rad": 0.0},
        "write": {"center_ns": 0.1, "fwhm_ns": 1.6, "energy": 0.2,
                  "carrier_detuning_ghz": 0.0, "phase_rad": 0.0},
        # the read carrier's two-photon offset is calibrated, frozen
        "read": {"center_ns": 12.6, "fwhm_ns": 2.7, "energy": 1.0,
                 "carrier_detuning_ghz": 0.5341, "phase_rad": 0.0},
    },
    "optimizer": {
        **_field_defaults(GASettings),
        "drift": _field_defaults(DriftModel),
        # [lower, upper, resolution] per tuned parameter
        "bounds": {name: list(b) for name, b in ParameterSpace().bounds.items()},
    },
}


def reject_non_finite(value, path):
    """ConfigError for a NaN or +/-Infinity anywhere in value, which may nest
    dicts and lists; path names value in the message."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            reject_non_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for n, item in enumerate(value):
            reject_non_finite(item, f"{path}[{n}]")


def _merge_strict(defaults, override, path=""):
    """Fill missing keys from defaults; unknown keys and non-finite numbers
    are an error.  path is the dotted name of the section being merged, ""
    at the root."""
    if not isinstance(override, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        name = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(defaults[key], dict):
            merged[key] = _merge_strict(defaults[key], value, name)
        else:
            reject_non_finite(value, f"config value {name}")
            merged[key] = copy.deepcopy(value)
    return merged


def read_constants(path: str) -> AtomConstants:
    """The atom constants in the file at path; ConfigError if it is bad."""
    try:
        return load_constants(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad constants file {path}: {exc}") from exc


@dataclass
class ExperimentConfig:
    doc: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG))
    # the run's atom constants; None stands for the file at constants_path or
    # the bundled file, loaded on first use so that building a config reads
    # no file
    constants: AtomConstants | None = None

    @classmethod
    def from_dict(cls, override: dict) -> "ExperimentConfig":
        """The default document with `override` merged in.  Every parameter
        set is built once here, so a value that its class refuses is a
        ConfigError at load; the atom constants stay unread."""
        cfg = cls(doc=_merge_strict(DEFAULT_CONFIG, override))
        builds = {"field_mt": lambda: cfg.field_mt, "seed": lambda: cfg.seed,
                  "output_dir": lambda: cfg.output_dir,
                  "constants_path": lambda: cfg.constants_path,
                  "cavity": cfg.cavity_params,
                  "memory": cfg.memory_config, "vapour": cfg.vapour_params,
                  "optimizer": cfg.ga_settings, "optimizer.drift": cfg.drift_model,
                  "optimizer.bounds": cfg.parameter_space,
                  **{f"pulses.{n}": partial(cfg.pulse, n) for n in cfg.doc["pulses"]}}
        try:
            for section, build in builds.items():
                build()
        except (DomainError, TypeError, ValueError) as exc:
            raise ConfigError(f"config {section}: {exc}") from exc
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    # -------------------------------------------------------- accessors

    @property
    def field_mt(self) -> float:
        b = self.doc["field_mt"]
        if type(b) not in (int, float) or not (math.isfinite(b) and b >= 0):
            raise DomainError(f"must be a finite non-negative number, got {b!r}")
        return float(b)

    @property
    def seed(self) -> int:
        seed = self.doc["seed"]
        if type(seed) is not int or seed < 0:
            raise DomainError(f"must be a non-negative integer, got {seed!r}")
        return seed

    @property
    def output_dir(self) -> str:
        out = self.doc["output_dir"]
        if type(out) is not str or not out:
            raise DomainError(f"must be a non-empty path string, got {out!r}")
        return out

    @property
    def constants_path(self) -> str | None:
        path = self.doc["constants_path"]
        if path is not None and (type(path) is not str or not path):
            raise DomainError(f"must be null or a non-empty path string, got {path!r}")
        return path

    def atom_constants(self) -> AtomConstants:
        """The run's atom constants: the constants field when set, else the
        file at constants_path, loaded once on first use, else the bundled
        file."""
        if self.constants is None and self.constants_path:
            self.constants = read_constants(self.constants_path)
        return self.constants or default_constants()

    def cavity_params(self) -> CavityParams:
        return CavityParams(**self.doc["cavity"])

    def vapour_params(self) -> VapourParams:
        return VapourParams(**self.doc["vapour"])

    def memory_config(self) -> MemoryConfig:
        return MemoryConfig(cavity=self.cavity_params(), **self.doc["memory"])

    def pulse(self, name: str) -> PulseShape:
        try:
            return PulseShape(**self.doc["pulses"][name])
        except KeyError as exc:
            raise ConfigError(f"unknown pulse {name!r}") from exc

    def ga_settings(self) -> GASettings:
        opt = {k: v for k, v in self.doc["optimizer"].items()
               if k not in ("drift", "bounds")}
        return GASettings(**opt)

    def drift_model(self, enabled: bool | None = None) -> DriftModel:
        d = dict(self.doc["optimizer"]["drift"])
        if enabled is not None:
            d["enabled"] = enabled
        return DriftModel(**d)

    def parameter_space(self) -> ParameterSpace:
        # a bound that is not a list is left for ParameterSpace to refuse
        bounds = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in self.doc["optimizer"]["bounds"].items()}
        return ParameterSpace(bounds=bounds)

    # ------------------------------------------------------ provenance

    def canonical_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        """Toolkit version, config hash, and the path (None for the bundled
        file) and sha256 of the constants file the outputs were computed from."""
        consts = self.atom_constants()
        return {"toolkit_version": __version__, "config_hash": self.config_hash(),
                "constants_path": consts.source_path,
                "constants_sha256": consts.source_sha256}
