"""Physical constants for the Rb-87 level structure.

Constants ship in a versioned key/value text file (``data/rb87_constants.cfg``)
so that the provenance of every number is documented in one place.  Library
calls use that bundled file, loaded once and cached, unless they are given
``constants=``; the library reads no environment and has no default to
replace.  The CLI resolves one file per run, the first of: the
``--constants`` flag, the config's ``constants_path``, the
``CAVMEM_CONSTANTS`` environment variable (read by the CLI only), and the
bundled file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

__all__ = ["TermConstants", "AtomConstants", "load_constants", "default_constants"]

ENV_VAR = "CAVMEM_CONSTANTS"   # constants-file override, read by the CLI only

# Boltzmann constant over unified atomic mass unit, (m/s)^2 per K
KB_OVER_AMU = 1.380649e-23 / 1.66053906892e-27


@dataclass(frozen=True)
class TermConstants:
    """Fine-structure term with its hyperfine and Zeeman constants."""

    label: str
    j: float
    a_mhz: float             # magnetic-dipole hyperfine constant
    b_mhz: float             # electric-quadrupole hyperfine constant
    g_j: float
    gamma_fwhm_mhz: float    # natural linewidth (0 for the ground term)


@dataclass(frozen=True)
class AtomConstants:
    version: int
    nuclear_spin: float
    g_i: float
    mass_amu: float
    mu_b_mhz_per_mt: float
    s12: TermConstants
    p32: TermConstants
    d52: TermConstants
    wavelength_signal_nm: float
    wavelength_control_nm: float
    source_path: str | None = None   # file loaded from; None for the bundled one
    source_sha256: str = ""          # of that file's text

    def term(self, label: str) -> TermConstants:
        """The term with the canonical label 5S1/2, 5P3/2 or 5D5/2."""
        for t in (self.s12, self.p32, self.d52):
            if label == t.label:
                return t
        raise KeyError(f"unknown term {label!r}; expected one of 5S1/2, 5P3/2, 5D5/2")


def _parse_kv(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed constants line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = float(val)
    return values


def load_constants(path: str | None = None) -> AtomConstants:
    """Load atom constants from `path`, or from the bundled file when None."""
    if path is None:
        text = resources.files("cavmem.data").joinpath("rb87_constants.cfg").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    kv = _parse_kv(text)

    def term(prefix: str, label: str) -> TermConstants:
        return TermConstants(
            label=label,
            j=kv[f"{prefix}_j"],
            a_mhz=kv[f"{prefix}_a_mhz"],
            b_mhz=kv[f"{prefix}_b_mhz"],
            g_j=kv[f"{prefix}_g_j"],
            gamma_fwhm_mhz=kv[f"{prefix}_gamma_fwhm_mhz"],
        )

    return AtomConstants(
        version=int(kv["version"]),
        nuclear_spin=kv["nuclear_spin"],
        g_i=kv["g_i"],
        mass_amu=kv["mass_amu"],
        mu_b_mhz_per_mt=kv["mu_b_mhz_per_mt"],
        s12=term("s12", "5S1/2"),
        p32=term("p32", "5P3/2"),
        d52=term("d52", "5D5/2"),
        wavelength_signal_nm=kv["wavelength_signal_nm"],
        wavelength_control_nm=kv["wavelength_control_nm"],
        source_path=path,
        source_sha256=hashlib.sha256(text.encode()).hexdigest(),
    )


@lru_cache(maxsize=1)
def default_constants() -> AtomConstants:
    """The bundled constants, loaded once per process on first use."""
    return load_constants()
