"""Doppler physics and spectroscopy of the warm Rb-87 vapour.

Thermal widths, the calibrated optical-depth model, one-photon absorption
spectra across the Zeeman structure, two-photon (ladder) spectra for the
co- and counter-propagating geometries, and the residual-Doppler dephasing
time of the stored coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import atomic
from .constants import KB_OVER_AMU, AtomConstants, default_constants
from .errors import (DomainError, finite_grid, require_finite, require_finite_values,
                     require_non_negative, require_positive)

__all__ = [
    "VapourParams", "doppler_width_rad_s", "doppler_fwhm_ghz", "optical_depth",
    "one_photon_spectrum", "two_photon_spectrum", "residual_doppler_lifetime_ns",
    "thermal_velocity_sigma", "two_photon_linewidth_mhz", "two_photon_window",
]

ZERO_C_IN_K = 273.15

# single-pass depth calibrated to 200 at (85 C, 6 mm); see optical_depth
_DEPTH_CALIBRATION_T_C = 85.0
_DEPTH_CALIBRATION_L_MM = 6.0
_DEPTH_CALIBRATION_VALUE = 200.0

# grid points per block of _transmission: a block bounds the (lines, points)
# temporaries, so a long grid costs no more memory than this many points
_BLOCK_POINTS = 4096


@dataclass(frozen=True)
class VapourParams:
    """Operating state of the vapour cell."""

    temperature_c: float = 85.0
    cell_length_mm: float = 6.0
    optical_depth: float | None = None   # overrides the density model when set
    field_inhomogeneity_mhz: float = 12.2  # Gaussian broadening of narrow lines

    def __post_init__(self):
        require_finite(self, "vapour")
        if self.temperature_c <= -ZERO_C_IN_K:
            raise DomainError("temperature below absolute zero")
        if self.cell_length_mm <= 0:
            raise DomainError("cell length must be positive")
        if self.optical_depth is not None and self.optical_depth < 0:
            raise DomainError("optical depth must be non-negative")

    def depth(self) -> float:
        if self.optical_depth is not None:
            return self.optical_depth
        return optical_depth(self.temperature_c, self.cell_length_mm)


def thermal_velocity_sigma(t_c: float, constants: AtomConstants | None = None) -> float:
    """1-D thermal velocity spread sqrt(kB T / m) in m/s, with the atomic
    mass of `constants` (the bundled file when None)."""
    require_finite_values("temperature", t_c)
    if t_c <= -ZERO_C_IN_K:
        raise DomainError("temperature below absolute zero")
    c = constants or default_constants()
    return math.sqrt(KB_OVER_AMU * (t_c + ZERO_C_IN_K) / c.mass_amu)


def _wavenumber(wavelength_nm: float) -> float:
    """2 pi / lambda in rad/m, for a wavelength in nm that is positive and
    finite."""
    require_positive("wavelength", wavelength_nm)
    return 2 * math.pi / (wavelength_nm * 1e-9)


def doppler_width_rad_s(t_c: float, wavelength_nm: float,
                        constants: AtomConstants | None = None) -> float:
    """Gaussian FWHM of the Doppler-broadened line, angular frequency.

    FWHM = (2 pi / lambda) sqrt(8 ln2 kB T / m).
    """
    sigma_v = thermal_velocity_sigma(t_c, constants)
    return _wavenumber(wavelength_nm) * math.sqrt(8 * math.log(2)) * sigma_v


def doppler_fwhm_ghz(t_c: float, wavelength_nm: float,
                     constants: AtomConstants | None = None) -> float:
    return doppler_width_rad_s(t_c, wavelength_nm, constants) / (2 * math.pi) / 1e9


def _vapour_number_density(t_c: float) -> float:
    """Saturated Rb number density (m^-3) from the liquid-phase pressure fit."""
    t_k = t_c + ZERO_C_IN_K
    log10_p_torr = 15.88253 - 4529.635 / t_k + 0.00058663 * t_k - 2.99138 * math.log10(t_k)
    p_pa = 133.322 * 10.0 ** log10_p_torr
    return p_pa / (1.380649e-23 * t_k)


def optical_depth(t_c: float, cell_length_mm: float) -> float:
    """Line-centre single-pass depth; calibrated so (85 C, 6 mm) -> 200.

    Density follows the saturated vapour-pressure model; the line-centre cross
    section scales inversely with the Doppler width, hence the 1/sqrt(T)
    factor.  Absolute densities are internal to this function.
    """
    if not (20.0 <= t_c <= 150.0):
        raise DomainError("temperature outside the supported 20-150 C range")
    require_positive("cell length", cell_length_mm)

    def raw(t, length):
        return _vapour_number_density(t) * (length * 1e-3) / math.sqrt(t + ZERO_C_IN_K)

    cal = _DEPTH_CALIBRATION_VALUE / raw(_DEPTH_CALIBRATION_T_C, _DEPTH_CALIBRATION_L_MM)
    return cal * raw(t_c, cell_length_mm)


def one_photon_spectrum(vapour: VapourParams, b_mt: float, polarization: str,
                        detunings_ghz, constants: AtomConstants | None = None
                        ) -> np.ndarray:
    """Transmission of a weak probe across the Zeeman-split line structure.

    T(D) = exp(-sum_k d w_k V(D - D_k)) with V a unit-peak Gaussian of the
    Doppler width, w_k the relative line strength weighted by the (uniform)
    thermal ground-state populations and normalized so the strongest line
    carries the full configured depth.
    """
    x = finite_grid("detuning grid", detunings_ghz)
    c = constants or default_constants()
    s12, p32 = (atomic.manifold_spec(m, c) for m in ("5S1/2", "5P3/2"))
    lines = atomic.transition_lines(s12, p32, b_mt, polarization)
    fwhm = doppler_fwhm_ghz(vapour.temperature_c, c.wavelength_signal_nm, c)
    # uniform populations over the 8 ground sublevels: no optical pumping
    return _transmission(x, lines["detuning_ghz"], lines["raw_strength"],
                         vapour.depth(), fwhm)


def _transmission(x, centres, strengths, depth: float, fwhm_ghz: float) -> np.ndarray:
    """exp(-sum_k depth s_k/max(s) V(x - x_k)) over the points of the grid
    `x`, a checked 1-D float array (see errors.finite_grid), with V a
    unit-peak Gaussian of FWHM `fwhm_ghz` centred on each line x_k; no
    lines, or depth 0, give exactly 1.

    Each point sums its lines in line order in one reduction over axis 0,
    which adds row by row, so the blocks of _BLOCK_POINTS points that bound
    the (lines, points) temporaries change no bit.
    """
    weights = depth * (strengths / strengths.max(initial=0.0))[:, None]
    coef = 4 * math.log(2) / fwhm_ghz ** 2
    od = np.empty_like(x)
    for k in range(0, len(x), _BLOCK_POINTS):
        block = x[k:k + _BLOCK_POINTS]
        od[k:k + _BLOCK_POINTS] = np.add.reduce(
            weights * np.exp(-coef * (block - centres[:, None]) ** 2), axis=0)
    return np.exp(-od)


def _two_photon_wavevector(wavelength_signal_nm: float, wavelength_control_nm: float,
                           geometry: str) -> float:
    """Effective two-photon wavevector (rad/m) that the atoms' motion sees:
    |k_s - k_c| for counter-propagating beams, k_s + k_c for co-propagating."""
    k_s, k_c = _wavenumber(wavelength_signal_nm), _wavenumber(wavelength_control_nm)
    if geometry == "counter":
        return abs(k_s - k_c)
    if geometry == "co":
        return k_s + k_c
    raise DomainError("geometry must be 'counter' or 'co'")


def two_photon_linewidth_mhz(vapour: VapourParams,
                             geometry: str = "counter",
                             constants: AtomConstants | None = None) -> float:
    """FWHM of a two-photon line: quadrature sum of the residual-Doppler,
    natural and field-inhomogeneity contributions (counter-propagating), or
    the sum-wavevector Doppler width (co-propagating)."""
    c = constants or default_constants()
    sigma_v = thermal_velocity_sigma(vapour.temperature_c, c)
    dk = _two_photon_wavevector(c.wavelength_signal_nm, c.wavelength_control_nm,
                                geometry)
    doppler = dk * sigma_v * math.sqrt(8 * math.log(2)) / (2 * math.pi) / 1e6
    if geometry == "co":
        return doppler
    return math.sqrt(doppler ** 2 + c.d52.gamma_fwhm_mhz ** 2
                     + vapour.field_inhomogeneity_mhz ** 2)


def two_photon_window(signal_detuning_ghz: float, control_detunings_ghz):
    """Total-detuning window (GHz) of the two-photon lines that a control scan
    over `control_detunings_ghz` at a fixed signal detuning can show: the
    scan's span, in either order, widened by 1 GHz on each side.  A
    non-finite signal detuning, or a control grid that is empty or holds a
    point that is not finite, is a DomainError."""
    require_finite_values("signal detuning", signal_detuning_ghz)
    deltas = finite_grid("control detuning grid", control_detunings_ghz)
    if deltas.size == 0:
        raise DomainError("control detuning grid must be non-empty")
    return (float(signal_detuning_ghz + deltas.min() - 1.0),
            float(signal_detuning_ghz + deltas.max() + 1.0))


def two_photon_spectrum(vapour: VapourParams, b_mt: float,
                        signal_pol: str, control_pol: str,
                        signal_detuning_ghz: float,
                        control_detunings_ghz,
                        geometry: str = "counter",
                        control_depth: float = 0.5,
                        constants: AtomConstants | None = None):
    """Signal transmission while the control is scanned at fixed signal carrier.

    Absorption features sit where signal_detuning + delta matches a two-photon
    line.  Counter-propagating lines carry the narrow residual-Doppler width;
    co-propagating ones the broad sum-wavevector width.  `control_depth` sets
    the peak optical depth of the strongest line (proportional to control
    power); zero gives flat transmission, and a negative or non-finite depth
    is a DomainError.  Returns (transmission, warning)
    where warning flags an intermediate detuning inside the Doppler width.
    """
    require_non_negative("control depth", control_depth)
    deltas = finite_grid("control detuning grid", control_detunings_ghz)
    c = constants or default_constants()
    gamma_ghz = doppler_fwhm_ghz(vapour.temperature_c, c.wavelength_signal_nm, c)
    warning = abs(signal_detuning_ghz) < gamma_ghz
    lines = atomic.two_photon_lines(
        b_mt, signal_pol, control_pol,
        total_window_ghz=two_photon_window(signal_detuning_ghz, deltas),
        reference_signal_detuning_ghz=signal_detuning_ghz, constants=c)
    pos, strength, _ = atomic.group_two_photon_lines(lines)
    return _transmission(deltas, pos - signal_detuning_ghz, strength, control_depth,
                         two_photon_linewidth_mhz(vapour, geometry, c) * 1e-3), warning


def residual_doppler_lifetime_ns(t_c: float, wavelength_signal_nm: float,
                                 wavelength_control_nm: float,
                                 geometry: str = "counter",
                                 constants: AtomConstants | None = None) -> float:
    """1/e dephasing time of the stored coherence, 1/(|dk| sigma_v).

    Counter-propagating beams nearly cancel the two-photon wavevector; for
    equal wavelengths the cancellation is perfect and the result unbounded
    (returned as inf).
    """
    sigma_v = thermal_velocity_sigma(t_c, constants)
    dk = _two_photon_wavevector(wavelength_signal_nm, wavelength_control_nm, geometry)
    if dk == 0.0:
        return math.inf
    return 1e9 / (dk * sigma_v)
