"""Linear two-mirror cavity: frequency response, derived metrics, tuning maps.

The reflection amplitude follows the standard Airy form for a cavity with
in-coupler power reflectivity R1, end-mirror reflectivity R2 and round-trip
excess power loss zeta_rt,

    r(D) = sqrt(R1) - (1-R1) sqrt(R2 (1-zeta_rt)) e^{i phi}
                       / (1 - sqrt(R1 R2 (1-zeta_rt)) e^{i phi}),

with phi = 2 pi D / fsr.  The transmission amplitude uses the complementary
form with the round-trip loss split symmetrically between the two half passes,
which pins its normalization through the lossless energy identity
|r|^2 + |t|^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DomainError, require_finite

__all__ = [
    "CavityParams", "CavityResponse", "reflection_response", "finesse",
    "linewidth_ghz", "insertion_loss", "cooperativity", "buildup_factor",
    "dual_resonance_map", "temperature_shift_ghz", "summary_dict",
]


@dataclass(frozen=True)
class CavityParams:
    """Mirror, loss and mode geometry of the linear cavity."""

    r1: float = 0.6
    r2: float = 0.9998
    zeta_rt: float = 0.135
    fsr_ghz: float = 8.3
    tuning_coeff_ghz_per_c: float = 3.2
    mode_offset_signal_ghz: float = 0.0
    mode_offset_control_ghz: float = 0.0

    def __post_init__(self):
        require_finite(self, "cavity")
        if not (0.0 <= self.r1 <= 1.0 and 0.0 <= self.r2 <= 1.0):
            raise DomainError("mirror reflectivities must lie in [0, 1]")
        if not (0.0 <= self.zeta_rt < 1.0):
            raise DomainError("round-trip loss must lie in [0, 1)")
        if self.fsr_ghz <= 0.0:
            raise DomainError("free spectral range must be positive")

    @property
    def round_trip_amplitude(self) -> float:
        return math.sqrt(self.r1 * self.r2 * (1.0 - self.zeta_rt))


@dataclass(frozen=True)
class CavityResponse:
    detunings_ghz: np.ndarray
    reflection: np.ndarray       # complex amplitude
    transmission: np.ndarray     # complex amplitude

    @property
    def reflected_power(self) -> np.ndarray:
        return np.abs(self.reflection) ** 2

    @property
    def transmitted_power(self) -> np.ndarray:
        return np.abs(self.transmission) ** 2


def reflection_response(params: CavityParams, detunings_ghz) -> CavityResponse:
    """Complex reflection and transmission amplitudes over a detuning grid."""
    d = np.atleast_1d(np.asarray(detunings_ghz, dtype=float))
    phase = np.exp(1j * 2 * np.pi * d / params.fsr_ghz)
    r_loop = params.round_trip_amplitude
    denom = 1.0 - r_loop * phase
    refl = (math.sqrt(params.r1)
            - (1.0 - params.r1) * math.sqrt(params.r2 * (1.0 - params.zeta_rt))
            * phase / denom)
    # loss split half per pass; the lossless limit gives |r|^2 + |t|^2 = 1
    trans = (math.sqrt((1.0 - params.r1) * (1.0 - params.r2))
             * (1.0 - params.zeta_rt) ** 0.25
             * np.exp(1j * np.pi * d / params.fsr_ghz) / denom)
    return CavityResponse(detunings_ghz=d, reflection=refl, transmission=trans)


def finesse(params: CavityParams) -> float:
    """F = pi sqrt(r) / (1 - r) with r the round-trip amplitude factor."""
    r = params.round_trip_amplitude
    if r >= 1.0:
        raise DomainError("round-trip amplitude factor must be below 1")
    if r <= 0.0:
        return 0.0
    return math.pi * math.sqrt(r) / (1.0 - r)


def linewidth_ghz(params: CavityParams) -> float:
    """FWHM of the resonance, fsr / finesse."""
    f = finesse(params)
    if f <= 0.0:
        raise DomainError("finesse must be positive for a linewidth")
    return params.fsr_ghz / f


def insertion_loss(params: CavityParams) -> float:
    """One minus the on-resonance returned power fraction of the signal path."""
    resp = reflection_response(params, [0.0])
    return float(1.0 - resp.reflected_power[0])


def cooperativity(optical_depth: float, cavity_finesse: float) -> float:
    """Light-matter coupling figure of merit, 2 * d * F."""
    if optical_depth < 0:
        raise DomainError("optical depth must be non-negative")
    if cavity_finesse <= 0:
        raise DomainError("finesse must be positive")
    return 2.0 * optical_depth * cavity_finesse


def buildup_factor(params: CavityParams, detunings_ghz) -> np.ndarray:
    """Intra-cavity circulating-power enhancement over incident power."""
    d = np.atleast_1d(np.asarray(detunings_ghz, dtype=float))
    phase = np.exp(1j * 2 * np.pi * d / params.fsr_ghz)
    return (1.0 - params.r1) / np.abs(1.0 - params.round_trip_amplitude * phase) ** 2


@dataclass(frozen=True)
class DualResonanceMap:
    signal_detunings_ghz: np.ndarray
    control_detunings_ghz: np.ndarray
    buildup: np.ndarray                       # outer product map
    two_photon_mask: np.ndarray               # where delta = -Delta
    resonant_pairs: list[tuple[float, float]]  # dual-resonant, two-photon points


def dual_resonance_map(params: CavityParams, signal_grid_ghz,
                       control_grid_ghz) -> DualResonanceMap:
    """Product of signal/control buildup factors plus the delta = -Delta overlay.

    The resonant pairs are the (Delta, delta) points where both carriers sit on
    cavity resonances (offsets folded by one fsr each) while also satisfying
    the two-photon condition delta = -Delta.
    """
    sig = np.atleast_1d(np.asarray(signal_grid_ghz, dtype=float))
    ctl = np.atleast_1d(np.asarray(control_grid_ghz, dtype=float))
    if sig.size == 0 or ctl.size == 0:
        raise DomainError("grids must be non-empty")
    b_sig = buildup_factor(params, sig - params.mode_offset_signal_ghz)
    b_ctl = buildup_factor(params, ctl - params.mode_offset_control_ghz)
    buildup = np.outer(b_sig, b_ctl)
    # half the grid spacing, in either direction
    step = max(np.min(np.abs(np.diff(sig))) if sig.size > 1 else params.fsr_ghz,
               np.min(np.abs(np.diff(ctl))) if ctl.size > 1 else params.fsr_ghz)
    mask = np.abs(sig[:, None] + ctl[None, :]) <= 0.5 * step

    fsr = params.fsr_ghz
    pairs = []
    # dual resonance on the two-photon line: Delta_m = off_s + m fsr must equal
    # -(off_c + n fsr) for integers m, n, i.e. off_s + off_c = -(m + n) fsr
    total = params.mode_offset_signal_ghz + params.mode_offset_control_ghz
    if abs((total / fsr) - round(total / fsr)) < 1e-9:
        m_lo = math.ceil((sig.min() - params.mode_offset_signal_ghz) / fsr)
        m_hi = math.floor((sig.max() - params.mode_offset_signal_ghz) / fsr)
        for m in range(m_lo, m_hi + 1):
            delta_sig = params.mode_offset_signal_ghz + m * fsr
            delta_ctl = -delta_sig
            if ctl.min() - 1e-9 <= delta_ctl <= ctl.max() + 1e-9:
                pairs.append((delta_sig, delta_ctl))
    return DualResonanceMap(
        signal_detunings_ghz=sig, control_detunings_ghz=ctl,
        buildup=buildup, two_photon_mask=mask, resonant_pairs=pairs,
    )


def temperature_shift_ghz(delta_t_c: float, params: CavityParams) -> float:
    """Common translation of the signal and control resonances per deg C."""
    return params.tuning_coeff_ghz_per_c * delta_t_c


def summary_dict(params: CavityParams) -> dict:
    """Derived cavity metrics for JSON summaries."""
    loss = insertion_loss(params)
    return {
        "params": asdict(params),
        "finesse": finesse(params),
        "linewidth_ghz": linewidth_ghz(params),
        "insertion_loss": loss,
        "insertion_loss_db": 10.0 * math.log10(max(1.0 - loss, 1e-300)),
    }
