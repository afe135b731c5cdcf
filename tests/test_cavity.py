"""Cavity response tests: round-trip-sum oracle, metrology, passivity."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmem.cavity import (CavityParams, buildup_factor, cooperativity,
                           dual_resonance_map, finesse, insertion_loss,
                           linewidth_ghz, reflection_response,
                           temperature_shift_ghz)
from cavmem.errors import DomainError

PAPER = CavityParams()  # r1=0.6, r2=0.9998, zeta_rt=0.135, fsr=8.3


# ---------------------------------------------------------------- oracles

def reflection_by_round_trip_sum(params, d_ghz, n_terms=10_000):
    """Geometric sum over partial waves, truncated; independent of the
    closed-form implementation."""
    phase = np.exp(1j * 2 * np.pi * d_ghz / params.fsr_ghz)
    loop = math.sqrt(params.r2 * (1 - params.zeta_rt)) * phase
    amp = math.sqrt(params.r1)
    leak = -(1 - params.r1) * loop  # first bounce back out through M1
    term = leak
    for _ in range(n_terms):
        amp += term
        term = term * math.sqrt(params.r1) * loop
    return amp


def numeric_fwhm(params, port="transmission"):
    """Locate the resonance FWHM on a dense grid, independent of the formula."""
    d = np.linspace(-0.5 * params.fsr_ghz, 0.5 * params.fsr_ghz, 400_001)
    resp = reflection_response(params, d)
    if port == "transmission":
        power = resp.transmitted_power
        half = power.max() / 2
        sel = d[power >= half]
    else:
        power = resp.reflected_power
        half = power.max() - 0.5 * (power.max() - power.min())
        sel = d[power <= half]
    return sel.max() - sel.min()


# ----------------------------------------------------------- reflection

def test_lossless_single_port_reflects_everything():
    params = CavityParams(r1=0.6, r2=1.0, zeta_rt=0.0)
    d = np.linspace(-10, 10, 101)
    assert np.allclose(reflection_response(params, d).reflected_power, 1.0,
                       atol=1e-12)


def test_on_resonance_power_matches_reported_loss():
    resp = reflection_response(PAPER, [0.0])
    assert resp.reflected_power[0] == pytest.approx(0.31, abs=0.02)
    db = 10 * math.log10(resp.reflected_power[0])
    assert db == pytest.approx(-5.0, abs=0.6)


def test_periodicity_in_one_fsr():
    d = np.linspace(-4, 4, 37)
    a = reflection_response(PAPER, d).reflection
    b = reflection_response(PAPER, d + 3 * PAPER.fsr_ghz).reflection
    assert np.allclose(a, b, atol=1e-12)


def test_amplitude_matches_round_trip_sum():
    for params in (PAPER, CavityParams(r1=0.9, r2=0.95, zeta_rt=0.02)):
        for d in (-3.7, -0.2, 0.0, 0.41, 2.9):
            closed = reflection_response(params, [d]).reflection[0]
            summed = reflection_by_round_trip_sum(params, d)
            assert abs(closed - summed) < 1e-8


def test_lossless_energy_conservation():
    params = CavityParams(r1=0.7, r2=0.96, zeta_rt=0.0)
    d = np.linspace(-12, 12, 4001)
    resp = reflection_response(params, d)
    total = resp.reflected_power + resp.transmitted_power
    assert np.allclose(total, 1.0, atol=1e-9)


def test_passivity_with_loss():
    d = np.linspace(-12, 12, 2001)
    resp = reflection_response(PAPER, d)
    assert np.all(resp.reflected_power + resp.transmitted_power <= 1.0 + 1e-12)


# ------------------------------------------------------------- metrology

def test_finesse_paper_parameters():
    assert finesse(PAPER) == pytest.approx(9.5, abs=0.7)


def test_finesse_total_loss_limit():
    # F ~ pi sqrt(r) -> 0+ as the round-trip loss approaches unity
    values = [finesse(CavityParams(r1=1.0, r2=1.0, zeta_rt=z))
              for z in (0.9, 0.99, 0.9999, 1 - 1e-10)]
    assert all(v > 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.01


def test_linewidth_paper_parameters():
    assert linewidth_ghz(PAPER) == pytest.approx(0.88, abs=0.06)


def test_linewidth_definition():
    params = CavityParams(r1=0.8265, r2=0.8265, zeta_rt=0.0, fsr_ghz=10.0)
    assert linewidth_ghz(params) == pytest.approx(params.fsr_ghz / finesse(params))


def test_linewidth_matches_numeric_fwhm():
    for params in (PAPER,
                   CavityParams(r1=0.99, r2=0.99, zeta_rt=0.0),
                   CavityParams(r1=0.85, r2=0.999, zeta_rt=0.05, fsr_ghz=12.0)):
        assert linewidth_ghz(params) == pytest.approx(numeric_fwhm(params), rel=0.02)
    # at finesse ~10 the reflection dip runs a couple of percent narrower
    assert linewidth_ghz(PAPER) == pytest.approx(
        numeric_fwhm(PAPER, port="reflection"), rel=0.03)


def test_insertion_loss_values():
    assert insertion_loss(PAPER) == pytest.approx(0.68, abs=0.04)
    assert insertion_loss(CavityParams(r1=0.6, r2=1.0, zeta_rt=0.0)) == \
        pytest.approx(0.0, abs=1e-12)


def test_insertion_loss_monotone_in_round_trip_loss():
    grid = np.linspace(0.0, 0.3, 61)
    losses = [insertion_loss(CavityParams(zeta_rt=z)) for z in grid]
    assert np.all(np.diff(losses) > 0)


def test_cooperativity():
    assert cooperativity(200.0, 9.5) == 3800.0
    assert cooperativity(0.0, 12.0) == 0.0
    assert cooperativity(100.0, 10.0) == 2000.0
    with pytest.raises(DomainError):
        cooperativity(-1.0, 10.0)


# ---------------------------------------------------------------- tuning

def test_temperature_shift():
    assert temperature_shift_ghz(1.0, PAPER) == pytest.approx(3.2)
    assert temperature_shift_ghz(0.0, PAPER) == 0.0
    assert temperature_shift_ghz(0.1, PAPER) == pytest.approx(0.32)


def test_dual_resonance_spot_spacing():
    grid = np.linspace(-20, 20, 1601)
    m = dual_resonance_map(PAPER, grid, grid)
    # peaks of the 1-D buildup along the signal axis
    b = buildup_factor(PAPER, grid)
    peaks = grid[1:-1][(b[1:-1] > b[:-2]) & (b[1:-1] > b[2:])]
    assert np.allclose(np.diff(peaks), PAPER.fsr_ghz, atol=0.05)
    assert m.buildup.shape == (1601, 1601)


def test_two_photon_mask_is_antidiagonal():
    grid = np.linspace(-5, 5, 201)
    m = dual_resonance_map(PAPER, grid, grid)
    rows, cols = np.nonzero(m.two_photon_mask)
    for r, c in zip(rows, cols):
        assert grid[r] + grid[c] == pytest.approx(0.0, abs=1e-9)


def test_operating_mode_among_resonant_pairs():
    # with the carrier offsets referenced to the operating point, the mode
    # at Delta = -8 GHz must appear among the dual-resonant two-photon pairs
    params = CavityParams(mode_offset_signal_ghz=-8.0, mode_offset_control_ghz=8.0)
    grid = np.linspace(-25, 25, 101)
    m = dual_resonance_map(params, grid, grid)
    assert any(abs(p[0] + 8.0) < 1e-9 and abs(p[1] - 8.0) < 1e-9
               for p in m.resonant_pairs)
    # pairs are spaced by one fsr along each axis
    sig_positions = sorted(p[0] for p in m.resonant_pairs)
    assert np.allclose(np.diff(sig_positions), params.fsr_ghz)


# ----------------------------------------------------------- validation

def test_invalid_parameters_rejected():
    with pytest.raises(DomainError):
        CavityParams(r1=1.2)
    with pytest.raises(DomainError):
        CavityParams(zeta_rt=1.0)
    with pytest.raises(DomainError):
        CavityParams(fsr_ghz=0.0)


@pytest.mark.parametrize("name", [f.name for f in fields(CavityParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(name, value):
    # a NaN FSR once gave a NaN linewidth, and an infinite mode offset passed
    with pytest.raises(DomainError, match=f"cavity {name} must be finite"):
        CavityParams(**{name: value})


@given(st.floats(min_value=0.05, max_value=0.999),
       st.floats(min_value=0.05, max_value=0.999),
       st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_finesse_linewidth_consistency(r1, r2, zeta):
    params = CavityParams(r1=r1, r2=r2, zeta_rt=zeta)
    if params.round_trip_amplitude < 0.15:
        return  # linewidth of a nearly-open cavity is ill-defined
    assert linewidth_ghz(params) * finesse(params) == pytest.approx(params.fsr_ghz)
