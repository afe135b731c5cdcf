"""Vapour-optics tests: Doppler oracles, depth calibration, spectra."""

import dataclasses
import math

import numpy as np
import pytest

from cavmem.atomic import (all_manifolds, group_two_photon_lines, transition_lines,
                           two_photon_lines)
from cavmem.constants import default_constants
from cavmem.errors import DomainError
from cavmem.vapour import (VapourParams, doppler_fwhm_ghz, doppler_width_rad_s,
                           one_photon_spectrum, optical_depth,
                           residual_doppler_lifetime_ns,
                           thermal_velocity_sigma, two_photon_linewidth_mhz,
                           two_photon_spectrum, two_photon_window)

VAP = VapourParams()


# --------------------------------------------------------------- widths

def test_doppler_width_operating_point():
    # 85 C, 780 nm, Rb-87: 2 pi x 0.55 GHz within 3%
    fwhm = doppler_fwhm_ghz(85.0, 780.0,
                            dataclasses.replace(default_constants(), mass_amu=87.0))
    assert fwhm == pytest.approx(0.55, rel=0.03)
    k = 2 * math.pi / (780.241 * 1e-9)
    assert doppler_width_rad_s(85.0, 780.241) == (k * math.sqrt(8 * math.log(2))
                                                  * thermal_velocity_sigma(85.0))


def test_doppler_width_near_zero_temperature():
    # scales as sqrt(T_K), so it vanishes towards absolute zero
    assert doppler_width_rad_s(-273.15 + 1e-6, 780.0,
                               dataclasses.replace(default_constants(), mass_amu=87.0)) < 1e6


def test_doppler_helpers_take_the_mass_from_constants():
    # sigma_v goes as 1/sqrt(m); None means the bundled file
    c = default_constants()
    heavy = dataclasses.replace(c, mass_amu=4 * c.mass_amu)
    assert thermal_velocity_sigma(85.0) == thermal_velocity_sigma(85.0, c)
    assert thermal_velocity_sigma(85.0, heavy) == pytest.approx(
        0.5 * thermal_velocity_sigma(85.0, c), rel=1e-15)
    assert doppler_fwhm_ghz(85.0, 780.0, heavy) == pytest.approx(
        0.5 * doppler_fwhm_ghz(85.0, 780.0), rel=1e-15)
    assert residual_doppler_lifetime_ns(85.0, 780.2, 776.0, constants=heavy) \
        == pytest.approx(2 * residual_doppler_lifetime_ns(85.0, 780.2, 776.0), rel=1e-15)


def test_doppler_width_wavelength_ratio():
    a = doppler_fwhm_ghz(85.0, 780.0)
    b = doppler_fwhm_ghz(85.0, 776.0)
    assert b / a == pytest.approx(780.0 / 776.0, rel=1e-12)
    assert b == pytest.approx(a, rel=0.01)


def test_doppler_width_scalings():
    # sqrt(T_K) in temperature, 1/lambda in wavelength
    t_grid = np.array([27.0, 85.0, 127.0])
    w = np.array([doppler_width_rad_s(t, 780.0) for t in t_grid])
    expected = w[0] * np.sqrt((t_grid + 273.15) / (t_grid[0] + 273.15))
    assert np.allclose(w, expected, rtol=1e-12)
    lam = np.array([500.0, 780.0, 1550.0])
    w2 = np.array([doppler_width_rad_s(85.0, x) for x in lam])
    assert np.allclose(w2 * lam, w2[0] * lam[0], rtol=1e-12)


# ---------------------------------------------------------------- depth

def test_depth_calibration_point():
    assert optical_depth(85.0, 6.0) == 200.0


def test_depth_proportional_to_length():
    assert optical_depth(85.0, 3.0) == pytest.approx(100.0, abs=1e-9)


def test_depth_monotone_in_temperature():
    grid = np.linspace(25.0, 145.0, 61)
    d = [optical_depth(t, 6.0) for t in grid]
    assert np.all(np.diff(d) > 0)
    assert optical_depth(95.0, 6.0) > 200.0


def test_depth_domain():
    with pytest.raises(DomainError):
        optical_depth(10.0, 6.0)
    with pytest.raises(DomainError):
        optical_depth(160.0, 6.0)


# ---------------------------------------------------------- one photon

def test_zero_depth_flat_transmission():
    vap = VapourParams(optical_depth=0.0)
    t = one_photon_spectrum(vap, 169.0, "sigma-", np.linspace(-10, 5, 101))
    assert np.allclose(t, 1.0)


def test_isolated_line_depth_matches_exp_minus_d():
    # deep in the product-state regime the stretched-state line is isolated
    # by several Doppler widths, so its dip bottom reaches exp(-d)
    vap = VapourParams(optical_depth=6.0)
    grid = np.linspace(-60, 10, 14001)
    t = one_photon_spectrum(vap, 1500.0, "sigma-", grid)
    assert t.min() == pytest.approx(math.exp(-6.0), abs=1e-6)


def velocity_integration_oracle(vap, b_mt, pol, grid, t_c=None):
    """Explicit 2001-point thermal-velocity marginalization of every line."""
    from cavmem.atomic import all_manifolds, transition_lines
    from cavmem.constants import default_constants

    c = default_constants()
    t_c = vap.temperature_c if t_c is None else t_c
    s12, p32, _ = all_manifolds()
    lines = transition_lines(s12, p32, b_mt, pol)
    weights = lines["raw_strength"] / lines["raw_strength"].max()
    centers = lines["detuning_ghz"]

    sigma_v = thermal_velocity_sigma(t_c)
    v = np.linspace(-6 * sigma_v, 6 * sigma_v, 2001)
    pv = np.exp(-v ** 2 / (2 * sigma_v ** 2))
    k_ghz_per_ms = 1.0 / (c.wavelength_signal_nm * 1e-9) / 1e9
    od = np.zeros_like(grid)
    for w, pos in zip(weights, centers):
        od += vap.depth() * w * np.interp(
            (grid - pos) / k_ghz_per_ms, v, pv / pv.max(), left=0.0, right=0.0)
    return np.exp(-od)


def test_one_photon_velocity_integration_oracle():
    rng = np.random.default_rng(7)
    grid = np.linspace(-12, 6, 801)
    for _ in range(3):
        vap = VapourParams(temperature_c=float(rng.uniform(60, 110)),
                           optical_depth=float(rng.uniform(0.5, 8.0)))
        b = float(rng.uniform(50, 250))
        t_model = one_photon_spectrum(vap, b, "sigma-", grid)
        t_oracle = velocity_integration_oracle(vap, b, "sigma-", grid)
        assert np.max(np.abs(t_model - t_oracle)) < 1e-4


def test_transmission_bounded():
    t = one_photon_spectrum(VAP, 169.0, "sigma-", np.linspace(-15, 10, 501))
    assert np.all(t >= 0.0) and np.all(t <= 1.0)


@pytest.mark.parametrize("b", (0.0, 0.3, 12.0, 169.0, 250.0))
@pytest.mark.parametrize("pol", ("sigma-", "pi", "sigma+"))
def test_one_photon_spectrum_is_per_line_gaussian_sum(b, pol):
    # one unit-peak Gaussian per listed line, added in line order
    c = default_constants()
    s12, p32, _ = all_manifolds()
    grid = np.linspace(-12.0, 8.0, 401)
    lines = transition_lines(s12, p32, b, pol)
    weights = lines["raw_strength"] / lines["raw_strength"].max()
    fwhm = doppler_fwhm_ghz(VAP.temperature_c, c.wavelength_signal_nm, c)
    coef = 4 * math.log(2) / fwhm ** 2
    od = np.zeros_like(grid)
    for w, center in zip(weights, lines["detuning_ghz"]):
        od += VAP.depth() * w * np.exp(-coef * (grid - center) ** 2)
    assert np.array_equal(one_photon_spectrum(VAP, b, pol, grid), np.exp(-od))


def test_one_photon_spectrum_memory_bounded_on_large_grids():
    # the grid is summed in blocks, so a 200 000-point spectrum holds a few
    # grid-sized arrays, not one array per line
    import tracemalloc
    grid = np.linspace(-12.0, 4.0, 200_000)
    tracemalloc.start()
    try:
        one_photon_spectrum(VAP, 169.0, "sigma-", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * grid.nbytes


# ---------------------------------------------------------- two photon

def test_two_photon_pair_positions_at_operating_field():
    # scan the control through a half-GHz window around the addressable line:
    # exactly two narrow dips, separated by the line-structure value
    vap = VapourParams()
    deltas = np.linspace(7.18, 8.18, 20001)
    t, warn = two_photon_spectrum(vap, 169.0, "sigma-", "sigma-",
                                  signal_detuning_ghz=-15.0,
                                  control_detunings_ghz=deltas)
    assert not warn
    dips = deltas[np.r_[False, (t[1:-1] < t[:-2]) & (t[1:-1] < t[2:]), False]
                  & (t < 0.995)]
    assert len(dips) == 2
    assert abs(dips[1] - dips[0]) * 1e3 == pytest.approx(247.0, abs=5.0)


def test_two_photon_positions_shared_with_atomic_module():
    from cavmem.atomic import group_two_photon_lines, two_photon_lines
    positions, _, _ = group_two_photon_lines(two_photon_lines(
        169.0, "sigma-", "sigma-", total_window_ghz=(-8.0, -6.8),
        reference_signal_detuning_ghz=-15.0))
    vap = VapourParams()
    deltas = np.linspace(7.2, 8.4, 24001)
    t, _ = two_photon_spectrum(vap, 169.0, "sigma-", "sigma-", -15.0, deltas)
    for pos in positions:
        delta_line = pos - (-15.0)
        k = int(np.argmin(np.abs(deltas - delta_line)))
        window = t[max(0, k - 40):k + 41]
        assert window.min() == pytest.approx(t[k], abs=1e-6)


@pytest.mark.parametrize("geometry", ("counter", "co"))
def test_two_photon_spectrum_is_per_line_gaussian_sum(geometry):
    # one unit-peak Gaussian per composite line, added in line order, at the
    # line's control detuning
    grid, signal = np.linspace(-40.0, 40.0, 801), -8.0
    pos, strength, _ = group_two_photon_lines(two_photon_lines(
        169.0, "sigma-", "sigma-", total_window_ghz=two_photon_window(signal, grid),
        reference_signal_detuning_ghz=signal))
    assert len(pos) > 1
    fwhm = two_photon_linewidth_mhz(VAP, geometry) * 1e-3
    coef = 4 * math.log(2) / fwhm ** 2
    od = np.zeros_like(grid)
    for s, p in zip(strength, pos):
        od += 0.7 * (s / strength.max()) * np.exp(-coef * (grid - (p - signal)) ** 2)
    t, _ = two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", signal, grid,
                               geometry=geometry, control_depth=0.7)
    assert np.array_equal(t, np.exp(-od))


def test_two_photon_spectrum_memory_bounded_on_large_grids():
    # the grid is summed in blocks, so a 200 000-point spectrum over a window
    # of many lines holds a few grid-sized arrays, not one array per line
    import tracemalloc
    grid = np.linspace(-40.0, 40.0, 200_000)
    tracemalloc.start()
    try:
        two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", -8.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * grid.nbytes


def test_zero_depth_spectra_are_exactly_one():
    grid = np.linspace(-12.0, 4.0, 301)
    one = one_photon_spectrum(VapourParams(optical_depth=0.0), 169.0, "sigma-", grid)
    two, _ = two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", -8.0, grid,
                                 control_depth=0.0)
    assert np.array_equal(one, np.ones_like(grid))
    assert np.array_equal(two, np.ones_like(grid))


def test_two_photon_spectrum_without_lines_in_its_window_is_exactly_one():
    grid = np.linspace(100.0, 101.0, 301)
    assert two_photon_window(0.1, grid[::-1]) == (0.1 + 100.0 - 1.0, 0.1 + 101.0 + 1.0)
    pos, _, _ = group_two_photon_lines(two_photon_lines(
        169.0, "sigma-", "sigma-", total_window_ghz=two_photon_window(0.1, grid),
        reference_signal_detuning_ghz=0.1))
    assert len(pos) == 0
    t, _ = two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", 0.1, grid)
    assert np.array_equal(t, np.ones_like(grid))


@pytest.mark.parametrize("b", (math.nan, -5.0))
def test_zero_depth_spectra_still_check_the_field(b):
    grid = np.linspace(-12.0, 4.0, 11)
    with pytest.raises(DomainError):
        one_photon_spectrum(VapourParams(optical_depth=0.0), b, "sigma-", grid)
    with pytest.raises(DomainError):
        two_photon_spectrum(VAP, b, "sigma-", "sigma-", -8.0, grid, control_depth=0.0)


@pytest.mark.parametrize("helper, args", [
    (two_photon_spectrum, (VAP, 169.0, "sigma-", "sigma-", math.nan, np.linspace(-1.0, 1.0, 5))),
    (two_photon_window, (math.nan, np.linspace(-1.0, 1.0, 5))),
    (thermal_velocity_sigma, (math.nan,)),
    (thermal_velocity_sigma, (math.inf,)),
    (doppler_fwhm_ghz, (85.0, math.nan)),
    (doppler_fwhm_ghz, (85.0, math.inf)),
    (doppler_fwhm_ghz, (85.0, -math.inf)),
    (residual_doppler_lifetime_ns, (math.nan, 780.2, 776.0)),
    (one_photon_spectrum, (VAP, 169.0, "sigma-", [-8.0, math.nan])),
    (one_photon_spectrum, (VAP, 169.0, "sigma-", [-8.0, math.inf])),
    (one_photon_spectrum, (VAP, 169.0, "sigma-", [-math.inf, -8.0])),
    (optical_depth, (85.0, math.nan)),
    (optical_depth, (85.0, math.inf)),
    (optical_depth, (85.0, -math.inf)),
], ids=["two-photon-detuning-nan", "window-detuning-nan", "velocity-temperature-nan",
        "velocity-temperature-inf", "doppler-wavelength-nan", "doppler-wavelength-inf",
        "doppler-wavelength-minus-inf", "lifetime-temperature-nan", "one-photon-grid-nan",
        "one-photon-grid-inf", "one-photon-grid-minus-inf", "depth-length-nan",
        "depth-length-inf", "depth-length-minus-inf"])
def test_vapour_helpers_refuse_nan(helper, args):
    # the two-photon spectrum read a transmission of 1.0 everywhere, the
    # window was (nan, nan), and the others returned nan
    with pytest.raises(DomainError, match="finite"):
        helper(*args)


@pytest.mark.parametrize("grid", [[-1.0, math.nan], [math.inf, 1.0], [-math.inf, 1.0], []],
                         ids=["nan", "inf", "minus-inf", "empty"])
@pytest.mark.parametrize("intake", [
    lambda grid: two_photon_window(-8.0, grid),
    lambda grid: two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", -8.0, grid),
], ids=["window", "spectrum"])
def test_two_photon_intake_names_the_control_grid(intake, grid):
    # the window was (nan, nan), which the spectrum refused as a window; an
    # empty grid raised numpy's ValueError
    with pytest.raises(DomainError, match="control detuning grid must be"):
        intake(grid)


@pytest.mark.parametrize("depth", (math.nan, math.inf, -0.1))
def test_control_depth_must_be_finite_and_non_negative(depth):
    with pytest.raises(DomainError):
        two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", -8.0,
                            np.linspace(-12.0, 4.0, 11), control_depth=depth)


def test_control_off_flat():
    t, _ = two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", -11.0,
                               np.linspace(2, 5, 101), control_depth=0.0)
    assert np.allclose(t, 1.0)


def test_narrow_linewidth_quadrature_decomposition():
    # oracle: quadrature sum of residual-Doppler, natural and inhomogeneity
    vap = VapourParams(field_inhomogeneity_mhz=12.2)
    sigma_v = thermal_velocity_sigma(85.0)
    k_s = 2 * math.pi / 780.241e-9
    k_c = 2 * math.pi / 775.978e-9
    residual = abs(k_s - k_c) * sigma_v * math.sqrt(8 * math.log(2)) / (2 * math.pi) / 1e6
    expected = math.sqrt(residual ** 2 + 0.66 ** 2 + 12.2 ** 2)
    got = two_photon_linewidth_mhz(vap, "counter")
    assert got == pytest.approx(expected, rel=1e-9)
    # and the default reproduces the observed 11.8 +/- 2.4 MHz band
    assert got == pytest.approx(11.8, abs=2.4)


def test_co_propagating_width_is_broad():
    narrow = two_photon_linewidth_mhz(VAP, "counter")
    broad = two_photon_linewidth_mhz(VAP, "co")
    assert broad > 50 * narrow
    assert broad == pytest.approx(1120.0, rel=0.05)  # ~GHz sum-wavevector width


def test_intermediate_resonance_warning():
    _, warn = two_photon_spectrum(VAP, 169.0, "sigma-", "sigma-", -0.1,
                                  np.linspace(-1, 1, 11))
    assert warn


# ----------------------------------------------------- residual doppler

def test_residual_doppler_lifetime_operating_point():
    tau = residual_doppler_lifetime_ns(85.0, 780.2, 776.0, "counter")
    assert 100.0 <= tau <= 140.0


def test_equal_wavelengths_unbounded():
    assert residual_doppler_lifetime_ns(85.0, 780.0, 780.0, "counter") == math.inf


def test_co_counter_ratio_oracle():
    # direct wavevector arithmetic
    k_s = 1.0 / 780.2
    k_c = 1.0 / 776.0
    expected_ratio = (k_s + k_c) / abs(k_s - k_c)
    tau_counter = residual_doppler_lifetime_ns(85.0, 780.2, 776.0, "counter")
    tau_co = residual_doppler_lifetime_ns(85.0, 780.2, 776.0, "co")
    assert tau_counter / tau_co == pytest.approx(expected_ratio, rel=1e-9)
    assert tau_co < tau_counter


def test_vapour_params_validation():
    with pytest.raises(DomainError):
        VapourParams(temperature_c=-300.0)
    with pytest.raises(DomainError):
        VapourParams(cell_length_mm=0.0)
    with pytest.raises(DomainError):
        VapourParams(optical_depth=-1.0)
