"""Least-squares engine and concrete fit-model tests."""

import math

import numpy as np
import pytest

from cavmem.cavity import CavityParams, reflection_response
from cavmem.errors import CavmemError, DomainError
from cavmem.fitting import (derived_cavity_metrics, derived_lifetime_metrics,
                            fit_cavity_reflection, fit_doppler_absorption,
                            fit_gaussian_line, fit_lifetime, least_squares)
from cavmem.memory import lifetime_model
from cavmem.vapour import VapourParams, one_photon_spectrum

TWO_PI = 2 * math.pi


# ----------------------------------------------------------------- engine

def test_linear_model_exact():
    x = np.linspace(0, 10, 25)
    y = 2.0 * x
    fit = least_squares(lambda xx, th: th[0] * xx, x, y, [0.7], names=["a"])
    assert fit.converged
    assert fit["a"] == pytest.approx(2.0, abs=1e-10)


def test_non_finite_inputs_rejected():
    x = np.linspace(0, 10, 25)
    y = 2.0 * x
    for xs, ys, init in ((x, np.where(x == 5.0, np.nan, y), [0.7]),
                         (np.where(x == 0.0, np.inf, x), y, [0.7]),
                         (x, y, [np.nan])):
        with pytest.raises(DomainError):
            least_squares(lambda xx, th: th[0] * xx, xs, ys, init)


@pytest.mark.parametrize("slope, flag", [(2.0, []), (-1.0, ["at_bound:a"]),
                                         (5.0, ["at_bound:a"])],
                         ids=["inside", "lower", "upper"])
def test_parameter_on_its_bound_is_flagged(slope, flag):
    x = np.linspace(0, 10, 25)
    fit = least_squares(lambda xx, th: th[0] * xx, x, slope * x, [0.7],
                        bounds=([0.0], [3.0]), names=["a"])
    assert fit["a"] == pytest.approx(min(max(slope, 0.0), 3.0), abs=1e-10)
    assert fit.flags == flag


def test_non_finite_cost_never_converged():
    x = np.linspace(0, 10, 25)
    fit = least_squares(lambda xx, th: np.full_like(xx, np.nan), x, 2.0 * x,
                        [0.7])
    assert not fit.converged
    assert "non_finite_cost" in fit.flags


def test_gaussian_line_rejects_nan_sample():
    x = np.linspace(-60, 60, 500)
    y = 1.0 - 0.55 * np.exp(-4 * math.log(2) * x ** 2 / 11.8 ** 2)
    y[250] = math.nan
    with pytest.raises(CavmemError):
        fit_gaussian_line(x, y)


def test_quadratic_recovery_with_noise():
    rng = np.random.default_rng(42)
    x = np.linspace(-3, 3, 120)
    truth = np.array([1.3, -0.7, 0.25])

    def model(xx, th):
        return th[0] + th[1] * xx + th[2] * xx ** 2

    y = model(x, truth) + rng.normal(0, 0.05, len(x))
    fit = least_squares(model, x, y, [1.0, 0.0, 0.0], names=["c0", "c1", "c2"])
    assert fit.converged
    for name, true_val in zip(("c0", "c1", "c2"), truth):
        assert abs(fit[name] - true_val) < 3 * fit.uncertainties[name]


def test_numeric_jacobian_matches_central_differences():
    from cavmem.fitting import _numeric_jacobian

    def model(xx, th):
        return th[0] * np.exp(-th[1] * xx) + th[2]

    x = np.linspace(0, 4, 17)
    theta = np.array([1.5, 0.8, 0.2])
    jac = _numeric_jacobian(model, x, theta, (np.full(3, -np.inf), np.full(3, np.inf)))
    for k in range(3):
        step = 1e-6 * max(abs(theta[k]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[k] += step
        tm[k] -= step
        col = (model(x, tp) - model(x, tm)) / (2 * step)
        assert np.allclose(jac[:, k], col, rtol=1e-6, atol=1e-12)


def test_initial_point_outside_the_box_refused():
    x = np.linspace(0, 10, 25)
    for initial in ([-0.1], [3.5]):
        with pytest.raises(DomainError, match="initial point violates the bounds"):
            least_squares(lambda xx, th: th[0] * xx, x, 2.0 * x, initial,
                          bounds=([0.0], [3.0]))


def test_parameter_pinned_by_equal_bounds_keeps_its_value():
    # lo == hi gives the stencil no width: its Jacobian column is zero, the
    # covariance singular
    x = np.linspace(0, 4, 30)

    def model(xx, th):
        return th[0] * np.exp(-th[1] * xx)

    fit = least_squares(model, x, model(x, np.array([1.5, 0.8])), [1.0, 0.7],
                        bounds=([0.0, 0.7], [10.0, 0.7]), names=["a", "k"])
    assert fit["k"] == 0.7
    assert "at_bound:k" in fit.flags and "at_bound:a" not in fit.flags
    assert "singular_jacobian" in fit.flags
    assert fit.uncertainties == {"a": math.inf, "k": math.inf}


def test_parameter_that_the_model_ignores_leaves_the_covariance_singular():
    x = np.linspace(0, 10, 25)
    fit = least_squares(lambda xx, th: th[0] * xx, x, 2.0 * x, [0.7, 5.0],
                        names=["a", "unused"])
    assert fit["a"] == pytest.approx(2.0, abs=1e-10)
    assert fit["unused"] == 5.0
    assert "singular_jacobian" in fit.flags
    assert fit.uncertainties == {"a": math.inf, "unused": math.inf}


def _exponential(xx, th):
    return th[0] * np.exp(-th[1] * xx) + th[2]


@pytest.mark.parametrize("seed", range(6))
def test_no_bounds_is_the_infinite_box_and_a_box_never_reached(seed):
    # None, explicit infinite bounds and a finite box that the descent never
    # reaches run the same arithmetic, so their results are equal
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 4, 60)
    truth = rng.uniform([0.5, 0.3, -0.2], [2.0, 1.5, 0.2])
    y = _exponential(x, truth) + rng.normal(0, 0.01, len(x))
    fits = [least_squares(_exponential, x, y, [1.0, 1.0, 0.0], bounds=bounds)
            for bounds in (None, (np.full(3, -np.inf), np.full(3, np.inf)),
                           ([-1e3] * 3, [1e3] * 3))]
    assert fits[0].converged and fits[0].flags == []
    assert fits[1] == fits[0]
    assert fits[2] == fits[0]


def test_requires_more_data_than_parameters():
    with pytest.raises(DomainError):
        least_squares(lambda xx, th: th[0] * xx, [1.0], [2.0], [1.0, 2.0])


def test_residual_norm_never_increases():
    # instrument the model to record the accepted costs
    x = np.linspace(0, 1, 40)
    rng = np.random.default_rng(3)
    y = np.sin(3 * x) + rng.normal(0, 0.01, len(x))

    def model(xx, th):
        return th[0] * np.sin(th[1] * xx)

    fit = least_squares(model, x, y, [0.5, 2.0])
    resid = y - model(x, np.array([fit["p0"], fit["p1"]]))
    assert fit.residual_norm == pytest.approx(float(resid @ resid), rel=1e-12)
    start = y - model(x, np.array([0.5, 2.0]))
    assert fit.residual_norm <= float(start @ start)


def test_uncertainty_scales_with_noise():
    x = np.linspace(0, 5, 200)

    def model(xx, th):
        return th[0] * xx + th[1]

    sigmas = []
    for noise in (0.005, 0.01, 0.05):
        rng = np.random.default_rng(11)
        y = model(x, np.array([1.0, 0.3])) + rng.normal(0, noise, len(x))
        fit = least_squares(model, x, y, [0.9, 0.4])
        sigmas.append(fit.uncertainties["p0"])
    assert sigmas[1] / sigmas[0] == pytest.approx(2.0, rel=0.25)
    assert sigmas[2] / sigmas[1] == pytest.approx(5.0, rel=0.25)


# ------------------------------------------------------------- cavity fit

def synthetic_reflection(noise=0.01, seed=5):
    rng = np.random.default_rng(seed)
    params = CavityParams()
    x = np.linspace(-12.0, 12.0, 1200)
    y = reflection_response(params, x).reflected_power
    return x, y + rng.normal(0, noise, len(x))


def test_cavity_fit_recovers_paper_values():
    x, y = synthetic_reflection()
    fit = fit_cavity_reflection(x, y)
    assert fit.converged
    assert fit["fsr_ghz"] == pytest.approx(8.3, abs=0.2)
    assert fit["zeta_rt"] == pytest.approx(0.135, abs=0.015)
    derived = derived_cavity_metrics(fit)
    assert derived["finesse"] == pytest.approx(9.5, abs=0.7)
    assert derived["linewidth_ghz"] == pytest.approx(0.88, abs=0.06)


def test_cavity_fit_noiseless_exact():
    x = np.linspace(-10.0, 10.0, 900)
    y = reflection_response(CavityParams(), x).reflected_power
    fit = fit_cavity_reflection(x, y)
    assert fit["fsr_ghz"] == pytest.approx(8.3, abs=1e-6)
    assert fit["zeta_rt"] == pytest.approx(0.135, abs=1e-6)
    assert fit.residual_norm < 1e-12


def test_cavity_fit_rejects_featureless_trace():
    # a window far from any resonance carries no dip-spacing information
    x = np.linspace(3.0, 4.0, 150)
    y = reflection_response(CavityParams(), x).reflected_power
    with pytest.raises(DomainError):
        fit_cavity_reflection(x, y)


def test_cavity_fit_refuses_a_flat_trace():
    # a flat trace has no autocorrelation below zero, so no dip spacing
    with pytest.raises(DomainError, match="at least one free spectral range"):
        fit_cavity_reflection(np.linspace(-12.0, 12.0, 200), np.full(200, 0.7))


@pytest.mark.parametrize("scale", [20.0, 100.0])
def test_cavity_fit_follows_the_scale_of_its_data(scale):
    # the amplitude and offset boxes scale with max |y|; the fixed box of
    # unit-scale data once bound all four parameters of a trace x100
    x = np.linspace(-12.0, 12.0, 1200)
    y = reflection_response(CavityParams(), x).reflected_power
    offset = 0.3 * scale
    fit = fit_cavity_reflection(x, scale * y + offset)
    assert fit["fsr_ghz"] == pytest.approx(8.3, rel=1e-6)
    assert fit["zeta_rt"] == pytest.approx(0.135, rel=1e-6)
    assert fit["amplitude"] == pytest.approx(scale, rel=1e-6)
    assert fit["offset"] == pytest.approx(offset, rel=1e-6)
    assert fit.flags == []


@pytest.mark.parametrize("scale, offset", [(1.0, 2.0), (1.0, -0.9), (100.0, -40.0)])
def test_cavity_fit_follows_a_trace_shifted_off_zero(scale, offset):
    # the offset's box spans the data's range widened by max(1, max |y|)
    x = np.linspace(-12.0, 12.0, 1201)
    y = reflection_response(CavityParams(), x).reflected_power
    fit = fit_cavity_reflection(x, scale * y + offset)
    assert fit["fsr_ghz"] == pytest.approx(8.3, rel=1e-6)
    assert fit["zeta_rt"] == pytest.approx(0.135, rel=1e-6)
    assert fit["amplitude"] == pytest.approx(scale, rel=1e-6)
    assert fit["offset"] == pytest.approx(offset, rel=1e-6)
    assert fit.flags == []


@pytest.mark.parametrize("depth", [0.1, 0.05])
def test_cavity_fit_follows_a_shallow_dip_on_a_high_level(depth):
    # the amplitude's floor is a tenth of the data's range; a floor of a
    # tenth of max |y| once held a dip of 0.1 or 0.05 on a level of 1 at the
    # bound, with zeta 0.118 or 0.052
    x = np.linspace(-12.0, 12.0, 1201)
    y = reflection_response(CavityParams(), x).reflected_power
    fit = fit_cavity_reflection(x, depth * y + 1.0)
    assert fit["fsr_ghz"] == pytest.approx(8.3, rel=1e-6)
    assert fit["zeta_rt"] == pytest.approx(0.135, rel=1e-6)
    assert fit["amplitude"] == pytest.approx(depth, rel=1e-6)
    assert fit["offset"] == pytest.approx(1.0, rel=1e-6)
    assert fit.flags == []


# ------------------------------------------------------------ doppler fit

def synthetic_doppler(b_mt=169.0, noise=0.01, seed=9, offset=0.0):
    rng = np.random.default_rng(seed)
    vap = VapourParams()
    x = np.linspace(-9.0, 0.0, 400)
    y = one_photon_spectrum(vap, b_mt, "sigma-", x - offset)
    return x, y + rng.normal(0, noise, len(x))


def test_doppler_fit_recovers_field():
    x, y = synthetic_doppler()
    fit = fit_doppler_absorption(x, y)
    assert fit["b_mt"] == pytest.approx(169.0, abs=3.0)
    assert fit["optical_depth"] == pytest.approx(200.0, rel=0.1)


def test_doppler_fit_offset_invariance():
    x, y = synthetic_doppler(offset=0.35)
    fit = fit_doppler_absorption(x, y)
    assert fit["offset_ghz"] == pytest.approx(0.35, abs=0.1)
    assert fit["b_mt"] == pytest.approx(169.0, abs=3.0)


def test_doppler_fit_low_field_spectrum():
    # a zero-field spectrum pushes the recovered field to the low edge of the
    # supported range, consistent with no resolvable splitting structure
    rng = np.random.default_rng(2)
    vap = VapourParams()
    x = np.linspace(-6.0, 6.0, 300)
    y = one_photon_spectrum(vap, 0.0, "sigma-", x) + rng.normal(0, 0.01, 300)
    fit = fit_doppler_absorption(x, y)
    assert fit["b_mt"] < 20.0


def test_doppler_fit_flags_an_optical_depth_beyond_its_bound():
    # an optical depth of 2500 lies past the fit's bound of 2000, where the
    # fit must end flagged rather than as a free minimum, and stop there
    # rather than run out its iterations
    x = np.linspace(-12.0, 4.0, 400)
    y = one_photon_spectrum(VapourParams(optical_depth=2500.0), 169.0, "sigma-", x)
    fit = fit_doppler_absorption(x, y)
    assert fit["optical_depth"] == 2000.0
    assert "at_bound:optical_depth" in fit.flags
    assert fit.iterations <= 30


def test_default_doppler_fit_carries_no_flag():
    # the default vapour's noise-free spectrum at the default field, on the
    # spectroscopy workload's grid
    from cavmem.config import ExperimentConfig
    ec = ExperimentConfig()
    x = np.linspace(-12.0, 4.0, 400)
    y = one_photon_spectrum(ec.vapour_params(), ec.field_mt, "sigma-", x)
    fit = fit_doppler_absorption(x, y, temperature_c=ec.vapour_params().temperature_c)
    assert fit.flags == []


# ----------------------------------------------------------- lifetime fit

def synthetic_lifetime(noise=0.02, seed=21, beat=0.038):
    rng = np.random.default_rng(seed)
    t = np.arange(5.0, 100.0, 0.5)
    eta = lifetime_model(t, nu_prime_ghz=0.0126, amp_main=0.51, amp_beat=beat,
                         omega_rad_ns=TWO_PI * 0.171)
    return t, eta * (1 + rng.normal(0, noise, len(t)))


def test_lifetime_fit_recovers_parameters():
    t, eta = synthetic_lifetime()
    fit = fit_lifetime(t, eta)
    assert fit["nu_prime_ghz"] * 1e3 == pytest.approx(12.6, abs=0.5)
    assert fit["omega_rad_ns"] == pytest.approx(TWO_PI * 0.171, abs=TWO_PI * 0.002)
    assert fit["amp_main"] == pytest.approx(0.51, abs=0.04)
    assert fit["amp_beat"] == pytest.approx(0.038, abs=0.003)


def test_lifetime_fit_derived_metrics():
    t, eta = synthetic_lifetime()
    fit = fit_lifetime(t, eta)
    derived = derived_lifetime_metrics(fit)
    assert derived["eta_zero_time"] == pytest.approx(0.30, abs=0.03)
    assert derived["one_over_e_ns"] == pytest.approx(39.0, abs=1.0)


def test_lifetime_fit_degenerate_beat_flagged():
    t, eta = synthetic_lifetime(beat=0.0, noise=0.01)
    fit = fit_lifetime(t, eta)
    assert "beat_unresolved" in fit.flags
    assert fit["nu_prime_ghz"] * 1e3 == pytest.approx(12.6, abs=1.0)


@pytest.mark.parametrize("scale", [20.0, 100.0])
def test_lifetime_fit_follows_the_scale_of_its_data(scale):
    # the efficiency is quadratic in the amplitudes, whose box scales with
    # sqrt(max |y|); efficiencies in percent were once refused outright
    t = np.arange(5.0, 100.0, 0.5)
    eta = lifetime_model(t, nu_prime_ghz=0.0126, amp_main=0.51, amp_beat=0.038,
                         omega_rad_ns=TWO_PI * 0.171)
    fit = fit_lifetime(t, scale * eta)
    assert fit["nu_prime_ghz"] == pytest.approx(0.0126, rel=1e-6)
    assert fit["omega_rad_ns"] == pytest.approx(TWO_PI * 0.171, rel=1e-6)
    assert fit["amp_main"] == pytest.approx(0.51 * math.sqrt(scale), rel=1e-6)
    assert fit["amp_beat"] == pytest.approx(0.038 * math.sqrt(scale), rel=1e-6)
    assert fit.flags == []


def test_lifetime_fit_requires_span():
    with pytest.raises(DomainError):
        fit_lifetime([1.0, 1.5], [0.3, 0.29])


@pytest.mark.parametrize("fit", [fit_cavity_reflection, fit_doppler_absorption,
                                 fit_lifetime, fit_gaussian_line],
                         ids=["cavity", "doppler", "lifetime", "line"])
def test_fits_refuse_a_single_x_or_unpaired_samples(fit):
    # the initial guesses read the spacing and span of x, which one
    # repeated value does not have; and each x needs its y
    with pytest.raises(DomainError, match="two distinct x values"):
        fit(np.full(8, 4.0), np.linspace(0.2, 0.9, 8))
    with pytest.raises(DomainError, match=r"\(8,\) x and \(9,\) y values"):
        fit(np.linspace(0.0, 20.0, 8), np.linspace(0.2, 0.9, 9))


# -------------------------------------------------------- gaussian line

def synthetic_line(fwhm=11.8, noise=0.01, seed=17):
    rng = np.random.default_rng(seed)
    x = np.linspace(-60.0, 60.0, 500)   # MHz
    y = 1.0 - 0.55 * np.exp(-4 * math.log(2) * x ** 2 / fwhm ** 2)
    return x, y + rng.normal(0, noise, len(x))


def test_gaussian_line_recovers_width():
    x, y = synthetic_line()
    fit = fit_gaussian_line(x, y)
    assert fit["fwhm"] == pytest.approx(11.8, abs=2.4)
    assert fit["center"] == pytest.approx(0.0, abs=0.5)
    assert fit["depth"] == pytest.approx(0.55, abs=0.05)


def test_gaussian_line_zero_depth_flagged():
    rng = np.random.default_rng(1)
    x = np.linspace(-30, 30, 300)
    y = 1.0 + rng.normal(0, 0.01, len(x))
    fit = fit_gaussian_line(x, y)
    assert abs(fit["depth"]) < 0.05
    assert "width_unidentifiable" in fit.flags


def test_gaussian_line_width_sweep():
    for fwhm in (1.0, 5.0, 20.0, 100.0):
        rng = np.random.default_rng(int(fwhm))
        x = np.linspace(-6 * fwhm, 6 * fwhm, 600)
        y = 1.0 - 0.5 * np.exp(-4 * math.log(2) * x ** 2 / fwhm ** 2)
        y = y + rng.normal(0, 0.01, len(x))
        fit = fit_gaussian_line(x, y)
        assert fit["fwhm"] == pytest.approx(fwhm, rel=0.02)


@pytest.mark.parametrize("scale", [20.0, 100.0])
def test_gaussian_line_follows_the_scale_of_its_data(scale):
    # the depth and offset boxes scale with max |y|; a baseline above 10,
    # as of a transmission in percent, was once refused outright
    x = np.linspace(-60.0, 60.0, 500)
    y = 1.0 - 0.55 * np.exp(-4 * math.log(2) * (x - 3.0) ** 2 / 11.8 ** 2)
    offset = 0.3 * scale
    fit = fit_gaussian_line(x, scale * y + offset)
    assert fit["center"] == pytest.approx(3.0, rel=1e-6)
    assert fit["fwhm"] == pytest.approx(11.8, rel=1e-6)
    assert fit["depth"] == pytest.approx(0.55 * scale, rel=1e-6)
    assert fit["offset"] == pytest.approx(scale + offset, rel=1e-6)
    assert fit.flags == []


@pytest.mark.parametrize("center, fwhm, height, base", [(0.0, 10.0, 0.5, 0.2),
                                                      (12.0, 8.0, 0.3, 1.0)])
def test_gaussian_line_fits_a_peak_with_a_negative_depth(center, fwhm, height, base):
    x = np.linspace(-40.0, 40.0, 400)
    y = base + height * np.exp(-4 * math.log(2) * (x - center) ** 2 / fwhm ** 2)
    fit = fit_gaussian_line(x, y)
    assert fit["center"] == pytest.approx(center, abs=1e-6)
    assert fit["fwhm"] == pytest.approx(fwhm, rel=1e-6)
    assert fit["depth"] == pytest.approx(-height, rel=1e-6)
    assert fit["offset"] == pytest.approx(base, rel=1e-6)
    assert fit.converged and fit.flags == []


def test_gaussian_line_flags_a_flat_trace():
    fit = fit_gaussian_line(np.linspace(-40.0, 40.0, 400), np.full(400, 0.7))
    assert "width_unidentifiable" in fit.flags


def test_fits_of_unit_scale_data_keep_the_fixed_box(monkeypatch):
    # max |y| <= 1 scales nothing: each fit starts from the same point in the
    # same box as before its box followed the data, so its bits hold; the
    # cavity amplitude's floor alone follows the data's range at every scale
    import cavmem.fitting as fitting
    calls = []

    def spy(model, x, y, initial, bounds=None, names=None):
        calls.append((initial, bounds))
        return least_squares(model, x, y, initial, bounds, names)

    monkeypatch.setattr(fitting, "least_squares", spy)
    x = np.linspace(-12.0, 12.0, 1200)
    y_cav = reflection_response(CavityParams(), x).reflected_power
    fit_cavity_reflection(x, y_cav)
    fit_lifetime(*synthetic_lifetime(noise=0.0))
    fit_gaussian_line(*synthetic_line(noise=0.0))
    (cav_init, cav_box), (_, life_box), (_, line_box) = calls
    assert cav_init[2:].tolist() == [1.0, 0.0]
    assert cav_box[0][1:].tolist() == [0.0, 0.1 * (y_cav.max() - y_cav.min()),
                                       y_cav.min() - 1.0]
    assert cav_box[1][1:].tolist() == [0.9, 10.0, y_cav.max() + 1.0]
    assert life_box[0].tolist() == [0.0] * 4
    assert life_box[1].tolist() == [0.2, 10.0, 2.0, 2.0]
    assert line_box[0][2:].tolist() == [-10.0, -10.0]
    assert line_box[1][2:].tolist() == [10.0, 10.0]


# ----------------------------------------------- noiseless self-consistency

def test_all_models_noiseless_recovery():
    # cavity
    x = np.linspace(-10, 10, 700)
    y = reflection_response(CavityParams(zeta_rt=0.2, fsr_ghz=7.7), x).reflected_power
    fit = fit_cavity_reflection(x, y)
    assert fit["fsr_ghz"] == pytest.approx(7.7, rel=1e-6)
    assert fit["zeta_rt"] == pytest.approx(0.2, rel=1e-5)
    # lifetime
    t = np.arange(5, 90, 0.5)
    eta = lifetime_model(t, nu_prime_ghz=0.015, amp_main=0.6, amp_beat=0.05,
                         omega_rad_ns=1.3)
    fit = fit_lifetime(t, eta)
    assert fit["nu_prime_ghz"] == pytest.approx(0.015, rel=1e-4)
    assert fit["omega_rad_ns"] == pytest.approx(1.3, rel=1e-5)
    # gaussian line
    x = np.linspace(-40, 40, 400)
    y = 0.9 - 0.4 * np.exp(-4 * math.log(2) * x ** 2 / 9.0 ** 2)
    fit = fit_gaussian_line(x, y)
    assert fit["fwhm"] == pytest.approx(9.0, rel=1e-6)
    # doppler
    vap = VapourParams()
    x = np.linspace(-8.5, -0.5, 250)
    y = one_photon_spectrum(vap, 150.0, "sigma-", x)
    fit = fit_doppler_absorption(x, y)
    assert fit["b_mt"] == pytest.approx(150.0, rel=1e-4)
