"""Storage/retrieval dynamics tests: conservation, convergence, decay law."""

import hashlib
import math
import numbers
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavmem.atomic import all_manifolds, build_hamiltonian
from cavmem.cavity import CavityParams, cooperativity, temperature_shift_ghz
from cavmem.errors import _KINDS, DomainError, NumericalError, _holds
from cavmem.fitting import least_squares
from cavmem.memory import (CHANNELS, MemoryConfig, PulseShape, bandwidth_scan,
                           batch_efficiency, energy_scan, lifetime_model, lifetime_scan,
                           mean_photon_from_counts, one_over_e_lifetime_ns,
                           oscillation_suppression, pulses_overlap,
                           simulate_batch, simulate_storage_retrieval, snr_db,
                           total_efficiency)
from cavmem.optimize import (PARAMETER_NAMES, ParameterSpace, _pulses_from_vector,
                             objective)
from pins import PINS
from record_bench import pinned_batch, random_lanes

TWO_PI = 2 * math.pi

CFG = MemoryConfig()                       # calibrated operating point
SIG = PulseShape(0.0, 1.5, 0.8)
WRITE = PulseShape(0.1, 1.6, 0.2)
READ = PulseShape(12.6, 2.7, 1.0, carrier_detuning_ghz=0.5341)

# pulse settings for the loss-free configuration, from the same calibration
OPT_WRITE = PulseShape(0.085, 1.565, (3.515 / 8.4736) ** 2)
OPT_READ = PulseShape(12.585, 2.73, (11.29 / 8.4736) ** 2)
OPT_SIG = PulseShape(0.0, 1.5, 1.0)


def run(config=CFG, sig=SIG, w=WRITE, r=READ, **kw):
    return simulate_storage_retrieval(config, sig, w, r, **kw)


# ----------------------------------------------------------- basic runs

def test_no_interaction_returns_everything():
    cfg = replace(CFG, cooperativity=0.0).lossless()
    res = run(cfg, w=replace(WRITE, energy=0.0), r=replace(READ, energy=0.0))
    assert res.retrieved_counts < 2e-3
    assert res.leak_counts + res.retrieved_counts == pytest.approx(
        res.input_photons, abs=1e-6)


def test_control_off_zero_retrieval_after_signal_gone():
    # with no control the output is just the reflected signal; essentially no
    # flux lands in the retrieval window
    res = run(w=replace(WRITE, energy=0.0), r=replace(READ, energy=0.0))
    assert res.retrieved_counts < 1e-4 * res.reference_counts


def test_lossless_internal_efficiency_exceeds_080():
    cfg = CFG.lossless()
    res = run(cfg, OPT_SIG, OPT_WRITE, OPT_READ)
    assert res.internal_efficiency >= 0.80
    assert res.reference_counts == pytest.approx(res.input_photons, abs=0.05)


def test_operating_point_total_efficiency():
    res = run()
    assert res.total_efficiency == pytest.approx(0.2492, abs=0.005)
    assert res.internal_efficiency == pytest.approx(res.total_efficiency
                                                    / (1 - CFG.zeta()), rel=1e-9)


def test_linearity_in_input_photons():
    res1 = run(sig=replace(SIG, energy=0.4))
    res2 = run(sig=replace(SIG, energy=1.6))
    assert res2.retrieved_counts == pytest.approx(4 * res1.retrieved_counts,
                                                  rel=1e-9)
    assert res2.internal_efficiency == pytest.approx(res1.internal_efficiency,
                                                     rel=1e-9)


def test_photon_bookkeeping_closes():
    cfg = CFG.lossless()
    res = run(cfg, OPT_SIG, OPT_WRITE, OPT_READ)
    b = res.bookkeeping
    # the beat/dephasing kernel removes spin amplitude non-dynamically;
    # account for it via the kernel magnitude at the storage time
    tau = OPT_READ.center_ns - OPT_WRITE.center_ns
    nu = cfg.dephasing_width_mhz * 1e-3
    k2 = (math.exp(-math.pi ** 2 * nu ** 2 * tau ** 2 / (4 * math.log(2)))
          * abs(cfg.line_amp_main + cfg.line_amp_beat
                * np.exp(1j * TWO_PI * cfg.line_splitting_mhz * 1e-3 * tau)) ** 2
          / (cfg.line_amp_main + cfg.line_amp_beat) ** 2)
    stored_at_kernel = (res.input_photons - res.leak_counts
                        - b["loss_polarization"] - 0.0)  # spin loss negligible pre-kernel
    kernel_loss_bound = stored_at_kernel * (1 - k2)
    total = (res.leak_counts + res.retrieved_counts + b["loss_polarization"]
             + b["loss_spin"] + b["loss_cavity_internal"]
             + b["residual_excitation"])
    missing = res.input_photons - total
    assert 0 <= missing <= kernel_loss_bound + 1e-4 * res.input_photons


def test_default_store_photon_bookkeeping_closes():
    # every channel, the dephasing kernel's removal included, adds back up
    # to the input photons
    res = run()
    assert res.bookkeeping["loss_dephasing"] > 0
    assert abs(res.integrator["closure_residual"]) <= 1e-4


def test_lane_without_input_photons_reports_no_closure_residual():
    # a dark signal books nothing and has no share of input photons to
    # leave unbooked: its residual is nan, made without a warning, and its
    # companion's is a number
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main = simulate_batch(CFG, [replace(SIG, energy=0.0), SIG], [WRITE] * 2,
                              [READ] * 2, 0.0, 0.02)
    assert main["input_photons"][0] == 0.0
    assert np.isnan(main["closure_residual"][0])
    assert abs(main["closure_residual"][1]) <= 1e-4


def test_closed_form_reference_matches_control_off_rk4():
    # lanes of different widths and carriers, one of them drifted
    signals = [SIG, replace(SIG, fwhm_ns=0.7), replace(SIG, fwhm_ns=3.0,
                                                       carrier_detuning_ghz=0.3)]
    dark_w, dark_r = replace(WRITE, energy=0.0), replace(READ, energy=0.0)
    for drift in (0.0, 0.4):
        main = simulate_batch(CFG, signals, [dark_w] * 3, [dark_r] * 3, drift, dt_ns=0.005)
        rk4 = main["leak_counts"] + main["retrieved_counts"]
        assert np.allclose(main["reference_counts"], rk4, rtol=1e-8, atol=0.0)


def test_reference_flux_integrates_to_reference_counts():
    # the flux and the counts come from the same poles in closed form
    res = run()
    integral = np.trapezoid(res.reference_flux, res.time_grid_ns)
    assert integral == pytest.approx(res.reference_counts, rel=1e-12)


@pytest.mark.parametrize("sig, drift, coarse_dt", [
    (SIG, 0.0, 0.01),
    (replace(SIG, fwhm_ns=0.7, carrier_detuning_ghz=0.2), 0.4, 0.005),
], ids=["default", "drifted-narrow"])
def test_closed_form_reference_flux_matches_control_off_rk4(sig, drift, coarse_dt):
    # the RK4 lane with dark control pulses is the reference implementation:
    # its flux converges to the closed form at fourth order, so the largest
    # deviation over the maximum falls by 8x or more per halving of dt and
    # is within 3e-8 from `coarse_dt` down (the 0.7 ns signal is resolved
    # by fewer steps and reads 1.8e-7 at dt 0.01)
    dark_w, dark_r = replace(WRITE, energy=0.0), replace(READ, energy=0.0)
    devs = {}
    for dt in (0.01, 0.005, 0.0025):
        store = run(sig=sig, drift_offset_ghz=drift, dt_ns=dt)
        lane = simulate_batch(CFG, [sig], [dark_w], [dark_r], drift, dt, keep_flux=True)
        assert np.array_equal(store.time_grid_ns, lane["ts"])
        rk4 = lane["out_flux"][:, 0]
        devs[dt] = np.max(np.abs(store.reference_flux - rk4)) / np.max(rk4)
    assert devs[coarse_dt] <= 3e-8
    assert devs[0.01] >= 8 * devs[0.005] >= 64 * devs[0.0025]


def test_faddeeva_function_identities():
    # the series the control-off reference integrates with, against
    # identities that need only the stdlib: w(0) = 1, Re w(x) = e^{-x^2} on
    # the real axis, w(iy) = e^{y^2} erfc(y), w(-conj z) = conj w(z) and
    # w(z) sqrt(pi) z -> i far out
    from cavmem.memory import _faddeeva
    assert _faddeeva(np.array(0j)) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    x = np.linspace(-30.0, 30.0, 601)
    w = _faddeeva(x)
    assert np.all(np.abs(w.real - np.exp(-x ** 2)) <= 1e-15 * np.abs(w))
    y = np.linspace(0.0, 5.0, 51)
    erfc = np.array([math.exp(v * v) * math.erfc(v) for v in y])
    assert np.allclose(_faddeeva(1j * y), erfc, rtol=1e-14, atol=0.0)
    rng = np.random.default_rng(3)
    z = rng.uniform(-50.0, 50.0, 200) + 1j * rng.uniform(0.0, 50.0, 200)
    assert np.allclose(_faddeeva(-np.conj(z)), np.conj(_faddeeva(z)), rtol=1e-15, atol=0.0)
    far = 1e8 * np.exp(1j * np.linspace(0.0, math.pi, 9))
    assert np.allclose(_faddeeva(far) * math.sqrt(math.pi) * far, 1j, rtol=0.0, atol=1e-14)


def test_faddeeva_function_matches_mpmath():
    # a seeded grid over the upper half plane (|Re z| <= 400, 0 <= Im z <=
    # 300), the real and imaginary axes and circles out to |z| = 1e8, each
    # point within 1e-14 relative of w(z) = e^{-z^2} erfc(-iz) at 40 digits
    mpmath = pytest.importorskip("mpmath")
    from cavmem.memory import _faddeeva
    rng = np.random.default_rng(11)
    circles = np.outer([1e2, 1e3, 1e4, 1e6, 1e8],
                       np.exp(1j * np.linspace(0.0, math.pi, 13))).ravel()
    z = np.concatenate([
        rng.uniform(-400.0, 400.0, 300) + 1j * rng.uniform(0.0, 300.0, 300),
        rng.uniform(-6.0, 6.0, 150) + 1j * rng.uniform(0.0, 6.0, 150),
        rng.uniform(-40.0, 40.0, 50), 1j * rng.uniform(0.0, 40.0, 50), circles])
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.exp(-v * v) * mpmath.erfc(-1j * v))
                          for v in map(mpmath.mpc, z.real, z.imag)])
    assert np.max(np.abs(_faddeeva(z) - exact) / np.abs(exact)) <= 1e-14


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0, 100.0, 1000.0, 3800.0])
def test_retrieved_share_within_the_cooperativity_bound(c):
    # a loss-free cavity memory retrieves at most (C/(1+C))^2 of the input
    # photons; C = 20000 is left out, the stability guard refuses it at
    # dt 0.02
    main = simulate_batch(replace(CFG, cooperativity=c).lossless(), [SIG], [WRITE], [READ],
                          0.0, 0.02)
    assert main["retrieved_counts"][0] / main["input_photons"][0] <= (c / (1 + c)) ** 2


def test_internal_efficiency_monotone_in_cooperativity():
    effs = []
    for c in (10.0, 100.0, 1000.0, 3800.0):
        cfg = replace(CFG, cooperativity=c).lossless()
        # re-tune the control energy per point (other parameters fixed)
        best = 0.0
        for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
            res = run(cfg, OPT_SIG, replace(OPT_WRITE, energy=OPT_WRITE.energy * scale),
                      replace(OPT_READ, energy=OPT_READ.energy * scale), dt_ns=0.02)
            best = max(best, res.internal_efficiency)
        effs.append(best)
    assert all(b >= a - 1e-6 for a, b in zip(effs, effs[1:]))


def test_step_halving_convergence():
    res1 = run(dt_ns=0.01)
    res2 = run(dt_ns=0.005)
    assert abs(res2.internal_efficiency - res1.internal_efficiency) < 1e-4


def test_overlapping_read_write_rejected():
    with pytest.raises(DomainError):
        run(r=replace(READ, center_ns=2.0))


def test_drift_degrades_efficiency():
    base = run().total_efficiency
    drifted = simulate_storage_retrieval(CFG, SIG, WRITE, READ,
                                         drift_offset_ghz=0.8)
    assert drifted.total_efficiency < 0.6 * base


# ----------------------------------------------------- efficiency algebra

def test_total_efficiency_formula():
    assert total_efficiency(0.84, 1.0, 0.68) == pytest.approx(0.2688)
    assert total_efficiency(0.0, 1.0, 0.5) == 0.0
    assert total_efficiency(1.0, 1.0, 0.0) == 1.0
    with pytest.raises(DomainError):
        total_efficiency(1.0, 0.0, 0.5)


def test_mean_photon_from_counts():
    assert mean_photon_from_counts(0.4, 0.5) == pytest.approx(0.8)
    assert mean_photon_from_counts(0.7, 1.0) == pytest.approx(0.7)
    # detected counts through 87% transmission reproduce the operating photon number
    assert mean_photon_from_counts(0.696, 0.87) == pytest.approx(0.8)
    assert mean_photon_from_counts(0.696, 0.87) == 0.696 / 0.87
    with pytest.raises(DomainError):
        mean_photon_from_counts(1.0, 0.0)
    with pytest.raises(DomainError, match="counts must be non-negative"):
        mean_photon_from_counts(-0.1, 0.5)


def test_snr():
    assert snr_db(1.5, 3e-4) == pytest.approx(37.0, abs=0.1)
    assert snr_db(1.5, 3e-4) == 10.0 * math.log10(1.5 / 3e-4)
    assert snr_db(1.0, 1.0) == 0.0
    assert snr_db(10.0, 1.0) == pytest.approx(10.0)
    assert snr_db(1.0, 0.0) == math.inf
    assert snr_db(0.0, 3e-4) == -math.inf
    with pytest.raises(DomainError, match="noise rate"):
        snr_db(1.0, -3e-4)
    with pytest.raises(DomainError, match="signal counts"):
        snr_db(-1.0, 3e-4)


def _line(x, theta):
    return theta[0] * x + theta[1]


_X = np.linspace(0.0, 10.0, 25)
_S12 = all_manifolds()[0]


@pytest.mark.parametrize("helper, args", [
    (mean_photon_from_counts, (math.nan, 0.5)),
    (mean_photon_from_counts, (math.inf, 0.5)),
    (mean_photon_from_counts, (-math.inf, 0.5)),
    (snr_db, (0.3, math.nan)),
    (snr_db, (0.3, math.inf)),
    (snr_db, (0.3, -math.inf)),
    (snr_db, (math.nan, 3e-4)),
    (snr_db, (math.inf, 3e-4)),
    (snr_db, (-math.inf, 3e-4)),
    (cooperativity, (math.nan, 9.5)),
    (cooperativity, (math.inf, 9.5)),
    (cooperativity, (-math.inf, 9.5)),
    (cooperativity, (200.0, math.nan)),
    (cooperativity, (200.0, math.inf)),
    (cooperativity, (200.0, -math.inf)),
    (temperature_shift_ghz, (math.nan, CavityParams())),
    (temperature_shift_ghz, (math.inf, CavityParams())),
    (temperature_shift_ghz, (-math.inf, CavityParams())),
    (build_hamiltonian, (_S12, math.nan)),
    (build_hamiltonian, (_S12, math.inf)),
    (build_hamiltonian, (_S12, [0.0, -math.inf])),
    (least_squares, (_line, _X, np.where(_X == 5.0, math.inf, _X), [1.0, 0.0])),
    (least_squares, (_line, _X, np.where(_X == 5.0, -math.inf, _X), [1.0, 0.0])),
], ids=["counts-nan", "counts-inf", "counts-minus-inf", "snr-noise-nan", "snr-noise-inf",
        "snr-noise-minus-inf", "snr-signal-nan", "snr-signal-inf", "snr-signal-minus-inf",
        "cooperativity-depth-nan", "cooperativity-depth-inf", "cooperativity-depth-minus-inf",
        "cooperativity-finesse-nan", "cooperativity-finesse-inf",
        "cooperativity-finesse-minus-inf", "temperature-nan", "temperature-inf",
        "temperature-minus-inf", "field-nan", "field-inf", "field-minus-inf",
        "fit-data-inf", "fit-data-minus-inf"])
def test_scalar_helpers_refuse_non_finite_inputs(helper, args):
    with pytest.raises(DomainError, match="finite"):
        helper(*args)


@pytest.mark.parametrize("helper, args, kwargs", [
    (lifetime_model, (math.nan,), {}),
    (lifetime_model, ([1.0, math.inf],), {}),
    (lifetime_model, (20.0,), {"nu_prime_ghz": math.nan}),
    (one_over_e_lifetime_ns, (math.nan,), {}),
    (total_efficiency, (math.nan, 1.0, 0.0), {}),
    (total_efficiency, (1.0, math.inf, 0.0), {}),
], ids=["law-time-nan", "law-time-inf", "law-width-nan", "lifetime-nan",
        "efficiency-nan", "efficiency-reference-inf"])
def test_decay_law_and_efficiency_refuse_non_finite_inputs(helper, args, kwargs):
    # each returned nan (the infinite storage time with a RuntimeWarning),
    # and the infinite reference an efficiency of 0
    with pytest.raises(DomainError, match="finite"):
        helper(*args, **kwargs)


# ------------------------------------------------------------- decay law

def test_decay_law_zero_time_value():
    eta0 = lifetime_model(0.0, amp_main=0.51, amp_beat=0.038)
    assert eta0 == (0.51 + 0.038) ** 2
    assert eta0 == pytest.approx(0.30, abs=0.03)


def test_decay_law_constant_limit():
    t = np.linspace(0, 500, 64)
    eta = lifetime_model(t, gamma_m_rad_ns=0.0, nu_prime_ghz=0.0,
                         amp_main=0.7, amp_beat=0.0, omega_rad_ns=1.0)
    assert np.allclose(eta, 0.49, atol=1e-12)


@pytest.mark.parametrize("t", [-1.0, np.array([0.0, 5.0, -1e-9])], ids=["scalar", "array"])
def test_decay_law_refuses_a_negative_time(t):
    with pytest.raises(DomainError, match="storage time must be non-negative"):
        lifetime_model(t)


def test_one_over_e_lifetime_without_dephasing():
    # without dephasing only the spin decay is left, e^{-gm t}; without
    # that too nothing decays
    gamma = TWO_PI * 0.66e-3
    assert one_over_e_lifetime_ns(gamma, 0.0) == 1.0 / gamma
    assert one_over_e_lifetime_ns(0.0, 0.0) == math.inf


def test_one_over_e_lifetime_against_bisection_oracle():
    gamma = TWO_PI * 0.66e-3
    nu = 0.0126

    def envelope_ratio(t):
        return math.exp(-gamma * t - math.pi ** 2 * nu ** 2 * t ** 2
                        / (4 * math.log(2)))

    lo, hi = 0.0, 500.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if envelope_ratio(mid) > 1 / math.e:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert one_over_e_lifetime_ns(gamma, nu) == pytest.approx(oracle, abs=1e-6)
    assert one_over_e_lifetime_ns(gamma, nu) == pytest.approx(39.0, abs=1.0)


def test_lifetime_scan_follows_decay_law():
    times = np.linspace(10.0, 64.0, 28)
    effs = lifetime_scan(CFG, SIG, WRITE, READ, times, dt_ns=0.02)
    model = lifetime_model(times)
    scale = effs[0] / model[0]
    assert np.allclose(effs, scale * model, rtol=5e-3)


def test_lifetime_scan_huge_spin_decay():
    cfg = replace(CFG, spin_fwhm_mhz=2000.0)
    effs = lifetime_scan(cfg, SIG, WRITE, READ, [8.0, 12.0], dt_ns=0.02)
    assert np.all(effs < 1e-3)


def beat_period_by_fft(times, effs):
    """Oracle: envelope-detrended, zero-padded FFT peak with parabolic refine."""
    coeff = np.polyfit(times, np.log(effs), 4)
    detrended = effs - np.exp(np.polyval(coeff, times))
    dt = times[1] - times[0]
    n_pad = 8 * len(times)
    spec = np.abs(np.fft.rfft(detrended * np.hanning(len(detrended)), n=n_pad))
    freqs = np.fft.rfftfreq(n_pad, dt)
    search = freqs > 0.05  # look above the envelope scale
    ks = np.flatnonzero(search)
    k = ks[int(np.argmax(spec[ks]))]
    y0, y1, y2 = spec[k - 1:k + 2]
    shift = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
    return 1.0 / (freqs[k] + shift * (freqs[1] - freqs[0]))


def test_lifetime_scan_beat_period_by_fft():
    times = np.arange(8.0, 104.0, 0.25)
    effs = lifetime_scan(CFG, SIG, WRITE, READ, times, dt_ns=0.02)
    period = beat_period_by_fft(times, effs)
    assert period == pytest.approx(TWO_PI / (TWO_PI * 0.171), abs=0.1)
    assert period == pytest.approx(5.85, abs=0.1)


def test_lifetime_scan_rejects_overlap():
    with pytest.raises(DomainError):
        lifetime_scan(CFG, SIG, WRITE, READ, [2.0])


def test_simulated_scan_fit_recovers_configured_dephasing():
    # dual route: the estimation module applied to the simulated scan must
    # give back the configured decay-law parameters within 5%
    from cavmem.fitting import fit_lifetime
    times = np.arange(8.0, 100.0, 0.5)
    effs = lifetime_scan(CFG, SIG, WRITE, READ, times, dt_ns=0.01)
    fit = fit_lifetime(times, effs)
    assert fit["nu_prime_ghz"] * 1e3 == pytest.approx(CFG.dephasing_width_mhz,
                                                      rel=0.05)
    assert fit["omega_rad_ns"] == pytest.approx(
        TWO_PI * CFG.line_splitting_mhz * 1e-3, rel=0.05)
    assert fit["amp_main"] == pytest.approx(CFG.line_amp_main, rel=0.05)
    assert fit["amp_beat"] == pytest.approx(CFG.line_amp_beat, rel=0.05)


# --------------------------------------------------- segmented integrator

def _closure(main):
    return np.abs(main["closure_residual"])


@pytest.mark.parametrize("dt, worst_at_parent", [(0.02, 2.6e-5), (0.01, 1.3e-5)])
def test_lifetime_lanes_close_photon_bookkeeping(dt, worst_at_parent):
    # lanes that jump over their storage time book it in closed form and
    # close at least as well as the worst lane did when RK4 stepped through it
    taus = np.linspace(8.0, 104.0, 7)
    reads = [replace(READ, center_ns=WRITE.center_ns + t) for t in taus]
    main = simulate_batch(CFG, [SIG] * 7, [WRITE] * 7, reads, 0.0, dt)
    assert np.all(_closure(main) <= worst_at_parent)


@pytest.mark.parametrize("dt, expected", [
    (0.02, [0.16703850878809362, 0.02640786990607904, 0.0003880731618264449]),
    (0.01, [0.16704185381867778, 0.026408398737009706, 0.0003880809331874895]),
])
def test_lifetime_scan_golden_values(dt, expected):
    # recorded when every storage time was RK4-stepped
    effs = lifetime_scan(CFG, SIG, WRITE, READ, [20.0, 60.0, 104.0], dt_ns=dt)
    assert np.allclose(effs, expected, rtol=1e-8, atol=0.0)


# storage times whose read start, tau - 8 ns, lies off the grid at dt 0.02
# and 0.01, and whose t_mid lies inside the jump
_OFF_GRID_TAUS = [23.4567, 61.2345, 97.891]
# twelve more such storage times, seeded, over the shared lanes' range
_SEEDED_TAUS = np.random.default_rng(37).uniform(16.3, 104.0, 12).tolist()


@pytest.fixture(scope="module")
def off_grid_reference():
    """The lane schedule's efficiencies at _OFF_GRID_TAUS and dt 0.00125."""
    reads = [replace(READ, center_ns=WRITE.center_ns + t) for t in _OFF_GRID_TAUS]
    return batch_efficiency(CFG, [SIG] * 3, [WRITE] * 3, reads, 0.0, 0.00125)


@pytest.mark.parametrize("dt", [0.02, 0.01])
def test_shared_lanes_agree_with_the_lane_schedule_off_the_grid(dt, off_grid_reference):
    # a shared lane starts its read at t_read itself, the lane schedule at
    # the grid point below it; the two differ by less than the lane
    # schedule's own error against dt 0.00125
    from cavmem.memory import _lifetime_lanes
    assert all((t - 8.0) / dt % 1 > 0.05 for t in _OFF_GRID_TAUS)
    assert _lifetime_lanes(CFG, SIG, WRITE, READ, _OFF_GRID_TAUS, dt)["shared"].all()
    reads = [replace(READ, center_ns=WRITE.center_ns + t) for t in _OFF_GRID_TAUS]
    batched = batch_efficiency(CFG, [SIG] * 3, [WRITE] * 3, reads, 0.0, dt)
    shared = lifetime_scan(CFG, SIG, WRITE, READ, _OFF_GRID_TAUS, dt_ns=dt)
    assert np.all(np.abs(shared - batched) <= np.abs(batched - off_grid_reference))


@pytest.mark.parametrize("dt", [0.02, 0.01])
@pytest.mark.parametrize("taus, on_grid", [([20.0, 60.0, 104.0], True),
                                           (_OFF_GRID_TAUS, False), (_SEEDED_TAUS, False)],
                         ids=["on-grid", "off-grid", "seeded"])
def test_shared_lanes_book_each_channel_as_the_lane_schedule(taus, on_grid, dt):
    # the shared write, jump, read and ring-down book what the lane schedule
    # books, to rounding, on the grid or off it: each lane rings down to its
    # own end on the grid, as the lane schedule's does
    from cavmem.memory import _lifetime_lanes
    read_starts = (np.array(taus) - 8.0) / dt
    off = np.abs(read_starts - np.round(read_starts)) > 1e-3
    assert off.tolist() == [not on_grid] * len(taus)
    lanes = _lifetime_lanes(CFG, SIG, WRITE, READ, taus, dt)
    assert lanes["shared"].all()
    reads = [replace(READ, center_ns=WRITE.center_ns + t) for t in taus]
    batch = simulate_batch(CFG, [SIG] * len(taus), [WRITE] * len(taus), reads, 0.0, dt)
    for key in CHANNELS:
        assert np.abs(lanes[key] - batch[key]).max() <= 1e-13, key


def test_lanes_share_where_t_mid_lies_inside_the_jump():
    # t_mid <= t_read needs tau >= 6 read FWHM (16.2 ns); 12.5 ns and
    # 16.1 ns keep the lane schedule, 16.3 ns and longer share
    from cavmem.memory import _lifetime_lanes
    lanes = _lifetime_lanes(CFG, SIG, WRITE, READ, [12.5, 16.1, 16.3, 40.0], 0.02)
    assert lanes["shared"].tolist() == [False, False, True, True]


@pytest.mark.parametrize("dt, worst_at_parent", [(0.02, 2.6e-5), (0.01, 1.3e-5)])
def test_shared_lifetime_lanes_close_photon_bookkeeping(dt, worst_at_parent):
    # the bound of test_lifetime_lanes_close_photon_bookkeeping, for every
    # lane of a scan on and off the grid
    from cavmem.memory import _lifetime_lanes
    taus = np.concatenate([np.linspace(8.0, 104.0, 7), _OFF_GRID_TAUS])
    lanes = _lifetime_lanes(CFG, SIG, WRITE, READ, taus, dt)
    assert lanes["shared"].tolist() == [False] + [True] * 9
    assert np.all(np.abs(lanes["closure_residual"]) <= worst_at_parent)


def test_storage_time_keeps_its_bits_alone_and_in_any_scan():
    taus = [8.0, 12.5, 16.1, 16.3, 20.0, 33.3333, 104.0]
    scan = lifetime_scan(CFG, SIG, WRITE, READ, taus, dt_ns=0.02)
    shared = lifetime_scan(CFG, SIG, WRITE, READ, taus[3:][::-1], dt_ns=0.02)[::-1]
    assert shared.tobytes() == scan[3:].tobytes()
    for tau, value in zip(taus, scan):
        assert lifetime_scan(CFG, SIG, WRITE, READ, [tau], dt_ns=0.02)[0] == value, tau


def test_lifetime_scan_admits_once_and_keeps_the_bits_of_its_batch(monkeypatch):
    # 8 and 12.5 ns do not jump, 15.0 ns jumps but takes its kernel inside
    # its read, and 16.3 and 40 ns share the write and the read; the lanes
    # that do not share are integrated from the scan's one admission, with
    # the bits that simulate_batch gives the same reads
    from cavmem import memory
    taus = [8.0, 12.5, 15.0, 16.3, 40.0]
    reads = [replace(READ, center_ns=WRITE.center_ns + t) for t in taus[:3]]
    batch = simulate_batch(CFG, [SIG] * 3, [WRITE] * 3, reads, 0.0, 0.02)
    calls = {"_admit": 0, "_control_off": 0, "simulate_batch": 0}

    def counted(name):
        original = getattr(memory, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(memory, name, counted(name))
    lanes = memory._lifetime_lanes(CFG, SIG, WRITE, READ, taus, 0.02)
    assert calls == {"_admit": 1, "_control_off": 1, "simulate_batch": 0}
    assert lanes["shared"].tolist() == [False, False, False, True, True]
    for key in (*CHANNELS, "closure_residual", "reference_counts"):
        assert lanes[key][:3].tobytes() == batch[key].tobytes(), key


@pytest.mark.parametrize("taus", [[20.0], [12.5]], ids=["shared", "batched"])
def test_lifetime_scan_refuses_as_its_batch_does(taus):
    # the stability guard, and the work cap before anything is integrated
    with pytest.raises(NumericalError, match="too large for the fastest mode"):
        lifetime_scan(CFG, SIG, WRITE, READ, taus, dt_ns=0.05)
    with pytest.raises(DomainError, match="lane-steps"):
        lifetime_scan(CFG, SIG, WRITE, READ, taus * 2000, dt_ns=0.01)


# objectives of 24 random GA vectors (seed 7, default bounds, dt 0.02),
# recorded when every lane was RK4-stepped to the end of its window
_RING_DOWN_PARENT = [
    6.927244302550574e-08, 0.0002007204036349251, 0.0029556018358189444,
    0.016471731212863328, 0.115237227199154, 0.10804547685070018,
    0.019852530039665164, 0.004132083321492157, 0.1110086855305305,
    0.04252676293392527, 0.0027437033718795177, 0.7383748911712937,
    0.0021358754517918094, 0.0057698353949075755, 0.1388863454741427,
    0.03341105727303746, 0.08513645038404022, 0.039389717011846015,
    0.00016349838378714623, 0.3934598508542386, 0.001973899146734996,
    0.20849412916087126, 0.0007796952958741368, 0.0021862590551994404,
]


def test_closed_form_ring_down_matches_stepped_tail():
    # the exact ring-down replaces RK4 and the trapezoid after the read
    # closes; only lanes that emit much of their output after the close move
    from cavmem.optimize import _evaluate_batch
    space = ParameterSpace()
    vectors = np.random.default_rng(7).uniform(space.lower(), space.upper(),
                                               size=(24, len(PARAMETER_NAMES)))
    vals = _evaluate_batch(list(vectors), CFG, 0.0, 0.02, None)
    rel = np.abs(vals - _RING_DOWN_PARENT) / np.abs(_RING_DOWN_PARENT)
    assert np.median(rel) <= 1e-10
    assert np.all(rel <= 1e-5)


def test_loop_ends_at_read_close():
    # the loop stops where the last lane's read window closes, not where its
    # cavity has emptied; it stepped 3111 and 1632 times when it ran on
    store = simulate_batch(CFG, [SIG], [WRITE], [READ], 0.0, 0.01, keep_flux=True)
    assert (store["loop_steps"], store["lane_steps"]) == (2592, 2592)
    taus = np.linspace(8.0, 104.0, 192)
    reads = [replace(READ, center_ns=WRITE.center_ns + t) for t in taus]
    scan = simulate_batch(CFG, [SIG] * 192, [WRITE] * 192, reads, 0.0, 0.02)
    assert (scan["loop_steps"], scan["lane_steps"]) == (1372, 192 * 1372)


def test_jumping_lane_independent_of_batch_companions():
    from cavmem.memory import _lane_steps, _pulse_par_arrays, batch_efficiency
    read = replace(READ, center_ns=WRITE.center_ns + 40.0)
    k_free, k_read = _lane_steps(_pulse_par_arrays(CFG, [SIG], [WRITE], [read], 0.0),
                                 0.02)[2:4]
    assert k_read[0] > k_free[0]          # the lane does jump
    alone = batch_efficiency(CFG, [SIG], [WRITE], [read], 0.0, 0.02)[0]
    rng = np.random.default_rng(11)
    for size in (1, 7, 40):
        lanes = [(replace(SIG, center_ns=float(rng.uniform(-2.0, 2.0)),
                          fwhm_ns=float(rng.uniform(0.4, 3.0))),
                  replace(WRITE, fwhm_ns=float(rng.uniform(0.4, 3.0))),
                  replace(READ, center_ns=WRITE.center_ns + float(rng.uniform(8.0, 104.0)),
                          fwhm_ns=float(rng.uniform(0.4, 3.0))))
                 for _ in range(size - 1)]
        at = size // 2
        lanes.insert(at, (SIG, WRITE, read))
        signals, writes, reads = (list(c) for c in zip(*lanes))
        vals = batch_efficiency(CFG, signals, writes, reads, 0.0, 0.02)
        assert vals[at] == alone


def test_dark_read_before_write_independent_of_batch_companions():
    # t_mid of this lane lies past its read close, before its write closes;
    # a longer companion must not move where it takes the kernel
    write, dark_read = replace(WRITE, center_ns=30.0), replace(READ, energy=0.0)
    alone = simulate_batch(CFG, [SIG], [write], [dark_read], 0.0, 0.02)
    pair = simulate_batch(CFG, [SIG, SIG], [write, WRITE],
                          [dark_read, replace(READ, center_ns=60.0)], 0.0, 0.02)
    for key in CHANNELS:
        assert pair[key][0] == alone[key][0], key


def test_dark_read_before_write_takes_its_kernel_before_the_ring_down():
    # the write of this lane closes after its dark read, so its ring-down
    # starts after t_mid; the kernel acts there and the output before it is
    # leak, as for every other lane.  t_mid (29.75 ns) lies inside the
    # write, so S holds part of the stored signal when the kernel acts
    from cavmem.memory import _lane_steps, _pulse_par_arrays
    sig, write = replace(SIG, center_ns=29.9), replace(WRITE, center_ns=30.0)
    dark_read = replace(READ, center_ns=29.5, energy=0.0)
    par = _pulse_par_arrays(CFG, [sig], [write], [dark_read], 0.0)
    _, k_mid, _, _, k_close, _ = _lane_steps(par, 0.02)
    assert k_mid[0] <= k_close[0]
    main = simulate_batch(CFG, [sig], [write], [dark_read], 0.0, 0.02)
    # |S|^2 at the kernel, from the loss it books
    spin_at_kernel = main["loss_dephasing"][0] / (1 - abs(par["kernel"][0]) ** 2)
    assert spin_at_kernel > 0.1 * sig.energy
    assert _closure(main)[0] < 1e-4


def test_dark_read_far_before_write_takes_no_kernel():
    # a dark read centred at -100 ns puts t_mid before the lane's start, so
    # no chunk steps onto k_mid and no jump holds it: the stored excitation
    # is booked undephased, as spin loss and residual, and the ledger closes
    from cavmem.memory import _lane_steps, _pulse_par_arrays
    dark_read = replace(READ, center_ns=-100.0, energy=0.0)
    k_start, k_mid = _lane_steps(_pulse_par_arrays(CFG, [SIG], [WRITE], [dark_read], 0.0),
                                 0.02)[:2]
    assert k_mid[0] <= k_start[0]
    main = simulate_batch(CFG, [SIG], [WRITE], [dark_read], 0.0, 0.02)
    assert main["loss_dephasing"][0] == 0.0
    assert main["residual_excitation"][0] > 0.1 * SIG.energy
    assert _closure(main)[0] < 1e-4


@pytest.mark.parametrize("event", ["free", "read", "after"])
def test_kernel_acts_where_t_mid_meets_a_jump_end(event):
    # the kernel is a loop event: t_mid on the last point before the jump
    # (k_free) ends the chunk that the jump ends too, t_mid on the jump's
    # last point (k_read) is the jump's, and t_mid after k_read ends a chunk
    # behind the jump (a 3 ns read at 16 ns puts t_read at 7 ns and t_mid at
    # 8 ns); either way the lane takes its kernel once, at k_mid (its pin),
    # closes its bookkeeping, keeps its bits beside a companion that jumps
    # elsewhere, and its store joins its time blocks to its lane's results
    from cavmem.memory import _lane_steps, _pulse_par_arrays
    read, t_mid = replace(READ, center_ns=60.1), 0.5 * (WRITE.center_ns + 60.1)
    sig = SIG
    if event == "free":
        write = replace(WRITE, fwhm_ns=(t_mid - WRITE.center_ns) / 3)
    elif event == "read":
        write, read = WRITE, replace(read, fwhm_ns=(60.1 - t_mid) / 3)
    else:
        sig, write = replace(SIG, fwhm_ns=0.3), replace(WRITE, center_ns=0.0, fwhm_ns=0.4)
        read = replace(READ, center_ns=16.0, fwhm_ns=3.0)
    _, k_mid, k_free, k_read, _, _ = _lane_steps(
        _pulse_par_arrays(CFG, [sig], [write], [read], 0.0), 0.02)
    if event == "after":
        assert k_mid[0] > k_read[0]
    else:
        assert k_mid[0] == {"free": k_free, "read": k_read}[event][0]
    assert k_free[0] < k_read[0]
    alone = simulate_batch(CFG, [sig], [write], [read], 0.0, 0.02, keep_flux=True)
    assert alone["loss_dephasing"][0] > 0.0
    # retrieved counts and dephasing loss, recorded when the RK4 stepper
    # applied the kernel inside its chunk
    assert (alone["retrieved_counts"][0], alone["loss_dephasing"][0]) \
        == tuple(PINS["event_lanes"][event])
    assert _closure(alone)[0] < 1e-4
    pair = simulate_batch(CFG, [sig, SIG], [write, WRITE],
                          [read, replace(READ, center_ns=90.0)], 0.0, 0.02)
    for key in CHANNELS:
        assert pair[key][0] == alone[key][0], key
    _assert_store_equals_its_lane(run(sig=sig, w=write, r=read, dt_ns=0.02), alone)


def test_integrate_batch_keeps_the_benchmark_hook_shape():
    # perfbench/tracing.py reads (par, t0, t1, dt) by position and the step
    # counts from the result
    import inspect

    from cavmem.memory import _integrate_batch
    assert list(inspect.signature(_integrate_batch).parameters)[:4] == ["par", "t0", "t1", "dt"]
    main = simulate_batch(CFG, [SIG], [WRITE], [READ], 0.0, 0.02)
    assert {"loop_steps", "lane_steps"} <= set(main)


def _store_and_its_lane(read, dt):
    """The store run of SIG, WRITE and `read`, and its storage lane on the
    lane schedule."""
    store = run(r=read, dt_ns=dt)
    lane = simulate_batch(CFG, [SIG], [WRITE], [read], 0.0, dt, keep_flux=True)
    return store, lane


def _store_channels(res):
    return {"leak_counts": res.leak_counts, "retrieved_counts": res.retrieved_counts,
            **{k: res.bookkeeping[k] for k in CHANNELS[2:]}}


def _assert_store_equals_its_lane(store, lane):
    """The store's storage lane agrees with the lane schedule's `lane` (kept
    with its flux) to a few ulps, takes its kernel and closes."""
    for key, value in _store_channels(store).items():
        assert value == pytest.approx(lane[key][0], rel=1e-12, abs=0.0), key
    assert store.bookkeeping["loss_dephasing"] > 0.0
    assert store.integrator["closure_residual"] == pytest.approx(
        lane["closure_residual"][0], rel=0.0, abs=1e-14)
    assert abs(store.integrator["closure_residual"]) < 1e-4
    assert np.array_equal(store.time_grid_ns, lane["ts"])
    scale = np.max(lane["out_flux"][:, 0])
    assert np.max(np.abs(store.output_flux - lane["out_flux"][:, 0])) <= 1e-12 * scale


@pytest.mark.parametrize("dt", [0.01, 0.02])
@pytest.mark.parametrize("read_at, mid_block", [
    (12.6, "later"), (12.6, "first"), (12.6, "ends"), (8.1, "later"), (60.0, "later"),
    (60.0, "first")], ids=["default-later", "default-first", "default-ends", "tau8-later",
                           "jump-later", "jump-first"])
def test_blocked_store_equals_its_lane_schedule(read_at, mid_block, dt, monkeypatch):
    # the store steps its time axis in blocks joined by superposition; its
    # storage lane agrees with the lane schedule to a few ulps wherever
    # t_mid falls: in a later block, in the first, on a block's last point,
    # or (read at 60 ns) in the jump, with blocks of 48 steps or as long
    # as the steps before t_mid
    from cavmem import memory
    from cavmem.memory import _lane_steps, _pulse_par_arrays
    read = replace(READ, center_ns=read_at)
    k_start, k_mid = _lane_steps(_pulse_par_arrays(CFG, [SIG], [WRITE], [read], 0.0),
                                 dt)[:2]
    to_mid = int(k_mid[0] - k_start[0])
    blocks = {"later": memory._BLOCK_STEPS, "first": to_mid + 7, "ends": to_mid}[mid_block]
    monkeypatch.setattr(memory, "_BLOCK_STEPS", blocks)
    store, lane = _store_and_its_lane(read, dt)
    # blocks end at the jump too, so the run always has more than one
    assert store.integrator["block_steps"] <= blocks
    assert store.integrator["block_steps"] < store.integrator["loop_steps"]
    assert (mid_block == "later") == (to_mid > blocks)
    _assert_store_equals_its_lane(store, lane)


def test_store_of_one_block_keeps_the_lane_schedule_bits(monkeypatch):
    # with blocks as long as the run, the kernel at k_mid splits it in two:
    # the first block steps from rest, so up to k_mid the store keeps the
    # lane schedule's bits, and the second joins by superposition
    from cavmem import memory
    from cavmem.memory import _lane_steps, _pulse_par_arrays
    monkeypatch.setattr(memory, "_BLOCK_STEPS", 2592)
    k_start, k_mid = _lane_steps(_pulse_par_arrays(CFG, [SIG], [WRITE], [READ], 0.0),
                                 0.01)[:2]
    to_mid = int(k_mid[0] - k_start[0])
    store, lane = _store_and_its_lane(READ, 0.01)
    assert store.integrator["loop_steps"] == 2592
    assert store.integrator["block_steps"] == max(to_mid, 2592 - to_mid)
    assert store.leak_counts == lane["leak_counts"][0]
    assert store.output_flux[:to_mid + 1].tobytes() == \
        lane["out_flux"][:to_mid + 1, 0].tobytes()
    _assert_store_equals_its_lane(store, lane)


@pytest.mark.parametrize("wave", [1, 2, 5])
@pytest.mark.parametrize("dt", [0.01, 0.02])
@pytest.mark.parametrize("read_at", [12.6, 60.0], ids=["default", "jump"])
def test_blocks_stepped_in_waves_keep_their_join(read_at, dt, wave, monkeypatch):
    # waves of a few blocks each bound the memory of a long run; they step
    # the same blocks, so the store keeps its bits, also where the read at
    # 60 ns puts a jump, and so a booking, inside a wave
    from cavmem import memory
    read = replace(READ, center_ns=read_at)
    whole = run(r=read, dt_ns=dt)
    monkeypatch.setattr(memory, "_WAVE_LANE_STEPS", 4 * memory._BLOCK_STEPS * wave)
    waves = run(r=read, dt_ns=dt)
    assert _store_channels(waves) == _store_channels(whole)
    assert waves.integrator["closure_residual"] == whole.integrator["closure_residual"]
    assert waves.output_flux.tobytes() == whole.output_flux.tobytes()


def test_batch_beyond_the_work_cap_is_refused_before_allocation(monkeypatch):
    # a 10 us signal spans 7e6 grid points at dt 0.01, and 2000 default
    # lanes take 5.2e6 lane-steps; the admission counts both from the
    # lanes' events and refuses them before the integrator runs
    from cavmem import memory

    def never(*args, **kwargs):
        raise AssertionError("the integrator ran")

    monkeypatch.setattr(memory, "_integrate_batch", never)
    with pytest.raises(DomainError, match=r"grid of 7\.001e\+06 points.*window runs from"):
        simulate_batch(CFG, [replace(SIG, fwhm_ns=1e4)], [WRITE], [READ])
    with pytest.raises(DomainError, match=r"5184000 lane-steps.*window runs from"):
        simulate_batch(CFG, [SIG] * 2000, [WRITE] * 2000, [READ] * 2000)
    with pytest.raises(DomainError, match="cap"):
        run(sig=replace(SIG, fwhm_ns=1e4))


def test_no_drive_outlasts_t_close():
    # after t_close, where the drive-free ring-down starts, the signal, the
    # write and the read are each at most at their own window edge, also for
    # a write of 5 ns FWHM that closes after a read of 0.4 ns 10 ns later
    from cavmem.memory import _drives, _pulse_par_arrays
    signals, writes, reads = random_lanes(np.random.default_rng(41), 48)
    sig, write, read = _pulses_from_vector(np.array([0, 0.5, 5, -0.1, 1.5, 5, 10, 0.4]))
    par = _pulse_par_arrays(CFG, signals + [sig], writes + [write], reads + [read], 0.0)
    b = len(par["t_close"])
    after = par["t_close"] + np.linspace(0.0, 30.0, 301)[:, None]

    def drives(p, t):
        # |a_in| and |Omega| at times t (dt = 1, no lane held at rest)
        sig, write, read = _drives(p, 2 * t, 1.0)
        return np.abs(p["sig_amp"] * sig), np.abs(p["omega_w"] * write + p["omega_r"] * read)

    assert np.all(drives(par, after)[0]
                  <= drives(par, (par["sig_c"] + 4 * par["sig_f"])[None])[0])
    for role, off, edge in (("write", "omega_r", par["w_c"] + 3 * par["w_f"]),
                            ("read", "omega_w", par["r_c"] + 3 * par["r_f"])):
        alone = dict(par, **{off: np.zeros(b)})      # the other control off
        assert np.all(drives(alone, after)[1] <= drives(alone, edge[None])[1]), role


def test_zero_length_drive_free_leg_keeps_state_bits():
    from cavmem.memory import _ap_eigenvalues, _free_evolution, _pulse_par_arrays
    signals, writes, reads = random_lanes(np.random.default_rng(31), 16)
    par = _pulse_par_arrays(CFG, signals, writes, reads, 0.0)
    c_a, c_p, s = _ap_eigenvalues(par)
    diag = np.stack([c_a, c_p, -(par["gamma_s"] / 2 + 1j * par["delta_2"])])
    rng = np.random.default_rng(32)
    y = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    t = np.where(np.arange(16) % 2 == 0, 0.0, 0.7)
    state, integrals = _free_evolution(y, diag, 1j * par["g"], s, t)
    assert state[:, ::2].tobytes() == y[:, ::2].tobytes()
    assert not np.any(integrals[:, ::2])
    assert np.all(integrals[:, 1::2] > 0)


def _carry_lanes(seed, size=16):
    """The rates (see memory._rates), kappa_ext and kernel of `size` random
    lanes, and a random state of each."""
    from cavmem.memory import _pulse_par_arrays, _rates
    signals, writes, reads = random_lanes(np.random.default_rng(seed), size)
    par = _pulse_par_arrays(CFG, signals, writes, reads, 0.0)
    rng = np.random.default_rng(seed + 1)
    y = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
    return _rates(par), par["kappa_ext"], par["kernel"], y


def test_carry_over_nothing_keeps_the_state_and_books_nothing():
    from cavmem.memory import _carry
    rates, kappa_ext, _, y = _carry_lanes(41)
    zero = np.zeros(16)
    y_end, booked = _carry(y, rates, kappa_ext, zero, zero, 1)
    assert y_end.tobytes() == y.tobytes()
    assert booked.shape == (6, 16) and not np.any(booked)


def test_carry_split_anywhere_equals_the_unsplit_span():
    # with a kernel of 1, where t_mid splits a span moves only which of its
    # output is leak and which retrieved
    from cavmem.memory import _carry
    rates, kappa_ext, _, y = _carry_lanes(43)
    rng = np.random.default_rng(44)
    span = rng.uniform(0.5, 20.0, 16)
    whole, booked = _carry(y, rates, kappa_ext, span, np.zeros(16), 1)
    assert not np.any(booked[1])
    # the state's rounding grows with the phase |s| span that the span turns
    # through, up to 2000 rad here: e^{s t1} e^{s t2} is not e^{s (t1 + t2)}
    eps = np.finfo(float).eps
    turn = np.abs(np.concatenate([rates[0], rates[2]])).max(axis=0) * span
    for share in (0.0, 1e-3, 0.25, 0.5, 0.999, 1.0, rng.uniform(size=16)):
        before = share * span
        split, parts = _carry(y, rates, kappa_ext, before, span - before, 1)
        assert np.all(np.abs(split - whole)
                      <= 4 * eps * (1 + turn) * np.abs(whole).max(axis=0))
        assert np.all(np.abs(parts[0] + parts[1] - booked[0]) <= 10 * eps * booked[0])
        assert np.all(np.abs(parts[2:5] - booked[2:5]) <= 10 * eps * booked[2:5])
        assert not np.any(parts[5])


def test_carry_books_the_excitation_that_the_kernel_removes():
    from cavmem.memory import _carry, _free_evolution
    rates, kappa_ext, kernel, y = _carry_lanes(45)
    before, after = np.linspace(0.0, 8.0, 16), np.linspace(3.0, 0.0, 16)
    spin_mid = _free_evolution(y, *rates[:3], before)[0][2]
    _, booked = _carry(y, rates, kappa_ext, before, after, kernel)
    assert np.all(np.abs(kernel) < 1)
    assert booked[5].tobytes() == (np.abs(spin_mid) ** 2 * (1 - np.abs(kernel) ** 2)).tobytes()
    # the kernel removes what S loses there, and nothing else
    assert np.allclose(booked[5] + np.abs(spin_mid * kernel) ** 2, np.abs(spin_mid) ** 2,
                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("scan", [lifetime_scan, energy_scan, bandwidth_scan])
def test_scan_of_empty_grid_is_empty(scan):
    effs = scan(CFG, SIG, WRITE, READ, [], dt_ns=0.02)
    assert isinstance(effs, np.ndarray) and effs.shape == (0,)


def test_batch_admission():
    with pytest.raises(DomainError):
        simulate_batch(CFG, [], [], [])
    with pytest.raises(DomainError):
        simulate_batch(CFG, [SIG], [WRITE, WRITE], [READ, READ])
    assert batch_efficiency(CFG, [], [], []).shape == (0,)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf, -math.inf],
                         ids=["zero", "negative", "nan", "inf", "minus-inf"])
@pytest.mark.parametrize("run_it", [
    lambda dt: simulate_batch(CFG, [SIG], [WRITE], [READ], dt_ns=dt),
    lambda dt: run(dt_ns=dt),
    lambda dt: lifetime_scan(CFG, SIG, WRITE, READ, [20.0], dt_ns=dt),
    lambda dt: objective([0.0, 0.5, 5.0, -0.1, 1.5, 5.0, 10.0, 0.4], CFG, dt_ns=dt),
], ids=["batch", "store", "lifetime", "objective"])
def test_time_step_must_be_finite_and_positive(run_it, dt):
    # a zero step once raised ZeroDivisionError, and a negative one gave an
    # empty run with an objective of 0
    with pytest.raises(DomainError, match="time step"):
        run_it(dt)


@pytest.mark.parametrize("scan, grid", [(energy_scan, [0.2]), (bandwidth_scan, [1.5])],
                         ids=["energy", "bandwidth"])
def test_scans_refuse_a_dark_template_write(scan, grid):
    # each scan keeps the template's read/write energy ratio, which a dark
    # write leaves undefined
    with pytest.raises(DomainError, match="template write pulse must carry energy"):
        scan(CFG, SIG, replace(WRITE, energy=0.0), READ, grid, dt_ns=0.02)


def test_bandwidth_scan_needs_a_refinement_round():
    # no round left the "no best yet" marker -1 as the efficiency
    with pytest.raises(DomainError, match="round"):
        bandwidth_scan(CFG, SIG, WRITE, READ, [1.5], dt_ns=0.02, refine_rounds=0)


@pytest.mark.parametrize("scan, value", [
    (energy_scan, -0.1), (energy_scan, math.nan),
    (bandwidth_scan, 0.0), (bandwidth_scan, -0.1), (bandwidth_scan, math.nan),
], ids=["energy-negative", "energy-nan", "width-zero", "width-negative", "width-nan"])
def test_scans_refuse_their_grid_through_the_pulses_they_build(scan, value):
    # a negative or NaN write energy and a non-positive or NaN signal width
    # are refused by PulseShape, from which each scan builds its points
    with pytest.raises(DomainError):
        scan(CFG, SIG, WRITE, READ, [1.0, value], dt_ns=0.02)


@pytest.mark.parametrize("run_it", [
    lambda sig: run(sig=sig),
    lambda sig: lifetime_scan(CFG, sig, WRITE, READ, [20.0], dt_ns=0.02),
    lambda sig: energy_scan(CFG, sig, WRITE, READ, [0.2], dt_ns=0.02),
    lambda sig: bandwidth_scan(CFG, sig, WRITE, READ, [1.5], dt_ns=0.02,
                               refine_rounds=1),
], ids=["store", "lifetime", "energy", "bandwidth"])
def test_signal_without_photons_has_no_efficiency(run_it):
    with pytest.raises(DomainError, match="photons"):
        run_it(replace(SIG, energy=0.0))


def test_total_efficiency_elementwise():
    c_ret, c_ref = np.array([0.2, 0.3]), np.array([0.4, 0.5])
    assert np.array_equal(total_efficiency(c_ret, c_ref, 0.68),
                          (1 - 0.68) * (c_ret / c_ref))
    assert np.array_equal(total_efficiency(c_ret, c_ref, 0.0), c_ret / c_ref)
    with pytest.raises(DomainError):
        total_efficiency(c_ret, np.array([0.4, 0.0]), 0.5)


def _store_fingerprint(res, keys):
    """The named fields of `res`, flux arrays as the sha256 of their bytes."""
    return {k: hashlib.sha256(getattr(res, k).tobytes()).hexdigest()
            if k.endswith("flux") else getattr(res, k) for k in keys}


def test_storage_run_fingerprints_pinned():
    from cavmem.config import ExperimentConfig
    from cavmem.optimize import objective
    ec = ExperimentConfig()
    cfg = ec.memory_config()
    sig, wr, rd = (ec.pulse(n) for n in ("signal", "write", "read"))
    vec = np.array([0.0, 0.2, 5.0, -0.1, 1.5, 1.6, 12.5, 2.7])
    assert objective(vec, cfg) == PINS["objective"]
    # recorded from the step with scaled stage tables, the run stepped in
    # time blocks that end at the kernel and the reference flux in closed
    # form, from the numpy Faddeeva series; a change that moves them stays
    # within the budget that tests/test_record_bench.py states
    res = simulate_storage_retrieval(cfg, sig, wr, rd)
    assert _store_fingerprint(res, PINS["store"]) == PINS["store"]
    # the read at 60 ns leaves a drive-free stretch that the lane jumps over
    res = simulate_storage_retrieval(cfg, sig, wr, replace(rd, center_ns=60.0))
    assert _store_fingerprint(res, PINS["store_read_at_60_ns"]) == PINS["store_read_at_60_ns"]


@pytest.mark.parametrize("batch", list(PINS["batches"]), ids=["48-lanes", "320-lanes"])
def test_random_batch_arrays_pinned(batch):
    # loop steps and the sha256 of every array simulate_batch returns for
    # the random lanes "seed-size" at dt 0.02: 48 lanes step in chunks of
    # 64, 320 lanes in chunks of 12, so chunk ends fall between jumps;
    # recorded with the input photons in closed form and each chunk
    # computing the fluxes at all of its own grid points
    seed, size = map(int, batch.split("-"))
    assert pinned_batch(seed, size) == PINS["batches"][batch]


@pytest.mark.parametrize("lane_steps", [48 * 4, 48 * 5, 48 * 17, 4096],
                         ids=["chunk-4", "chunk-5", "chunk-17", "chunk-64"])
def test_chunk_ends_move_no_bits(lane_steps, monkeypatch):
    # where a drive table ends is bookkeeping: every chunk length of the
    # 48-lane batch gives its pinned arrays and step count
    from cavmem import memory
    monkeypatch.setattr(memory, "_CHUNK_LANE_STEPS", lane_steps)
    test_random_batch_arrays_pinned("5-48")


def test_rk4_step_makes_at_most_30_multiply_and_add_calls(monkeypatch):
    # at GA widths a step costs its numpy calls: 29 in the scaled stage
    # form, plus a chunk's few table calls shared by its 64 steps
    import types

    from cavmem import memory
    calls = []

    class Counted:
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __call__(self, *args, **kwargs):
            calls.append(self.ufunc)
            return self.ufunc(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

    numpy = types.SimpleNamespace(**vars(np))
    numpy.multiply, numpy.add = Counted(np.multiply), Counted(np.add)
    monkeypatch.setattr(memory, "np", numpy)
    main = simulate_batch(CFG, [SIG], [WRITE], [READ], 0.0, 0.02)
    assert len(calls) / main["loop_steps"] <= 30


@pytest.mark.parametrize("at", [0, 1, 3])
def test_chirp_free_lane_keeps_its_bits_beside_chirped_companions(at):
    # a GA vector gives the write and the read one carrier, so its read
    # takes no chirp phase alone; beside chirped companions its phase is
    # exactly 1, which moves no bit of any of its arrays
    from cavmem.memory import _drives, _pulse_par_arrays
    lane = _pulses_from_vector(np.array([0.0, 0.2, 5.0, -0.1, 1.5, 1.6, 12.5, 2.7]))
    alone = simulate_batch(CFG, *([p] for p in lane), 0.0, 0.02, keep_flux=True)
    par = _pulse_par_arrays(CFG, *([p] for p in lane), 0.0)
    assert par["chirp_r"][0] == 0.0
    assert all(g.dtype == float for g in _drives(par, np.arange(8)[:, None], 0.02))
    lanes = [(SIG, WRITE, replace(READ, center_ns=c)) for c in (20.0, 60.0, 12.6)]
    lanes.insert(at, lane)
    signals, writes, reads = (list(c) for c in zip(*lanes))
    chirps = _pulse_par_arrays(CFG, signals, writes, reads, 0.0)["chirp_r"]
    assert np.count_nonzero(chirps) == 3
    pair = simulate_batch(CFG, signals, writes, reads, 0.0, 0.02, keep_flux=True)
    for key, value in alone.items():
        if key == "out_flux":          # on the batch's grid, which spans wider
            shift = round((alone["ts"][0] - pair["ts"][0]) / 0.02)
            value, got = value[:, 0], pair[key][shift:shift + len(value), at]
        elif isinstance(value, np.ndarray) and key != "ts":
            value, got = value[0], pair[key][at]
        else:
            continue
        assert got.tobytes() == value.tobytes(), key


def test_lane_arrays_of_mixed_batch_equal_each_lane_alone():
    # every parameter array of a batch holds, bit for bit, what the lane
    # assembles alone, under a per-lane drift
    from cavmem.memory import _pulse_par_arrays
    rng = np.random.default_rng(23)
    signals, writes, reads = random_lanes(rng, 40)
    drift = rng.uniform(-0.05, 0.05, 40)
    par = _pulse_par_arrays(CFG, signals, writes, reads, drift)
    for i in range(40):
        alone = _pulse_par_arrays(CFG, signals[i:i + 1], writes[i:i + 1],
                                  reads[i:i + 1], float(drift[i]))
        assert set(alone) == set(par)
        for key, value in alone.items():
            assert par[key][i:i + 1].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("width", [1, 40])
def test_lane_arrays_take_three_buildup_calls(width, monkeypatch):
    # the calibration point plus one call per control role, whatever the width
    from cavmem import cavity
    from cavmem.memory import _pulse_par_arrays
    calls = []
    real = cavity.buildup_factor
    monkeypatch.setattr(cavity, "buildup_factor",
                        lambda *a: calls.append(a) or real(*a))
    signals, writes, reads = random_lanes(np.random.default_rng(3), width)
    _pulse_par_arrays(CFG, signals, writes, reads, 0.0)
    assert len(calls) == 3


def test_lifetime_scan_flat_against_decay_law_where_jumps_begin():
    # from 8 to 20 ns the jumped-over storage time grows from none to a few
    # steps; the scan must follow the decay law through that onset
    times = np.round(np.arange(8.0, 20.0 + 1e-9, 0.05), 10)
    effs = lifetime_scan(CFG, SIG, WRITE, READ, times, dt_ns=0.02)
    ratio = effs / lifetime_model(times, CFG.gamma_m, CFG.dephasing_width_mhz * 1e-3,
                                  CFG.line_amp_main, CFG.line_amp_beat,
                                  TWO_PI * CFG.line_splitting_mhz * 1e-3)
    assert (ratio.max() - ratio.min()) / ratio.mean() < 1e-3


def test_scan_results_independent_of_point_order():
    times = np.array([9.0, 24.0, 15.0, 40.0])
    a = lifetime_scan(CFG, SIG, WRITE, READ, times, dt_ns=0.02)
    b = lifetime_scan(CFG, SIG, WRITE, READ, times[::-1], dt_ns=0.02)
    assert np.array_equal(a, b[::-1])


# ----------------------------------------------------------------- scans

def test_energy_scan_unimodal_with_optimum_at_02():
    energies = np.linspace(0.02, 1.0, 50)
    effs = energy_scan(CFG, SIG, WRITE, READ, energies, dt_ns=0.02)
    k = int(np.argmax(effs))
    assert energies[k] == pytest.approx(0.2, abs=np.diff(energies)[0])
    # exactly one interior local maximum on the dense grid
    d = np.sign(np.diff(effs))
    switches = np.sum((d[:-1] > 0) & (d[1:] < 0))
    assert switches == 1
    assert effs[0] < 0.3 * effs[k]


def test_energy_scan_zero_energy_zero_efficiency():
    effs = energy_scan(CFG, SIG, WRITE, READ, [0.0], dt_ns=0.02)
    assert effs[0] < 1e-5


def test_bandwidth_scan_plateau():
    fwhms = np.array([0.6, 1.0, 1.5, 3.0])
    effs = bandwidth_scan(CFG, SIG, WRITE, READ, fwhms, dt_ns=0.02)
    # efficiency at 1.5 ns sits within 5% of the 3 ns plateau
    assert abs(effs[2] / effs[3] - 1.0) <= 0.05
    # well below the cavity response time the efficiency falls off
    assert effs[0] < 0.8 * effs[3]
    # quasi-cw regime: successive differences shrink
    assert abs(effs[3] - effs[2]) < abs(effs[1] - effs[0])


def test_bandwidth_scan_batches_widths_without_changing_them():
    # the moving widths' refinement runs in one batch per round; each width
    # keeps its own centre and best, bit for bit
    fwhms = [0.6, 1.0, 1.5, 3.0]
    together = bandwidth_scan(CFG, SIG, WRITE, READ, fwhms, dt_ns=0.02)
    alone = [bandwidth_scan(CFG, SIG, WRITE, READ, [fw], dt_ns=0.02)[0]
             for fw in fwhms]
    assert together.tolist() == alone


def _every_width_every_round(fwhms, refine_rounds, write=WRITE):
    """The bandwidth scan that integrates every width in every round: its
    best per width and its centres after each round."""
    fwhms = np.asarray(fwhms, dtype=float)
    ratio = READ.energy / write.energy
    scales = np.array([0.4, 0.63, 0.8, 0.9, 1.0, 1.12, 1.25, 1.6, 2.5])
    centers = np.full(len(fwhms), write.energy)
    best = np.full(len(fwhms), -1.0)
    history = []
    signals = [replace(SIG, fwhm_ns=float(fw)) for fw in fwhms for _ in scales]
    for _ in range(refine_rounds):
        energies = (centers[:, None] * scales).ravel()
        writes = [replace(write, energy=float(e)) for e in energies]
        reads = [replace(READ, energy=float(e * ratio)) for e in energies]
        effs = batch_efficiency(CFG, signals, writes, reads, 0.0,
                                0.02).reshape(len(fwhms), len(scales))
        k = np.argmax(effs, axis=1)
        top = effs[np.arange(len(fwhms)), k]
        better = top > best
        best = np.where(better, top, best)
        centers = np.where(better, centers * scales[k], centers)
        history.append(centers)
    return best, history


@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
@pytest.mark.parametrize("write", [WRITE, replace(WRITE, energy=1)],
                         ids=["float_energy", "int_energy"])
def test_bandwidth_scan_equals_the_every_width_every_round_scan(rounds, write):
    # a width whose centre stayed put would integrate the same lanes again,
    # so skipping it moves no bit; an integer template energy (as a JSON
    # config may give) must not truncate the refined centres
    fwhms = [0.6, 1.0, 1.5, 3.0]
    best, _ = _every_width_every_round(fwhms, rounds, write)
    assert bandwidth_scan(CFG, SIG, write, READ, fwhms, dt_ns=0.02,
                          refine_rounds=rounds).tolist() == best.tolist()


@pytest.fixture
def lanes_per_call(monkeypatch):
    import cavmem.memory as memory
    calls = []
    integrate = memory.batch_efficiency

    def counted(config, signals, *rest):
        calls.append(len(signals))
        return integrate(config, signals, *rest)
    monkeypatch.setattr(memory, "batch_efficiency", counted)
    return calls


def test_settled_width_costs_one_batch(lanes_per_call):
    bandwidth_scan(CFG, SIG, WRITE, READ, [1.5], dt_ns=0.02)
    assert lanes_per_call == [9]


def test_each_round_integrates_the_widths_whose_centre_moved(lanes_per_call):
    fwhms = [0.6, 1.0, 1.5, 3.0]
    _, history = _every_width_every_round(fwhms, 4)
    bandwidth_scan(CFG, SIG, WRITE, READ, fwhms, dt_ns=0.02, refine_rounds=4)
    centres = [np.full(len(fwhms), WRITE.energy)] + history
    moved = [np.count_nonzero(after != before)
             for before, after in zip(centres, centres[1:])]
    # round 1 integrates every width, each later round the widths whose
    # centre moved in the round before, and none is left once none moved
    assert lanes_per_call == [9 * n for n in [len(fwhms)] + moved[:-1] if n]
    # the grid holds widths whose centre moves and one (1.5 ns) that stays put
    assert lanes_per_call[:2] == [36, 27]


def test_narrower_cavity_needs_longer_pulses():
    # oracle: monotonicity sweep; halving the cavity linewidth pushes the
    # 5%-saturation threshold to larger signal widths.  Compared on matched
    # loss-free configurations with resonant pulses so only the cavity
    # bandwidth differs.
    import cavmem.cavity as cav

    def saturation_threshold(cfg):
        fwhms = np.array([0.5, 0.8, 1.2, 1.8, 2.6, 3.6])
        effs = bandwidth_scan(cfg, SIG, WRITE, replace(READ, carrier_detuning_ghz=0.0),
                              fwhms, dt_ns=0.02, refine_rounds=2)
        plateau = np.max(effs)
        return fwhms[np.argmax(effs >= 0.95 * plateau)]

    base = CFG.lossless()
    narrow = replace(base, cavity=replace(base.cavity, r1=0.7753))
    assert cav.linewidth_ghz(narrow.cavity) == pytest.approx(
        0.5 * cav.linewidth_ghz(base.cavity), rel=0.02)
    assert saturation_threshold(narrow) > saturation_threshold(base)


def test_oscillation_suppression_values():
    ratio_169 = oscillation_suppression(169.0, CFG)
    ratio_250 = oscillation_suppression(250.0, CFG)
    assert 0.04 < ratio_169 < 0.2          # secondary line is weak
    factor = ratio_169 / ratio_250
    assert 5.0 <= factor <= 20.0


def test_suppression_wide_excitation_limit():
    # an arbitrarily short excitation pulse has flat spectrum: only the cavity
    # response weights the companions, and the dominant weighted companion
    # sets the ratio
    import cavmem.cavity as cav
    from cavmem.atomic import group_two_photon_lines, two_photon_lines
    pos, strength, _ = group_two_photon_lines(two_photon_lines(
        169.0, "sigma-", "sigma-", total_window_ghz=(-30.0, 10.0)))
    main = int(np.argmax(strength))
    kappa = cav.linewidth_ghz(CFG.cavity)
    expected = max(
        (strength[k] / strength[main]) / (1 + (2 * abs(pos[k] - pos[main]) / kappa) ** 2)
        for k in range(len(pos)) if k != main and abs(pos[k] - pos[main]) < 3.0)
    cfg_wide = replace(CFG, excitation_fwhm_ns=1e-6)
    assert oscillation_suppression(169.0, cfg_wide) == pytest.approx(
        expected, rel=1e-6)


# ------------------------------------------------------------ validation

def test_pulse_validation():
    with pytest.raises(DomainError):
        PulseShape(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        PulseShape(0.0, 1.0, -1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        MemoryConfig(cooperativity=-1.0)
    with pytest.raises(DomainError):
        MemoryConfig(insertion_loss=1.5)


@pytest.mark.parametrize("make", [
    lambda v: replace(CFG, cooperativity=v),
    lambda v: replace(CFG, spin_fwhm_mhz=v),
    lambda v: replace(CFG, insertion_loss=v),
    lambda v: replace(CFG, cavity=replace(CFG.cavity, mode_offset_signal_ghz=v)),
    lambda v: replace(SIG, center_ns=v),
    lambda v: replace(WRITE, energy=v),
    lambda v: replace(READ, carrier_detuning_ghz=v),
], ids=["cooperativity", "spin-width", "insertion-loss", "cavity-offset",
        "signal-center", "write-energy", "read-carrier"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(make, value):
    # once, a NaN cooperativity or signal centre reported an efficiency of 0
    with pytest.raises(DomainError, match="must be finite"):
        make(value)


def _holds_by_the_abc_rule(value, kind, optional):
    """The field rule read through the numbers ABCs alone."""
    if value is None:
        return optional
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) and (kind is not numbers.Real or math.isfinite(value))


def test_field_rule_verdicts_equal_the_abc_rule():
    # every kind of field, both optional values, and each value type that
    # a config or a GA vector hands in, finite or not
    values = [0.5, -2.0, np.float64(0.5), np.float32(0.5), 3, np.int64(3), True,
              np.bool_(True), None]
    for bad in (math.nan, math.inf, -math.inf):
        values += [bad, np.float64(bad), np.float32(bad)]
    kinds = {kind for kind, _, _ in _KINDS.values()}
    assert kinds == {numbers.Real, numbers.Integral, bool}
    for value in values:
        for kind in kinds:
            for optional in (False, True):
                assert _holds(value, kind, optional) \
                    == _holds_by_the_abc_rule(value, kind, optional), (value, kind, optional)


def test_line_amplitudes_both_zero_refused():
    # the decay law reads 0 for them at every storage time, which no
    # normalized beat kernel reproduces; one line alone is a decay law
    with pytest.raises(DomainError, match="not both zero"):
        MemoryConfig(line_amp_main=0.0, line_amp_beat=0.0)
    assert MemoryConfig(line_amp_main=0.0).line_amp_beat > 0


# ------------------------------------------------- simulator properties

_SPACE_BOUNDS = ParameterSpace().bounds


@settings(max_examples=15)
@given(st.tuples(*(st.floats(lo, hi) for lo, hi, _ in
                   (_SPACE_BOUNDS[n] for n in PARAMETER_NAMES))))
def test_random_ga_settings_passive_closed_and_linear(vector):
    # any GA vector inside the default bounds: the memory emits no more than
    # it receives, every input photon is booked, and counts scale with the
    # signal energy (lanes n and 3n integrate side by side)
    sig, write, read = _pulses_from_vector(np.array(vector))
    assume(not pulses_overlap(write, read))
    sig3 = replace(sig, energy=3 * sig.energy)
    main = simulate_batch(CFG, [sig, sig3], [write] * 2, [read] * 2, 0.0, 0.02)
    n_in = main["input_photons"]
    assert np.all(main["leak_counts"] + main["retrieved_counts"] <= n_in)
    assert np.all(main["reference_counts"] <= n_in)
    assert np.all(_closure(main) <= 1e-4)
    for counts in (main[k] for k in (*CHANNELS, "reference_counts")):
        assert counts[1] / 3 == pytest.approx(counts[0], abs=1e-9 * sig.energy)


@settings(max_examples=15)
@given(st.tuples(*(st.floats(lo, hi) for lo, hi, _ in
                   (_SPACE_BOUNDS[n] for n in PARAMETER_NAMES))))
def test_random_ga_settings_store_equals_its_lane_schedule(vector):
    # wherever a GA vector puts t_mid, the jump and the chirp, the store's
    # time blocks join to its lane's results within a few ulps, and its
    # closed-form reference flux integrates to its reference counts (over
    # 40 seeded vectors within 5.7e-14)
    sig, write, read = _pulses_from_vector(np.array(vector))
    assume(not pulses_overlap(write, read))
    store = simulate_storage_retrieval(CFG, sig, write, read, dt_ns=0.02)
    lane = simulate_batch(CFG, [sig], [write], [read], 0.0, 0.02, keep_flux=True)
    for key, value in _store_channels(store).items():
        assert value == pytest.approx(lane[key][0], rel=1e-12,
                                      abs=1e-15 * sig.energy), key
    assert store.integrator["closure_residual"] == pytest.approx(
        lane["closure_residual"][0], rel=0.0, abs=1e-14)
    scale = np.max(lane["out_flux"][:, 0])
    assert np.max(np.abs(store.output_flux - lane["out_flux"][:, 0])) <= 1e-12 * scale
    assert np.trapezoid(store.reference_flux, store.time_grid_ns) == pytest.approx(
        store.reference_counts, rel=1e-12)
