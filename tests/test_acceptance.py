"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion gathers its clause checks, prints a single summary line, and
asserts that every clause held.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they print.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cavmem import atomic, cavity, fitting, memory, optimize, vapour
from cavmem.atomic import criterion_5_lines
from cavmem.config import ExperimentConfig

TWO_PI = 2 * math.pi

EC = ExperimentConfig()
MEM = EC.memory_config()
CAV = EC.cavity_params()
VAP = EC.vapour_params()
SIG, WRITE, READ = (EC.pulse(n) for n in ("signal", "write", "read"))


class Checker:
    def __init__(self, label):
        self.label = label
        self.results = []

    def check(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    def finish(self):
        failed = [r for r in self.results if not r[1]]
        status = "PASS" if not failed else "FAIL"
        parts = "; ".join(f"{name}={'ok' if ok else 'FAIL'}"
                          + (f" ({detail})" if detail else "")
                          for name, ok, detail in self.results)
        print(f"[{status}] {self.label}: {parts}")
        assert not failed, f"{self.label}: {failed}"


def test_criterion_1_cavity_metrology():
    c = Checker("criterion 1 cavity metrology")
    f = cavity.finesse(CAV)
    k = cavity.linewidth_ghz(CAV)
    loss_db = 10 * math.log10(1.0 - cavity.insertion_loss(CAV))
    c.check("finesse", abs(f - 9.5) <= 0.7, f"{f:.3f}")
    c.check("linewidth", abs(k - 0.88) <= 0.06, f"{k:.4f} GHz")
    c.check("insertion", abs(loss_db - (-5.0)) <= 0.6, f"{loss_db:.2f} dB")
    c.finish()


def test_criterion_2_fit_recovery():
    c = Checker("criterion 2 fit recovery")
    rng = np.random.default_rng(101)

    x = np.linspace(-12, 12, 1200)
    y = cavity.reflection_response(CAV, x).reflected_power \
        + rng.normal(0, 0.01, len(x))
    fit = fitting.fit_cavity_reflection(x, y)
    c.check("fsr", abs(fit["fsr_ghz"] - 8.3) <= 0.2, f"{fit['fsr_ghz']:.3f}")
    c.check("zeta_rt", abs(fit["zeta_rt"] - 0.135) <= 0.015,
            f"{100 * fit['zeta_rt']:.2f}%")

    x = np.linspace(-9, 0, 400)
    y = vapour.one_photon_spectrum(VAP, 169.0, "sigma-", x) \
        + rng.normal(0, 0.01, len(x))
    fit = fitting.fit_doppler_absorption(x, y)
    c.check("b_field", abs(fit["b_mt"] - 169.0) <= 3.0, f"{fit['b_mt']:.2f} mT")

    t = np.arange(5, 100, 0.5)
    eta = memory.lifetime_model(t) * (1 + rng.normal(0, 0.02, len(t)))
    fit = fitting.fit_lifetime(t, eta)
    c.check("nu_prime", abs(fit["nu_prime_ghz"] * 1e3 - 12.6) <= 0.5,
            f"{fit['nu_prime_ghz'] * 1e3:.2f} MHz")
    c.check("omega", abs(fit["omega_rad_ns"] - TWO_PI * 0.171) <= TWO_PI * 2e-3,
            f"2pi x {fit['omega_rad_ns'] / TWO_PI * 1e3:.1f} MHz")
    c.check("amp_main", abs(fit["amp_main"] - 0.51) <= 0.04,
            f"{fit['amp_main']:.3f}")
    c.check("amp_beat", abs(fit["amp_beat"] - 0.038) <= 0.003,
            f"{fit['amp_beat']:.4f}")

    x = np.linspace(-60, 60, 500)
    y = 1 - 0.55 * np.exp(-4 * math.log(2) * x ** 2 / 11.8 ** 2) \
        + rng.normal(0, 0.01, len(x))
    fit = fitting.fit_gaussian_line(x, y)
    c.check("line_fwhm", abs(fit["fwhm"] - 11.8) <= 2.4, f"{fit['fwhm']:.2f} MHz")
    c.finish()


def test_criterion_3_decay_model():
    c = Checker("criterion 3 decay model")
    eta0 = memory.lifetime_model(0.0)
    c.check("eta_zero", abs(eta0 - 0.30) <= 0.03, f"{eta0:.4f}")

    # bisection oracle on the beat-free envelope
    gamma, nu = TWO_PI * 0.66e-3, 0.0126
    lo, hi = 0.0, 500.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-gamma * mid - math.pi ** 2 * nu ** 2 * mid ** 2
                    / (4 * math.log(2))) > 1 / math.e:
            lo = mid
        else:
            hi = mid
    t_e = 0.5 * (lo + hi)
    c.check("one_over_e", abs(t_e - 39.0) <= 1.0, f"{t_e:.2f} ns")
    c.check("closed_form", abs(memory.one_over_e_lifetime_ns() - t_e) < 1e-6)

    times = np.arange(8.0, 104.0, 0.5)
    effs = memory.lifetime_scan(MEM, SIG, WRITE, READ, times, dt_ns=0.02)
    coeff = np.polyfit(times, np.log(effs), 4)
    detrended = effs - np.exp(np.polyval(coeff, times))
    n_pad = 8 * len(times)
    spec = np.abs(np.fft.rfft(detrended * np.hanning(len(detrended)), n=n_pad))
    freqs = np.fft.rfftfreq(n_pad, 0.5)
    ks = np.flatnonzero(freqs > 0.05)
    k = ks[int(np.argmax(spec[ks]))]
    y0, y1, y2 = spec[k - 1:k + 2]
    f_peak = freqs[k] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (freqs[1] - freqs[0])
    period = 1.0 / f_peak
    c.check("beat_period", abs(period - 5.85) <= 0.1, f"{period:.3f} ns")
    c.finish()


def test_criterion_4_residual_doppler():
    c = Checker("criterion 4 residual doppler")
    tau = vapour.residual_doppler_lifetime_ns(85.0, 780.2, 776.0, "counter")
    c.check("counter", 100.0 <= tau <= 140.0, f"{tau:.1f} ns")
    tau_co = vapour.residual_doppler_lifetime_ns(85.0, 780.2, 776.0, "co")
    k_s, k_c = 1 / 780.2, 1 / 776.0
    expected = (k_s + k_c) / abs(k_s - k_c)
    c.check("co_ratio", abs(tau / tau_co / expected - 1) < 0.01,
            f"ratio {tau / tau_co:.2f} vs {expected:.2f}")
    c.finish()


def test_criterion_5_zeeman_structure():
    c = Checker("criterion 5 zeeman structure")
    n_near, sep_mhz = criterion_5_lines()
    c.check("two_strong_lines", n_near == 2, f"{n_near} lines")
    c.check("separation", abs(sep_mhz - 175.0) <= 15.0, f"{sep_mhz:.1f} MHz")

    worst = 0.0
    for man in atomic.all_manifolds():
        evals = np.sort(np.linalg.eigvalsh(atomic.build_hamiltonian(man, 0.0)))
        expected = []
        f = abs(man.j - man.i)
        while f <= man.j + man.i + 1e-9:
            k = f * (f + 1) - man.i * (man.i + 1) - man.j * (man.j + 1)
            e = 0.5 * man.a_hfs_mhz * k
            if man.b_hfs_mhz:
                e += man.b_hfs_mhz * (1.5 * k * (k + 1)
                                      - 2 * man.i * (man.i + 1) * man.j * (man.j + 1)) \
                    / (4 * man.i * (2 * man.i - 1) * man.j * (2 * man.j - 1))
            expected.extend([e] * int(round(2 * f + 1)))
            f += 1
        worst = max(worst, float(np.max(np.abs(evals - np.sort(expected)))))
    c.check("zero_field_hyperfine", worst < 1e-6, f"max dev {worst:.2e} MHz")

    s12, p32, _ = atomic.all_manifolds()
    sums = {b: atomic.dipole_strength_sums(s12, p32, b)
            for b in (0.0, 50.0, 169.0, 250.0)}
    dev = max(float(np.max(np.abs(sums[b] - sums[0.0]))) for b in sums)
    c.check("sum_rule", dev < 1e-9, f"max dev {dev:.2e}")
    c.finish()


def test_criterion_6_memory_dynamics():
    c = Checker("criterion 6 memory dynamics")
    lossless = MEM.lossless()
    opt_write = memory.PulseShape(0.085, 1.565, (3.515 / 8.4736) ** 2)
    opt_read = memory.PulseShape(12.585, 2.73, (11.29 / 8.4736) ** 2)
    opt_sig = memory.PulseShape(0.0, 1.5, 1.0)
    res = memory.simulate_storage_retrieval(lossless, opt_sig, opt_write, opt_read)
    c.check("internal_eff", res.internal_efficiency >= 0.80,
            f"{res.internal_efficiency:.4f}")

    res_op = memory.simulate_storage_retrieval(MEM, SIG, WRITE, READ)
    c.check("total_eff", abs(res_op.total_efficiency - 0.27) <= 0.04,
            f"{res_op.total_efficiency:.4f}")

    res_a = memory.simulate_storage_retrieval(MEM, replace(SIG, energy=0.4),
                                              WRITE, READ)
    res_b = memory.simulate_storage_retrieval(MEM, replace(SIG, energy=1.6),
                                              WRITE, READ)
    lin_dev = abs(res_b.retrieved_counts / (4 * res_a.retrieved_counts) - 1)
    c.check("linearity", lin_dev < 1e-9, f"dev {lin_dev:.1e}")
    c.check("internal_le_1", res.internal_efficiency <= 1.0)

    neutral = replace(MEM, dephasing_width_mhz=0.0, line_amp_beat=0.0)
    res_n = memory.simulate_storage_retrieval(neutral, SIG, WRITE, READ)
    closure = abs(res_n.integrator["closure_residual"])
    c.check("passivity", closure < 1e-4, f"closure {closure:.1e}")

    res_half = memory.simulate_storage_retrieval(MEM, SIG, WRITE, READ,
                                                 dt_ns=0.005)
    conv = abs(res_half.internal_efficiency - res_op.internal_efficiency)
    c.check("convergence", conv < 1e-4, f"dt-halving change {conv:.1e}")

    effs = []
    for coop in (10.0, 100.0, 1000.0, 3800.0):
        cfg = replace(MEM, cooperativity=coop).lossless()
        best = 0.0
        for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
            r = memory.simulate_storage_retrieval(
                cfg, opt_sig, replace(opt_write, energy=opt_write.energy * scale),
                replace(opt_read, energy=opt_read.energy * scale), dt_ns=0.02)
            best = max(best, r.internal_efficiency)
        effs.append(best)
    c.check("monotone_in_C", all(b2 >= a - 1e-6 for a, b2 in zip(effs, effs[1:])),
            " -> ".join(f"{e:.3f}" for e in effs))
    c.finish()


def test_criterion_7_scans():
    c = Checker("criterion 7 scans")
    energies = np.arange(0.10, 0.36, 0.01)
    effs = memory.energy_scan(MEM, SIG, WRITE, READ, energies, dt_ns=0.01)
    k = int(np.argmax(effs))
    c.check("energy_optimum", abs(energies[k] - 0.2) <= 0.011,
            f"{energies[k]:.3f} nJ")
    wide = memory.energy_scan(MEM, SIG, WRITE, READ,
                              np.linspace(0.02, 1.0, 50), dt_ns=0.02)
    d = np.sign(np.diff(wide))
    switches = int(np.sum((d[:-1] > 0) & (d[1:] < 0)))
    c.check("unimodal", switches == 1, f"{switches} interior maxima")

    fwhms = np.array([1.5, 3.0])
    band = memory.bandwidth_scan(MEM, SIG, WRITE, READ, fwhms, dt_ns=0.02)
    c.check("bandwidth_plateau", abs(band[0] / band[1] - 1.0) <= 0.05,
            f"eff(1.5)={band[0]:.4f} vs eff(3.0)={band[1]:.4f}")

    c.check("cooperativity", cavity.cooperativity(200.0, 9.5) == 3800.0)
    c.finish()


def test_criterion_8_optimizer():
    c = Checker("criterion 8 optimizer")
    space = EC.parameter_space()
    fixed = {
        "read_write_ratio": 5.0, "signal_delay_ns": -0.1,
        "signal_fwhm_ns": 1.5, "write_fwhm_ns": 1.6,
        "write_read_delay_ns": 12.5, "read_fwhm_ns": 2.7,
    }
    scan = {
        "write_energy_nj": np.linspace(0.02, 1.0, 50),
        "two_photon_detuning_ghz": np.linspace(-0.4, 0.4, 50),
    }
    _, grid_best, _ = optimize.grid_search(space, MEM, scan, fixed)

    slice_space = space.restrict(**fixed)
    settings = EC.ga_settings()  # population 24, 60 generations
    trace = optimize.run_ga(slice_space, MEM, optimize.DriftModel(enabled=False),
                            settings, seed=EC.seed)
    ga_best = trace.best["objective"]
    c.check("ga_vs_grid", ga_best >= 0.99 * grid_best,
            f"GA {ga_best:.4f} vs grid {grid_best:.4f}")

    drift_trace = optimize.run_ga(space, MEM, EC.drift_model(enabled=True),
                                  settings, seed=EC.seed)
    objs = np.array([r["objective"] for r in drift_trace.iterations])
    peak = int(np.argmax(objs))
    peak_window = objs[max(0, peak - 5):peak + 5].mean()
    late_window = objs[-10:].mean()
    c.check("rise_then_fall", peak < len(objs) - 10 and late_window < peak_window,
            f"peak at {peak}, late {late_window:.3f} < peak {peak_window:.3f}")

    repeat = optimize.run_ga(space, MEM, EC.drift_model(enabled=True),
                             settings, seed=EC.seed)
    c.check("bitwise_reproducible", repeat.iterations == drift_trace.iterations)
    c.finish()


def test_criterion_9_oscillation_suppression():
    c = Checker("criterion 9 oscillation suppression")
    r169 = memory.oscillation_suppression(169.0, MEM)
    r250 = memory.oscillation_suppression(250.0, MEM)
    factor = r169 / r250
    c.check("suppression", 5.0 <= factor <= 20.0,
            f"{r169:.4f} -> {r250:.4f}, factor {factor:.1f}")
    c.finish()
