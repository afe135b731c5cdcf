"""Reference values the benchmark checks program outputs against.

Every function here is written from the physics, not from the package: closed
forms and sum rules that the program's numerical paths (eigensolves, RK4
integration, least squares) must reproduce.  Inputs are plain numbers taken
from the configuration and the constants file.  Only numpy is used.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2 * math.pi
LN2 = math.log(2)
KB = 1.380649e-23
AMU = 1.66053906892e-27


def breit_rabi_j_half(a_mhz, g_j, g_i, nuclear_spin, mu_b, b_mt):
    """All (2I+1)*2 energies (MHz) of a J = 1/2 term at field b_mt, sorted.

    Breit-Rabi formula with H = A I.J + mu_B B (g_J m_J + g_I m_I); the two
    stretched states m = +-(I + 1/2) take the branch that stays linear in B.
    """
    i = nuclear_spin
    de = a_mhz * (i + 0.5)
    x = (g_j - g_i) * mu_b * b_mt / de
    base = -de / (2 * (2 * i + 1))
    out = []
    m_top = i + 0.5
    for k in range(int(round(2 * m_top)) + 1):
        m = -m_top + k
        lin = base + g_i * mu_b * m * b_mt
        if abs(abs(m) - m_top) < 1e-9:
            out.append(lin + 0.5 * de * (1 + math.copysign(1.0, m) * x))
        else:
            root = math.sqrt(1 + 4 * m * x / (2 * i + 1) + x * x)
            out.append(lin + 0.5 * de * root)
            out.append(lin - 0.5 * de * root)
    return np.sort(np.array(out))


def zero_field_hyperfine(j, nuclear_spin, a_mhz, b_mhz):
    """Zero-field hyperfine energies (MHz), each repeated 2F+1 times, sorted."""
    i = nuclear_spin
    out = []
    f = abs(j - i)
    while f <= j + i + 1e-9:
        k = f * (f + 1) - i * (i + 1) - j * (j + 1)
        e = a_mhz * k / 2
        if b_mhz != 0.0 and j > 0.5 and i > 0.5:
            e += b_mhz * (1.5 * k * (k + 1) - 2 * i * (i + 1) * j * (j + 1)) \
                / (4 * i * (2 * i - 1) * j * (2 * j - 1))
        out.extend([e] * int(round(2 * f + 1)))
        f += 1
    return np.sort(np.array(out))


def dipole_sum_rule(j_lower, j_upper):
    """Sum of |<j' m'|j m; 1 q>|^2 over q and m' for any lower state."""
    return (2 * j_upper + 1) / (2 * j_lower + 1)


def airy_reflectance(r1, r2, zeta_rt, fsr_ghz, detunings_ghz):
    """Reflected power of a two-mirror cavity from its multiple-beam sum."""
    d = np.asarray(detunings_ghz, dtype=float)
    phase = np.exp(1j * TWO_PI * d / fsr_ghz)
    r = math.sqrt(r1) - (1 - r1) * math.sqrt(r2 * (1 - zeta_rt)) * phase \
        / (1 - math.sqrt(r1 * r2 * (1 - zeta_rt)) * phase)
    return np.abs(r) ** 2


def buildup(r1, r2, zeta_rt, fsr_ghz, detunings_ghz):
    """Circulating over incident power, (1 - R1) / |1 - r_rt e^{i phi}|^2."""
    d = np.asarray(detunings_ghz, dtype=float)
    loop = math.sqrt(r1 * r2 * (1 - zeta_rt)) * np.exp(1j * TWO_PI * d / fsr_ghz)
    return (1 - r1) / np.abs(1 - loop) ** 2


def reference_counts_per_photon(kappa, kappa_ext, delta_c, g, gamma_p, delta_p,
                                signal_fwhm_ns):
    """Control-off output counts per input photon, in closed form.

    With the control off the cavity field a and the polarization P form a
    linear time-invariant filter, so the reflected photon number is
    int |r(w)|^2 w(w) dw with r(w) = k_ext / ((-iw - c_a) + g^2/(-iw - c_p)) - 1
    and w the normalized power spectrum of the Gaussian input amplitude.
    Rates are angular (rad/ns); the flux FWHM is in ns.
    """
    sigma = signal_fwhm_ns / (2 * math.sqrt(2 * LN2))
    w = np.linspace(-12.0 / sigma, 12.0 / sigma, 200_001)
    weight = math.sqrt(2 * sigma ** 2 / math.pi) * np.exp(-2 * sigma ** 2 * w ** 2)
    c_a = -(kappa / 2 + 1j * delta_c)
    c_p = -(gamma_p / 2 + 1j * delta_p)
    s = -1j * w
    r = kappa_ext / ((s - c_a) + g ** 2 / (s - c_p)) - 1.0
    f = np.abs(r) ** 2 * weight
    return float(np.sum(0.5 * (f[1:] + f[:-1])) * (w[1] - w[0]))


def decay_law(tau_ns, gamma_m, nu_prime_ghz, amp_main, amp_beat, omega):
    """e^{-gm t} e^{-pi^2 nu'^2 t^2 / (4 ln2)} |A + B e^{i w t}|^2."""
    t = np.asarray(tau_ns, dtype=float)
    env = np.exp(-gamma_m * t - math.pi ** 2 * nu_prime_ghz ** 2 * t ** 2 / (4 * LN2))
    return env * np.abs(amp_main + amp_beat * np.exp(1j * omega * t)) ** 2


def two_photon_fwhm_mhz(temperature_c, mass_amu, lambda_s_nm, lambda_c_nm,
                        natural_mhz, inhomogeneity_mhz):
    """Counter-propagating line width: residual Doppler, natural and field
    inhomogeneity widths added in quadrature."""
    sigma_v = math.sqrt(KB * (temperature_c + 273.15) / (mass_amu * AMU))
    dk = abs(TWO_PI / (lambda_s_nm * 1e-9) - TWO_PI / (lambda_c_nm * 1e-9))
    residual = dk * sigma_v * math.sqrt(8 * LN2) / TWO_PI / 1e6
    return math.sqrt(residual ** 2 + natural_mhz ** 2 + inhomogeneity_mhz ** 2)


def gaussian_dip(x, center, fwhm, depth, offset):
    x = np.asarray(x, dtype=float)
    return offset - depth * np.exp(-4 * LN2 * (x - center) ** 2 / fwhm ** 2)
