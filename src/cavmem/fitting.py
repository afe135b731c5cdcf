"""Nonlinear least squares and the four concrete fit models of the toolkit.

The engine is a damped Gauss-Newton (Levenberg-Marquardt style) minimizer of
sum (y_i - model(x_i; theta))^2 with central-difference numeric Jacobians and
box constraints by step clipping; a parameter that the descent would push
past its bound is held there, out of the solve.  Every fit runs in a box: an
unbounded one in the infinite box (-inf, inf).  Deterministic given its
inputs; accepted iterations never increase the residual norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cavity, memory, vapour
from .constants import AtomConstants
from .errors import DomainError

__all__ = [
    "FitResult", "least_squares", "fit_cavity_reflection",
    "fit_doppler_absorption", "fit_lifetime", "fit_gaussian_line",
]

MAX_ITERATIONS = 500
PARAM_TOL = 1e-8
GRAD_TOL = 1e-10
JACOBIAN_REL_STEP = 1e-6
# the operating point's spin decay rate (rad/ns), held fixed by the lifetime fit
_GAMMA_M = memory.MemoryConfig().gamma_m


@dataclass
class FitResult:
    parameters: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    flags: list[str] = field(default_factory=list)

    def __getitem__(self, name: str) -> float:
        return self.parameters[name]


def _numeric_jacobian(model, x, theta, bounds):
    n = len(theta)
    jac = np.empty((len(x), n))
    for k in range(n):
        step = JACOBIAN_REL_STEP * max(abs(theta[k]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        # keep the stencil inside the box (one-sided at an active bound)
        tp[k] = min(tp[k] + step, bounds[1][k])
        tm[k] = max(tm[k] - step, bounds[0][k])
        denom = tp[k] - tm[k]
        if denom == 0.0:
            jac[:, k] = 0.0
            continue
        jac[:, k] = (model(x, tp) - model(x, tm)) / denom
    return jac


def _free(theta, grad, bounds):
    """The mask of the parameters free to step.

    A parameter on a bound is held there while the descent direction, the
    gradient J^T r of -cost / 2, points out of the box: a step for it
    would be clipped back, and the others would take the step solved as if
    it had moved.
    """
    lo, hi = bounds
    return ~(((theta <= lo) & (grad < 0)) | ((theta >= hi) & (grad > 0)))


def least_squares(model, x, y, initial, bounds=None, names=None) -> FitResult:
    """Minimize sum (y - model(x, theta))^2 from `initial`.

    model(x_array, theta_array) -> y_array must be vectorized over x.
    bounds is (lower_array, upper_array), and None is the infinite box
    (-inf, inf); trial steps are clipped into the box, a parameter on a
    bound that the descent points past is held there (see _free), and each
    parameter that ends on its lower or upper bound is flagged
    `at_bound:<name>`.  `names` labels the parameters in the result.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(initial, dtype=float).copy()
    if len(x) <= len(theta):
        raise DomainError("need more data points than parameters")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))
            and np.all(np.isfinite(theta))):
        raise DomainError("data and initial parameters must be finite")
    lo, hi = bounds = tuple(np.broadcast_to(np.asarray(b, dtype=float), theta.shape)
                            for b in (bounds or (-np.inf, np.inf)))
    if np.any(theta < lo) or np.any(theta > hi):
        raise DomainError("initial point violates the bounds")
    names = names or [f"p{k}" for k in range(len(theta))]

    flags: list[str] = []
    resid = y - model(x, theta)
    cost = float(resid @ resid)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        jac = _numeric_jacobian(model, x, theta, bounds)
        grad = jac.T @ resid
        free = _free(theta, grad, bounds)
        # the held parameters leave the solve and the gradient test
        grad, jtj = grad[free], (jac.T @ jac)[free][:, free]
        if np.linalg.norm(grad) < GRAD_TOL:
            converged = True
            break
        stepped = False
        for _ in range(25):
            step = np.zeros_like(theta)      # a held parameter keeps its value
            # the damping keeps every pivot of a finite jtj nonzero, and a
            # NaN column of J makes its whole row and column NaN, which
            # solve returns as a NaN step that the cost test refuses
            step[free] = np.linalg.solve(
                jtj + lam * np.diag(np.diag(jtj) + 1e-300), grad)
            trial = np.clip(theta + step, lo, hi)
            r_trial = y - model(x, trial)
            c_trial = float(r_trial @ r_trial)
            if np.isfinite(c_trial) and c_trial <= cost:
                rel_change = np.max(np.abs(trial - theta) / np.maximum(np.abs(theta), 1.0))
                theta, resid, cost = trial, r_trial, c_trial
                lam = max(lam / 4, 1e-12)
                stepped = True
                if rel_change < PARAM_TOL:
                    converged = True
                break
            lam *= 8
        if converged:
            break
        if not stepped:
            converged = True  # no downhill direction left at damping limit
            break

    if not math.isfinite(cost):
        flags.append("non_finite_cost")
        converged = False
    dof = max(len(x) - len(theta), 1)
    jac = _numeric_jacobian(model, x, theta, bounds)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj) * cost / dof
        sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        flags.append("singular_jacobian")
        sigma = np.full(len(theta), math.inf)
    # a parameter held by its bound is not a free minimum, converged or not
    flags += [f"at_bound:{name}" for name, value, low, high
              in zip(names, theta, lo, hi) if not low < value < high]
    return FitResult(
        parameters=dict(zip(names, theta.tolist())),
        uncertainties=dict(zip(names, sigma.tolist())),
        residual_norm=cost,
        converged=converged,
        iterations=it,
        flags=flags,
    )


def _samples(x_data, y_data):
    """The samples as float arrays in ascending order of x, which the
    initial-guess heuristics assume; a stable sort, so ascending data keeps
    its bits.  Refuses x and y of different lengths, and data with fewer
    than two distinct x values."""
    x = np.asarray(x_data, dtype=float)
    y = np.asarray(y_data, dtype=float)
    if x.shape != y.shape:
        raise DomainError(f"fit data hold {x.shape} x and {y.shape} y values")
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    if not np.any(x[1:] > x[:-1]):
        raise DomainError("fit data need at least two distinct x values")
    return x, y


def _scale(y):
    """The scale of the data, max(1, max |y|): the box of each parameter that
    carries the data's scale follows it, and data at unit scale keep the
    fixed box."""
    return max(1.0, float(np.max(np.abs(y))))


# ------------------------------------------------------------ cavity fit

def fit_cavity_reflection(detunings_ghz, reflected_power,
                          r1: float = cavity.CavityParams.r1,
                          r2: float = cavity.CavityParams.r2) -> FitResult:
    """Recover (fsr, round-trip loss, amplitude, offset) from a reflection scan.

    Mirror reflectivities are held fixed.  The fsr initial guess comes from
    the autocorrelation peak spacing of the inverted trace, averaged over
    each detuning that the scan repeats.
    """
    x, y = _samples(detunings_ghz, reflected_power)

    # documented heuristic: dip spacing from the first secondary peak of the
    # autocorrelation of the inverted, mean-subtracted trace, read on y
    # averaged over each distinct x, whose lag a sample spacing measures
    # (a repeated x would count as a spacing of 0); distinct x keep their bits
    xs, at, repeats = np.unique(x, return_inverse=True, return_counts=True)
    trace = np.bincount(at, weights=y) / repeats
    sig = (trace.max() - trace) - np.mean(trace.max() - trace)
    ac = np.correlate(sig, sig, mode="full")[len(sig) - 1:]
    dx = float(np.median(np.diff(xs)))
    negative = np.flatnonzero(ac < 0)
    if len(negative) == 0:
        raise DomainError("data must span at least one free spectral range")
    start = int(negative[0])
    k = start + int(np.argmax(ac[start:]))
    interior = start < k < len(ac) - 1
    if not interior or ac[k] <= 0:
        raise DomainError("data must span at least one free spectral range")
    fsr0 = k * dx

    def model(xx, th):
        fsr, zeta, amp, off = th
        params = cavity.CavityParams(r1=r1, r2=r2, zeta_rt=zeta, fsr_ghz=fsr)
        return amp * cavity.reflection_response(params, xx).reflected_power + off

    s = _scale(y)
    init = np.array([fsr0, 0.10, 1.0 * s, 0.0])
    # the amplitude's floor follows the data's range, at most 0.2 s, so a
    # shallow dip on a high level fits; the offset's box spans that range
    # widened by s, so it holds 0
    lo, hi = float(y.min()), float(y.max())
    bounds = (np.array([0.3 * fsr0, 0.0, 0.1 * (hi - lo), lo - s]),
              np.array([3.0 * fsr0, 0.9, 10.0 * s, hi + s]))
    return least_squares(model, x, y, init, bounds,
                         names=["fsr_ghz", "zeta_rt", "amplitude", "offset"])


def derived_cavity_metrics(fit: FitResult, r1: float = cavity.CavityParams.r1,
                           r2: float = cavity.CavityParams.r2) -> dict[str, float]:
    params = cavity.CavityParams(r1=r1, r2=r2, zeta_rt=fit["zeta_rt"],
                                 fsr_ghz=fit["fsr_ghz"])
    return {
        "finesse": cavity.finesse(params),
        "linewidth_ghz": cavity.linewidth_ghz(params),
        "insertion_loss": cavity.insertion_loss(params),
    }


# ----------------------------------------------------------- doppler fit

def fit_doppler_absorption(detunings_ghz, transmission,
                           temperature_c: float = vapour.VapourParams.temperature_c,
                           polarization: str = "sigma-",
                           constants: AtomConstants | None = None) -> FitResult:
    """Recover (B field, frequency offset, optical depth) from a probe scan.

    Doppler width and relative line strengths are fixed by the level theory
    of `constants` (the bundled file when None); the initial field comes
    from a deterministic coarse scan.
    """
    x, y = _samples(detunings_ghz, transmission)

    def model(xx, th):
        b, off, depth = th
        vap = vapour.VapourParams(temperature_c=temperature_c, optical_depth=depth)
        return vapour.one_photon_spectrum(vap, b, polarization, xx - off,
                                          constants=constants)

    # coarse deterministic initialization over the plausible field range
    best = None
    for b0 in np.arange(40.0, 320.0, 20.0):
        r = y - model(x, np.array([b0, 0.0, 200.0]))
        c = float(r @ r)
        if best is None or c < best[1]:
            best = (b0, c)
    init = np.array([best[0], 0.0, 200.0])
    bounds = (np.array([5.0, -5.0, 1.0]), np.array([500.0, 5.0, 2000.0]))
    return least_squares(model, x, y, init, bounds,
                         names=["b_mt", "offset_ghz", "optical_depth"])


# ---------------------------------------------------------- lifetime fit

def fit_lifetime(times_ns, efficiencies,
                 gamma_m_rad_ns: float = _GAMMA_M) -> FitResult:
    """Recover the dephasing width, beat frequency and line amplitudes.

    The spin decay rate is held fixed.  The beat frequency initial guess is
    the FFT peak of the detrended curve; an unresolved beat (no significant
    FFT peak) is flagged and the frequency reported as unidentifiable.
    """
    t, y = _samples(times_ns, efficiencies)
    if t.max() - t.min() < 2.0:
        raise DomainError("lifetime data must span multiple oscillation periods")

    # FFT heuristic for the beat frequency, on the spacing of the distinct
    # times
    dt = np.median(np.diff(np.unique(t)))
    grid = np.arange(t.min(), t.max(), dt)
    yg = np.interp(grid, t, y)
    envelope = np.poly1d(np.polyfit(grid, np.log(np.maximum(yg, 1e-12)), 2))
    detrended = yg - np.exp(envelope(grid))
    spec = np.abs(np.fft.rfft(detrended * np.hanning(len(detrended))))
    freqs = np.fft.rfftfreq(len(grid), dt)  # GHz
    k = 1 + int(np.argmax(spec[1:]))
    omega0 = 2 * math.pi * freqs[k]
    beat_resolved = spec[k] > 5.0 * np.median(spec[1:])

    eta0 = float(np.max(y))
    a0 = 0.93 * math.sqrt(max(eta0, 1e-12))
    b0 = 0.07 * math.sqrt(max(eta0, 1e-12))

    def model(tt, th):
        nu, om, a, b = th
        return memory.lifetime_model(tt, gamma_m_rad_ns=gamma_m_rad_ns,
                                     nu_prime_ghz=nu, amp_main=a, amp_beat=b,
                                     omega_rad_ns=om)

    init = np.array([0.012, omega0 if beat_resolved else 0.5, a0, b0])
    # the efficiency is quadratic in the amplitudes
    root_s = math.sqrt(_scale(y))
    bounds = (np.array([0.0, 0.0, 0.0, 0.0]),
              np.array([0.2, 10.0, 2.0 * root_s, 2.0 * root_s]))
    fit = least_squares(model, t, y, init, bounds,
                        names=["nu_prime_ghz", "omega_rad_ns", "amp_main", "amp_beat"])
    if not beat_resolved:
        fit.flags.append("beat_unresolved")
    return fit


def derived_lifetime_metrics(fit: FitResult,
                             gamma_m_rad_ns: float = _GAMMA_M) -> dict:
    a, b = fit["amp_main"], fit["amp_beat"]
    return {
        "eta_zero_time": (a + b) ** 2,
        "one_over_e_ns": memory.one_over_e_lifetime_ns(
            gamma_m_rad_ns=gamma_m_rad_ns, nu_prime_ghz=fit["nu_prime_ghz"]),
    }


# ------------------------------------------------------ gaussian line fit

def fit_gaussian_line(x_data, y_data) -> FitResult:
    """Gaussian line: centre, FWHM, depth and flat offset.

    A dip has a positive depth and a peak a negative one; the fit starts at
    the sample farthest from the median, with the width of the samples
    beyond half of that excursion.
    """
    x, y = _samples(x_data, y_data)
    off0 = float(np.median(y))
    k = int(np.argmax(np.abs(y - off0)))
    depth0 = off0 - float(y[k])
    center0 = float(x[k])
    beyond = x[np.sign(depth0) * (off0 - 0.5 * depth0 - y) > 0]
    fwhm0 = float(beyond.max() - beyond.min()) if len(beyond) > 1 \
        else (x.max() - x.min()) / 4

    def model(xx, th):
        center, fwhm, depth, off = th
        return off - depth * np.exp(-4 * math.log(2) * (xx - center) ** 2
                                    / max(fwhm, 1e-12) ** 2)

    span = x.max() - x.min()
    s = _scale(y)
    init = np.array([center0, max(fwhm0, span / 100), depth0, off0])
    bounds = (np.array([x.min(), span / 1000, -10.0 * s, -10.0 * s]),
              np.array([x.max(), span * 2, 10.0 * s, 10.0 * s]))
    fit = least_squares(model, x, y, init, bounds,
                        names=["center", "fwhm", "depth", "offset"])
    if abs(fit["depth"]) < 3.0 * fit.uncertainties["depth"]:
        fit.flags.append("width_unidentifiable")
    return fit
