"""Time-domain storage and retrieval dynamics of the cavity-coupled memory.

The model integrates three coupled linear complex amplitudes in a frame
rotating at the signal carrier: the intra-cavity signal field a(t), the
collective optical polarization P(t), and the stored spin coherence S(t),

    da/dt = -(kappa/2 + i dc) a + i g P + sqrt(kappa_ext) a_in(t)
    dP/dt = -(G_eff/2 + i Dp) P + i g a + i (W(t)/2) S
    dS/dt = -(gm/2 + i d2) S + i (W*(t)/2) P
    a_out = sqrt(kappa_ext) a - a_in

with kappa the cavity power decay rate, g the collective coupling anchored to
the cooperativity, Dp the intermediate detuning and W(t) the control Rabi
frequency from the write/read pulses.  The polarization damping G_eff is the
absorptive width of the Doppler profile evaluated at the carrier detuning plus
the natural width of the intermediate state: a Gaussian inhomogeneous line has
no far-wing absorption, so far off resonance only the homogeneous core damps
the dynamics while the full Doppler width still fixes the resonant optical
depth that the cooperativity is anchored to.

Slow spin-wave dephasing (inhomogeneous broadening and the two-line beat) is
applied to S as a multiplicative analytic kernel at the storage midpoint
rather than through velocity ensembles, reproducing the damped oscillatory
decay law exactly.  The excitation the kernel removes is booked as its own
loss channel, so the photon bookkeeping closes.

The efficiency (1 - zeta) C_ret / C_ref needs the control-off reference
counts C_ref.  With the control off S decouples and (a, P) is a linear
time-invariant filter, so C_ref has a closed form: the Gaussian input
spectrum weighted by |r(w)|^2, whose two poles integrate to Faddeeva
functions.  Only the control-on run is integrated; `store` gets its
reference flux from a control-off lane in the same batch.  The formula is
stated once, in `total_efficiency`: a signal without photons has C_ref = 0
and no efficiency, so it raises DomainError rather than reading 0.

The RK4 loop evaluates the drives a_in(t) and W(t) once per half step, in
chunks of steps, and reuses them across the stages that share a time.  Each
drive is a per-lane coefficient times a real Gaussian; only a read whose
carrier differs from the write's takes a complex chirp phase.  The step is
RK4 in scaled form: each stage is dt/2 times the derivative (dt times it for
the third), from coupling tables scaled once per chunk, and a state carries
a constant row that makes the input drive one more coupling.  That moves
bits from the plain RK4 formulas by a few ulps; the budget of a fingerprint
is 1e-12 relative to the committed benchmark record.  The tables a chunk
fills (stages, states, coupling rows, fluxes, count steps) are made once
per batch, so a step allocates no array.  Each lane has one clock, its
index k on the grid t_k = k dt, and each of its events is a grid index: its
start, storage midpoint t_mid, write-window end, read-window start, last
drive-window close, and end.  It rests at zero at its start, the one point
whose drives the loop zeroes; the chunks count it up to its close and the
ring-down to its end.  From the end of the write window to the start of the
read window nothing drives a lane, and the memory is linear and time
invariant (the storage/retrieval linear-map view of Gorshkov et al., PRA 76,
033804 (2007)).  The lane jumps across that segment with the exact propagator, a
2x2 matrix exponential in eigen form for (a, P) and a scalar exponential
for S, and books its loss and output integrals in closed form.  The same
propagator carries it over the ring-down from its close to its end; what
is left there is the residual excitation.  One rule holds for a chunk of
RK4 steps, the jump and the ring-down alike: the kernel acts in the
segment (k_a, k_b] that holds t_mid's grid point, and output before it is
leak and after it retrieved.  The events depend only on the lane's
pulses, so a lane's results do not depend on the other lanes of its batch.

All simulations are pure functions of (config, pulses, drift); scans evaluate
their points as one vectorized batch (the bandwidth scan one batch over all
widths per refinement round), so results cannot depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from . import atomic, cavity
from .cavity import CavityParams
from .constants import AtomConstants
from .errors import DomainError, NumericalError, require_finite

__all__ = [
    "PulseShape", "MemoryConfig", "SimulationResult",
    "simulate_storage_retrieval", "simulate_batch", "batch_efficiency",
    "pulses_overlap", "total_efficiency",
    "lifetime_model", "one_over_e_lifetime_ns", "lifetime_scan",
    "oscillation_suppression", "snr_db", "bandwidth_scan", "energy_scan",
    "mean_photon_from_counts",
]

TWO_PI = 2 * math.pi
_LN2 = math.log(2)


@dataclass(frozen=True)
class PulseShape:
    """Gaussian pulse; fwhm refers to the intensity envelope."""

    center_ns: float
    fwhm_ns: float
    energy: float                    # nJ for control pulses, photons for signal
    carrier_detuning_ghz: float = 0.0
    phase_rad: float = 0.0           # constant per pulse

    def __post_init__(self):
        require_finite(self, "pulse")
        if self.fwhm_ns <= 0:
            raise DomainError("pulse fwhm must be positive")
        if self.energy < 0:
            raise DomainError("pulse energy must be non-negative")


@dataclass(frozen=True)
class MemoryConfig:
    """Operating point of the memory."""

    cavity: CavityParams = field(default_factory=CavityParams)
    cooperativity: float = 3800.0
    polarization_fwhm_ghz: float = 0.55        # Doppler-broadened width
    intermediate_detuning_ghz: float = -8.0
    intermediate_natural_fwhm_mhz: float = 6.0666
    spin_fwhm_mhz: float = 0.66                # gm = 2 pi x this
    dephasing_width_mhz: float = 12.6          # nu' of the decay law
    line_splitting_mhz: float = 171.0          # omega = 2 pi x this
    line_amp_main: float = 0.51                # A
    line_amp_beat: float = 0.038               # B
    insertion_loss: float | None = None        # derived from cavity when None
    rabi_rad_ns_per_sqrt_nj: float = 8.4736    # fixed by one-time calibration
    noise_photons_per_pulse: float = 3e-4
    excitation_fwhm_ns: float = 0.42           # beat-weighting bandwidth, calibrated

    def __post_init__(self):
        require_finite(self, "memory config")
        if self.cooperativity < 0:
            raise DomainError("cooperativity must be non-negative")
        if self.polarization_fwhm_ghz <= 0:
            raise DomainError("polarization width must be positive")
        if self.insertion_loss is not None and not (0.0 <= self.insertion_loss < 1.0):
            raise DomainError("insertion loss must lie in [0, 1)")
        if self.line_amp_main < 0 or self.line_amp_beat < 0:
            raise DomainError("line amplitudes must be non-negative")
        if self.cavity.r1 >= 1.0:
            raise DomainError("the in-coupler must transmit (r1 < 1)")

    # -- derived angular rates (rad/ns) --

    @property
    def kappa(self) -> float:
        return TWO_PI * cavity.linewidth_ghz(self.cavity)

    @property
    def kappa_ext(self) -> float:
        c = self.cavity
        frac = math.log(c.r1) / math.log(c.r1 * c.r2 * (1.0 - c.zeta_rt))
        return self.kappa * frac

    @property
    def gamma_doppler(self) -> float:
        return TWO_PI * self.polarization_fwhm_ghz

    @property
    def gamma_eff(self) -> float:
        """Absorptive polarization width at the operating detuning."""
        wing = math.exp(-4 * _LN2 * (self.intermediate_detuning_ghz
                                     / self.polarization_fwhm_ghz) ** 2)
        return TWO_PI * (self.intermediate_natural_fwhm_mhz * 1e-3
                         + self.polarization_fwhm_ghz * wing)

    @property
    def coupling_g(self) -> float:
        return math.sqrt(self.cooperativity * (self.kappa / 2)
                         * (self.gamma_doppler / 2) / TWO_PI)

    @property
    def gamma_m(self) -> float:
        return TWO_PI * self.spin_fwhm_mhz * 1e-3

    @property
    def cavity_pull(self) -> float:
        """Dispersive shift of the dressed cavity resonance (rad/ns)."""
        dp = TWO_PI * self.intermediate_detuning_ghz
        return -self.coupling_g ** 2 * dp / ((self.gamma_eff / 2) ** 2 + dp ** 2)

    def zeta(self) -> float:
        if self.insertion_loss is not None:
            return self.insertion_loss
        return cavity.insertion_loss(self.cavity)

    def lossless(self) -> "MemoryConfig":
        """The same operating point with the excess cavity losses removed."""
        return replace(self, cavity=replace(self.cavity, r2=1.0, zeta_rt=0.0),
                       insertion_loss=0.0)


@dataclass(frozen=True)
class SimulationResult:
    time_grid_ns: np.ndarray
    output_flux: np.ndarray          # photons/ns, control on
    reference_flux: np.ndarray       # photons/ns, control off
    input_photons: float
    reference_counts: float          # C_ref
    leak_counts: float
    retrieved_counts: float          # C_ret
    internal_efficiency: float       # C_ret / C_ref
    total_efficiency: float          # (1 - zeta) C_ret / C_ref
    snr_db: float
    bookkeeping: dict
    # dt_ns, loop and lane steps, lambda_max dt and its stability margin of
    # the run's batch (the storage lane and its control-off twin)
    integrator: dict

    def __post_init__(self):
        for v in (self.reference_counts, self.leak_counts, self.retrieved_counts):
            if v < -1e-9:
                raise NumericalError("negative photon counts")


# ------------------------------------------------------------ integrator

# lane-steps whose drives and fluxes are evaluated together: 64 steps of a
# narrow batch, fewer for wide ones so that memory stays bounded
_CHUNK_LANE_STEPS = 4096


def _lane_steps(par: dict, dt: float):
    """Grid indices (t_k = k dt) of each lane's events: its start, its
    storage midpoint t_mid, the first and last point of its drive-free
    storage time, the first point at or after its last drive window closes,
    and its end."""
    return (np.floor(par["t_start"] / dt).astype(int),
            np.ceil(par["t_mid"] / dt).astype(int),
            np.ceil(par["t_free"] / dt).astype(int),
            np.floor(par["t_read"] / dt).astype(int),
            np.ceil(par["t_close"] / dt).astype(int),
            np.ceil(par["t_end"] / dt).astype(int))


def _lanes_by_step(steps, lanes) -> dict:
    """Map each step to those of `lanes` that have an event there."""
    out: dict[int, list] = {}
    for step, lane in zip(steps.tolist(), lanes.tolist()):
        out.setdefault(step, []).append(lane)
    return out


def _drives(par: dict, half_steps, dt: float):
    """Envelopes of the signal amplitude, the write and the read on half-step
    points, t = half_steps dt/2 with one column per lane.

    Each is the real Gaussian exp(q (t - centre)^2) of its pulse, whose
    exponent coefficient q is a per-lane array of `par`; the read takes its
    chirp phase e^{-i chirp_r (t - r_c)}, and is complex, only where the
    batch holds a lane whose chirp_r is not 0.  The phase of a chirp-free
    lane in such a batch is exactly 1, so its read keeps its bits.
    So a_in = sig_amp times the first and W = omega_w times the second plus
    omega_r times the third.  The loop zeroes the point at a lane's own
    start, where it rests at zero.
    """
    t = (0.5 * half_steps) * dt
    sig, write, read = (np.exp((t - par[c]) ** 2 * par[q])
                        for c, q in (("sig_c", "sig_q"), ("w_c", "w_q"), ("r_c", "r_q")))
    if par["chirp_r"].any():
        read = read * np.exp(-1j * par["chirp_r"] * (t - par["r_c"]))
    return sig, write, read


def _ap_eigenvalues(par: dict):
    """Rates c_a, c_p of the bare cavity and polarization, and the two
    eigenvalues of the drive-free (a, P) block [[c_a, ig], [ig, c_p]].

    Raises NumericalError at an exceptional point, where the eigenvalues
    coincide and the block has no eigenbasis.
    """
    c_a = -(par["kappa"] / 2 + 1j * par["delta_c"])
    c_p = -(par["gamma_p"] / 2 + 1j * par["delta_p"])
    root = np.sqrt(0.25 * (c_a - c_p) ** 2 - par["g"] ** 2)
    if np.any(np.abs(root) <= 1e-9 * np.abs(c_a + c_p)):
        raise NumericalError("cavity and polarization sit at an exceptional "
                             "point; the (a, P) block has a double eigenvalue")
    return c_a, c_p, np.stack([0.5 * (c_a + c_p) + root, 0.5 * (c_a + c_p) - root])


def _phi(x, t):
    """(e^{x t} - 1) / x, the integral of e^{x s} over [0, t]; t where x = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(x == 0, t, np.expm1(x * t) / x)


def _free_evolution(y, diag, ig, s, t):
    """Exact drive-free propagation of y = (a, P, S) over times t >= 0.

    `diag` holds the rates (c_a, c_p, c_s).  (a, P) splits into the modes of
    the eigenvalues s = (s+, s-) of A = [[c_a, ig], [ig, c_p]], through the
    projector (A - s- I) / (s+ - s-); S decays on its own.  Returns the
    state at t, which is y itself bit for bit where t = 0, and the
    integrals of |a|^2, |P|^2 and |S|^2 over [0, t], each a sum of
    c_i c_j* (e^{(s_i + s_j*) t} - 1) / (s_i + s_j*) over the mode pairs.
    """
    a, p, spin = y
    c_a, c_p, c_s = diag
    den = s[0] - s[1]
    v_plus = np.stack([((c_a - s[1]) * a + ig * p) / den,
                       (ig * a + (c_p - s[1]) * p) / den])
    v_minus = y[:2] - v_plus
    grow = np.exp(s * t)
    state = np.where(t == 0, y, np.concatenate([v_plus * grow[0] + v_minus * grow[1],
                                                [spin * np.exp(c_s * t)]]))
    integrals = np.concatenate([
        np.abs(v_plus) ** 2 * _phi(2 * s[0].real, t)
        + np.abs(v_minus) ** 2 * _phi(2 * s[1].real, t)
        + 2 * np.real(v_plus * np.conj(v_minus) * _phi(s[0] + np.conj(s[1]), t)),
        [np.abs(spin) ** 2 * _phi(2 * c_s.real, t)]])
    return state, integrals


def _integrate_batch(par: dict, t0: float, t1: float, dt: float,
                     keep_flux: bool = False) -> dict:
    """Vectorized RK4 for a batch of simulations, each lane on its own clock.

    `par` holds per-individual parameter arrays (see simulate_batch).  The
    grid points are t_k = k dt and [t0, t1] must lie on them; it spans
    every lane's window.  A lane's one clock is its grid index, and its
    events are grid indices (see _lane_steps).  It RK4-steps in chunks
    from rest at k_start, except over its storage time from k_free to
    k_read, which it jumps after k_free - k_start steps, and its ring-down
    from k_close to k_end: there the exact propagator carries it.  In a
    chunk, the jump and the ring-down alike the kernel acts in the segment
    (k_a, k_b] that holds k_mid (holds_mid).  Chunks end at every jump, so
    each RK4 stage sees the drives at the lane's true time, and the loop
    ends once every lane has reached k_close.  A lane's events depend only
    on its own pulses, so its results do not depend on the other lanes of
    the batch.  Returns integrated counts and loss channels per individual;
    the loop's step and lane-step counts; the largest lambda_max dt of the
    batch and its stability margin, the factor by which dt could grow
    before the guard (lambda_max dt <= 2.5) refuses it; and the output flux
    on the grid when `keep_flux` is set, whose rows outside a lane's window
    stay zero.
    """
    # the grid comes from the indices of t0 and t1: ceil of the float
    # (t1 - t0) / dt can land one step past t1
    k0, k1 = int(round(t0 / dt)), int(round(t1 / dt))
    ts = dt * np.arange(k0, k1 + 1)
    b = len(par["kappa"])

    # explicit RK4 stability guard against the fast polariton branch
    lam_max = float(np.max(0.5 * np.abs(par["delta_c"] + par["delta_p"])
                           + np.sqrt(par["g"] ** 2
                                     + 0.25 * (par["delta_c"] - par["delta_p"]) ** 2)
                           + 0.5 * par["kappa"]))
    guard = 2.5
    if lam_max * dt > guard:
        raise NumericalError(
            f"time step {dt} ns too large for the fastest mode "
            f"({lam_max:.1f} rad/ns); reduce dt below {guard / lam_max:.4f} ns")

    sqrt_kext = np.sqrt(par["kappa_ext"])
    c_a, c_p, s_ap = _ap_eigenvalues(par)
    # y = (a, P, S): dy/dt = diag * y + coupling to the neighbour + drive
    diag = np.stack([c_a, c_p, -(par["gamma_s"] / 2 + 1j * par["delta_2"])])
    ig = 1j * par["g"]
    # loss rates of (a, P, S): internal cavity loss, polarization, spin
    loss_rates = np.stack([par["kappa"] - par["kappa_ext"], par["gamma_p"],
                           par["gamma_s"]])
    kernel = par["kernel"]
    k_start, k_mid, k_free, k_read, k_close, k_end = _lane_steps(par, dt)
    # the jump is the one event scheduled ahead, by the steps before it;
    # the loop ends when the last lane has stepped to k_close
    jumps = np.flatnonzero(k_read > k_free)
    jump_at = _lanes_by_step(k_free[jumps] - k_start[jumps], jumps)
    n_iter = int(np.max(k_close - k_start - np.maximum(k_read - k_free, 0)))

    def holds_mid(k_a, k_b, lanes=slice(None)):
        """Whether each of `lanes` (all by default) has k_mid in its segment
        (k_a, k_b], where the kernel acts.  t_mid never lies in the
        ring-down, since t_close closes the write window too."""
        return (k_a < k_mid[lanes]) & (k_mid[lanes] <= k_b)

    chunk = max(4, min(64, _CHUNK_LANE_STEPS // b))
    # The step in scaled form: each stage K is h = dt/2 times the
    # derivative (dt times it for the third), so a stage input is y + K and
    # the step ends as y + (K1 + 2 K2 + K3 + K4) / 3.  A state is carried as
    # (1, a, P, S): its constant row 0 makes the force h sqrt(kappa_ext) a_in
    # the lower coupling of row a, so K = (h diag) (a, P, S) + up (P, S)
    # + down (1, a, P), with up = h (ig, W/2) and
    # down = h (sqrt(kappa_ext) a_in, ig, W*/2): five ufunc calls a stage
    # and 29 a step.  This moves bits from the plain RK4 formulas; the
    # budget in tests/test_record_bench.py bounds how far (1e-12 relative on
    # every fingerprint of the committed record).
    # Every table of the loop is made here, once: the stages, the stage
    # input z, the states, a row block for products, the chunk's fluxes at
    # its grid points (output, input, cavity, P, S) and its count steps, each
    # with row 0 at the chunk start and row r + 1 after step r; and up and
    # down on 2 chunk + 1 half-step points and, doubled, on the chunk's odd
    # points for the third stage, whose ig rows never change.  The drives
    # enter through per-lane coefficients of the Gaussians of _drives:
    # h sqrt(kappa_ext) sig_amp and h 0.5j omega.  Each table is carried as
    # its row views, so a step makes no array unless the kernel acts; its
    # ufuncs take `out` by position and its scalar as a complex number,
    # which numpy would otherwise convert on every call
    h = 0.5 * dt
    diag_h = h * diag
    diag_dt = diag_h + diag_h
    c_in = (h * sqrt_kext) * par["sig_amp"]
    c_up = (h * 0.5j) * np.stack([par["omega_w"], par["omega_r"]])

    def stage():
        k = np.empty((3, b), dtype=complex)
        return k, k[:2]

    def views(x):
        """Rows (a, P, S), (P, S) and (1, a, P) of a state."""
        return x[1:], x[2:], x[:3]

    k1, k2, k3, k4 = (stage() for _ in range(4))
    z = views(np.ones((4, b), dtype=complex))
    z_body = z[0]
    pair = np.empty((3, b), dtype=complex)
    pair_head = pair[:2]
    states = np.ones((chunk + 1, 4, b), dtype=complex)
    states[0, 1:] = 0.0                           # every lane rests at first
    rows = [views(s) for s in states]
    y = states[0]
    fluxes = np.zeros((chunk + 1, 5, b))
    up = np.empty((2 * chunk + 1, 2, b), dtype=complex)
    down = np.empty((2 * chunk + 1, 3, b), dtype=complex)
    up3 = np.empty((chunk, 2, b), dtype=complex)
    down3 = np.empty((chunk, 3, b), dtype=complex)
    up[:, 0] = down[:, 1] = h * ig
    up3[:, 0] = down3[:, 1] = h * ig + h * ig
    ups, downs, ups3, downs3 = list(up), list(down), list(up3), list(down3)
    steps = np.empty((chunk + 1, 6, b))
    mul, add = np.multiply, np.add
    c_third = np.complex128(1 / 3)

    def deriv(k, x, rates, up, down):
        """k = rates * x, plus the coupling to each neighbour, the force
        included as row a's coupling to the constant row."""
        k_all, k_head = k
        x_body, x_tail, x_lead = x
        mul(rates, x_body, k_all)
        mul(up, x_tail, pair_head)
        add(k_head, pair_head, k_head)
        mul(down, x_lead, pair)
        add(k_all, pair, k_all)

    # leak, retrieved, input, cavity-internal, polarization and spin counts
    counts = np.zeros((6, b))
    dephasing = np.zeros(b)
    y_close = np.zeros((3, b), dtype=complex)
    out_flux = np.zeros((len(ts), b)) if keep_flux else None

    def dephase(s, lanes):
        """Spin amplitudes s of `lanes` times the kernel; books what it removes."""
        dephasing[lanes] = np.abs(s) ** 2 * (1 - np.abs(kernel[lanes]) ** 2)
        return s * kernel[lanes]

    def drive_free(lanes, y_a, k_a, k_b):
        """Carry `lanes` without drive from their states y_a at grid index k_a
        to k_b and return their states there.  Output up to t_mid is leak and
        after it retrieved; the kernel acts at t_mid when it lies in
        (k_a, k_b].  Books the loss integrals and fills the flux rows
        k_a+1..k_b, which follow from y_a alone since a does not see the
        kernel."""
        sub = (diag[:, lanes], ig[lanes], s_ap[:, lanes])
        n_before = np.clip(k_mid[lanes] - k_a, 0, k_b - k_a)
        y_mid, to_mid = _free_evolution(y_a, *sub, n_before * dt)
        inside = holds_mid(k_a, k_b, lanes)
        y_mid[2, inside] = dephase(y_mid[2, inside], lanes[inside])
        y_b, from_mid = _free_evolution(y_mid, *sub, (k_b - k_a - n_before) * dt)
        counts[0, lanes] += par["kappa_ext"][lanes] * to_mid[0]
        counts[1, lanes] += par["kappa_ext"][lanes] * from_mid[0]
        counts[3:, lanes] += loss_rates[:, lanes] * (to_mid + from_mid)
        if keep_flux:
            for j, lane in enumerate(lanes.tolist()):
                one = slice(lane, lane + 1)
                a_t = _free_evolution(y_a[:, j:j + 1], diag[:, one], ig[one], s_ap[:, one],
                                      dt * np.arange(1, k_b[j] - k_a[j] + 1))[0][0]
                out_flux[k_a[j] - k0 + 1:k_b[j] - k0 + 1, lane] = \
                    par["kappa_ext"][lane] * np.abs(a_t) ** 2
        return y_b

    base = k_start.copy()         # each lane's grid index: the loop's one clock
    done = 0                      # the steps every lane has taken
    for stop in sorted(jump_at) + [n_iter]:
        while done < stop:
            # the chunk (base, base + m] ends at the next jump, so each
            # lane's grid indices run on; the kernel acts after the step
            # that lands a lane on its k_mid
            m = min(chunk, stop - done)
            mid = np.flatnonzero(holds_mid(base, base + m))
            kernel_at = _lanes_by_step(k_mid[mid] - base[mid] - 1, mid)
            n = 2 * m + 1
            g_sig, g_w, g_r = _drives(par, 2 * base + np.arange(n)[:, None], dt)
            if done == 0:     # each lane rests at its k_start; all else lies past it
                g_sig[0] = g_w[0] = g_r[0] = 0
            mul(c_in, g_sig, down[:n, 0])
            mul(c_up[0], g_w, up[:n, 1])
            add(up[:n, 1], c_up[1] * g_r, up[:n, 1])
            np.negative(np.conj(up[:n, 1]), down[:n, 2])   # h 0.5j W* = -(h 0.5j W)*
            add(up[1:n:2, 1], up[1:n:2, 1], up3[:m, 1])
            add(down[1:n:2, ::2], down[1:n:2, ::2], down3[:m, ::2])
            for r in range(m):
                e = 2 * r
                y_r = rows[r]
                y_body = y_r[0]
                deriv(k1, y_r, diag_h, ups[e], downs[e])
                add(y_body, k1[0], z_body)           # z = y + K1
                deriv(k2, z, diag_h, ups[e + 1], downs[e + 1])
                add(y_body, k2[0], z_body)
                deriv(k3, z, diag_dt, ups3[r], downs3[r])
                add(y_body, k3[0], z_body)
                deriv(k4, z, diag_h, ups[e + 2], downs[e + 2])
                acc = k2[0]                          # (K1 + 2 K2 + K3 + K4) / 3, in K2
                add(acc, acc, acc)
                add(acc, k1[0], acc)
                add(acc, k3[0], acc)
                add(acc, k4[0], acc)
                mul(c_third, acc, acc)
                add(y_body, acc, rows[r + 1][0])
                lanes = kernel_at.get(r)
                if lanes is not None:
                    states[r + 1, 3, lanes] = dephase(states[r + 1, 3, lanes], lanes)

            # fluxes at the chunk's grid points, then trapezoids per step; a
            # lane counts and keeps its flux up to k_close, the ring-down after
            ain = par["sig_amp"] * g_sig[2::2]
            flux = fluxes[1:m + 1]
            stepped = states[1:m + 1, 1:]
            flux[:, 0] = np.abs(sqrt_kext * stepped[:, 0] - ain) ** 2
            flux[:, 1] = np.abs(ain) ** 2
            flux[:, 2:] = loss_rates * np.abs(stepped) ** 2
            k_grid = base + 1 + np.arange(m)[:, None]
            # the state of each lane whose drives end in this chunk
            closed = np.flatnonzero((base < k_close) & (k_close <= base + m))
            if closed.size:
                y_close[:, closed] = states[k_close[closed] - base[closed], 1:, closed].T
            live = k_grid <= k_close
            if keep_flux:
                out_flux[k_grid[live] - k0, np.nonzero(live)[1]] = flux[:, 0][live]
            trap = h * (fluxes[:m] + flux)
            fluxes[0] = flux[-1]
            before = k_grid <= k_mid
            steps[0] = counts
            steps[1:m + 1, 0] = trap[:, 0] * (live & before)
            steps[1:m + 1, 1] = trap[:, 0] * (live & ~before)
            steps[1:m + 1, 2:] = trap[:, 1:] * live[:, None]
            # a sum in step order, so each lane adds its own terms in the
            # same sequence whatever batch it is part of
            counts = np.add.reduce(steps[:m + 1], axis=0)
            y[...] = states[m]            # the next chunk starts from here
            base += m
            done += m
        lanes = jump_at.get(stop)
        if lanes is not None:
            # the jump from k_free to k_read, after which the loop goes on
            lanes = np.asarray(lanes)
            y_body = y[1:]
            y_body[:, lanes] = drive_free(lanes, y_body[:, lanes], k_free[lanes],
                                          k_read[lanes])
            f_start = fluxes[0]
            f_start[0, lanes] = par["kappa_ext"][lanes] * np.abs(y_body[0, lanes]) ** 2
            f_start[1, lanes] = 0.0
            f_start[2:, lanes] = loss_rates[:, lanes] * np.abs(y_body[:, lanes]) ** 2
            base[lanes] = k_read[lanes]

    # the ring-down: after k_close nothing drives a lane
    y_end = drive_free(np.arange(b), y_close, k_close, k_end)
    leak, retrieved, n_in, loss_cav, loss_pol, loss_spin = counts
    return dict(ts=ts, out_flux=out_flux, leak=leak, retrieved=retrieved,
                n_in=n_in, loss_pol=loss_pol, loss_spin=loss_spin,
                loss_cav=loss_cav, loss_dephasing=dephasing,
                residual=np.sum(np.abs(y_end) ** 2, axis=0),
                loop_steps=done, lane_steps=done * b, lam_max_dt=lam_max * dt,
                stability_margin=guard / (lam_max * dt))


def _reference_counts(par: dict) -> np.ndarray:
    """Control-off output counts of every lane, in closed form.

    With the control off S decouples and (a, P) is a linear time-invariant
    filter, so C_ref = n int |r(w)|^2 W(w) dw with
    r(w) = kappa_ext / ((-iw - c_a) + g^2 / (-iw - c_p)) - 1 and W the
    normalized power spectrum of the Gaussian input amplitude,
    exp(-2 sigma^2 w^2).  r has one pole w_j = i s_j per eigenvalue s_j of
    the (a, P) block, all in the lower half plane, so
    |r|^2 = 1 + 2 Re sum_j C_j / (w - w_j) and each term integrates against
    the Gaussian to a Faddeeva function.
    """
    from scipy.special import wofz   # lazy: commands that never simulate skip scipy

    sigma = par["sig_f"] / (2 * math.sqrt(2 * _LN2))
    c_a, c_p, s = _ap_eigenvalues(par)
    poles = 1j * s
    beta = 1j * par["kappa_ext"] * (s - c_p) / (s - s[::-1])  # r = -1 + sum beta_j / (w - w_j)
    # residue of |r|^2 at w_j: beta_j times conj(r) continued to w_j
    conj_r = -1.0 + np.conj(beta[0]) / (poles - np.conj(poles[0])) \
        + np.conj(beta[1]) / (poles - np.conj(poles[1]))
    # int W(w) / (w - w_j) dw for Im w_j < 0
    z = math.sqrt(2) * sigma * poles
    gauss = -1j * math.sqrt(2 * math.pi) * sigma * np.conj(wofz(np.conj(z)))
    terms = beta * conj_r * gauss
    return par["sig_n"] * (1.0 + 2.0 * np.real(terms[0] + terms[1]))


def _pulse_par_arrays(config: MemoryConfig, signal, writes, reads,
                      drift_offset_ghz) -> dict:
    """Assemble per-individual parameter arrays for the batch integrator."""
    b = len(writes)
    cav = config.cavity
    # centre, FWHM, energy, carrier and phase of each role, one column per lane
    fields = attrgetter("center_ns", "fwhm_ns", "energy", "carrier_detuning_ghz",
                        "phase_rad")
    rows = np.array([list(map(fields, p)) for p in (signal, writes, reads)], dtype=float)
    (sig_c, sig_f, sig_n, sig_carrier, sig_phase), (w_c, w_f, w_e, w_carrier, w_phase), \
        (r_c, r_f, r_e, r_carrier, r_phase) = rows.transpose(0, 2, 1).copy()

    drift = np.asarray(drift_offset_ghz, dtype=float) * np.ones(b)
    # dressed-mode referencing: the configured signal offset locates the
    # dressed resonance; the bare mode detuning compensates the atomic pull
    dressed = TWO_PI * (cav.mode_offset_signal_ghz + drift - sig_carrier)
    delta_c = dressed - config.cavity_pull

    # control Rabi frequency, its buildup relative to the calibration point
    b0 = float(cavity.buildup_factor(cav, [0.0])[0])

    def rabi(energy, carrier, phase):
        offset = cav.mode_offset_control_ghz + drift - carrier
        return config.rabi_rad_ns_per_sqrt_nj * np.sqrt(energy) \
            * np.sqrt(cavity.buildup_factor(cav, offset) / b0) * np.exp(1j * phase)

    # two-photon detuning in the signal+write frame; the read carrier offset
    # appears as a linear phase on the read pulse
    d2 = TWO_PI * (sig_carrier + w_carrier)
    chirp_r = TWO_PI * (r_carrier - w_carrier)

    sigma = sig_f / (2 * math.sqrt(2 * _LN2))
    tau = r_c - w_c
    nu = config.dephasing_width_mhz * 1e-3   # GHz
    omega_beat = TWO_PI * config.line_splitting_mhz * 1e-3
    amp_a, amp_b = config.line_amp_main, config.line_amp_beat
    if amp_a + amp_b > 0:
        beat = (amp_a + amp_b * np.exp(1j * omega_beat * tau)) / (amp_a + amp_b)
    else:
        beat = np.ones_like(tau, dtype=complex)
    kernel = np.exp(-(math.pi ** 2) * nu ** 2 * tau ** 2 / (8 * _LN2)) * beat
    # drive-free from the end of the write window to the start of the
    # read window, whatever the pulse energies
    t_free = np.maximum(sig_c + 4 * sig_f, w_c + 3 * w_f)
    t_close = np.maximum(r_c + 3 * r_f, t_free)
    tail = 6.0 / (config.kappa / 2) + 3.0

    return dict(
        kappa=np.full(b, config.kappa),
        kappa_ext=np.full(b, config.kappa_ext),
        delta_c=delta_c,
        g=np.full(b, config.coupling_g),
        gamma_p=np.full(b, config.gamma_eff),
        delta_p=np.full(b, TWO_PI * config.intermediate_detuning_ghz),
        gamma_s=np.full(b, config.gamma_m),
        delta_2=d2,
        sig_n=sig_n, sig_c=sig_c, sig_f=sig_f, sig_phase=sig_phase,
        omega_w=rabi(w_e, w_carrier, w_phase), w_c=w_c, w_f=w_f,
        omega_r=rabi(r_e, r_carrier, r_phase), r_c=r_c, r_f=r_f,
        chirp_r=chirp_r,
        # the drives' Gaussians exp(q (t - centre)^2) (see _drives): the
        # signal's is the amplitude of its flux n e^{-(t - c)^2 / 2 sigma^2}
        # / (sigma sqrt(2 pi)), and W's is at half the exponent of the
        # intensity's, 4 ln2 ((t - c) / fwhm)^2
        sig_amp=np.sqrt(sig_n / (sigma * math.sqrt(TWO_PI))) * np.exp(1j * sig_phase),
        sig_q=-0.25 / sigma ** 2, w_q=-2 * _LN2 / w_f ** 2, r_q=-2 * _LN2 / r_f ** 2,
        # each lane's window: from before its first pulse until its cavity
        # has emptied after the read; the dephasing kernel acts at t_mid.
        # Nothing drives a lane after t_close, where its last window closes
        t_start=np.minimum(sig_c - 3 * sig_f, w_c - 3 * w_f) - 0.5,
        t_mid=0.5 * (w_c + r_c),
        t_close=t_close,
        t_end=t_close + tail,
        t_free=t_free,
        t_read=r_c - 3 * r_f,
        kernel=kernel,
    )


def pulses_overlap(write: PulseShape, read: PulseShape) -> bool:
    """True when the read window opens before the write window closes.

    A pulse without energy has no window, so it never overlaps.
    """
    return write.energy > 0 and read.energy > 0 and \
        read.center_ns - read.fwhm_ns < write.center_ns + write.fwhm_ns


def simulate_batch(config: MemoryConfig, signals, writes, reads,
                   drift_offset_ghz=0.0, dt_ns: float = 0.01,
                   keep_flux: bool = False):
    """Integrate a batch of pulse settings on a common grid.

    The one admission check of a batch: it must hold at least one setting,
    as many signals as writes and reads, and no read window may open before
    its write window closes; the time step must be finite and positive.
    Returns (results dict from the integrator,
    closed-form control-off reference counts per individual, time bounds).
    The results hold the output flux on the grid only when `keep_flux` is
    set.
    """
    if len(signals) == len(writes) == len(reads) == 0:
        raise DomainError("the batch holds no pulse settings")
    if not len(signals) == len(writes) == len(reads):
        raise DomainError("signals, writes and reads must have equal lengths")
    if any(pulses_overlap(w, r) for w, r in zip(writes, reads)):
        raise DomainError("read and write pulse windows overlap")
    if not (math.isfinite(dt_ns) and dt_ns > 0):
        raise DomainError(f"time step must be finite and positive, got {dt_ns!r}")
    par = _pulse_par_arrays(config, signals, writes, reads, drift_offset_ghz)
    k_start, *_, k_end = _lane_steps(par, dt_ns)
    t0, t1 = dt_ns * int(k_start.min()), dt_ns * int(k_end.max())
    main = _integrate_batch(par, t0, t1, dt_ns, keep_flux)
    return main, _reference_counts(par), (t0, t1)


def total_efficiency(c_ret, c_ref, zeta: float):
    """Memory efficiency (1 - zeta) C_ret / C_ref, elementwise.

    The one statement of the formula; zeta = 0 gives the internal
    efficiency C_ret / C_ref.  A reference count that is not positive means
    the signal carried no photons, which has no efficiency.
    """
    c_ref = np.asarray(c_ref, dtype=float)
    if not np.all(c_ref > 0):
        raise DomainError("reference counts must be positive; the signal "
                          "pulse carries no input photons")
    if not (0.0 <= zeta < 1.0):
        raise DomainError("insertion loss must lie in [0, 1)")
    out = (1.0 - zeta) * (np.asarray(c_ret, dtype=float) / c_ref)
    return float(out) if out.ndim == 0 else out


def batch_efficiency(config: MemoryConfig, signals, writes, reads,
                     drift_offset_ghz=0.0, dt_ns: float = 0.01,
                     internal: bool = False) -> np.ndarray:
    """Memory efficiency (1 - zeta) C_ret / C_ref of every pulse setting.

    With `internal` the insertion loss is left out, giving the bare count
    ratio C_ret / C_ref that the optimizer maximizes.  An empty batch gives
    an empty array.
    """
    if len(signals) == len(writes) == len(reads) == 0:
        return np.empty(0)
    main, c_ref, _ = simulate_batch(config, signals, writes, reads,
                                    drift_offset_ghz, dt_ns)
    return total_efficiency(main["retrieved"], c_ref, 0.0 if internal else config.zeta())


def simulate_storage_retrieval(config: MemoryConfig, signal: PulseShape,
                               write: PulseShape, read: PulseShape,
                               drift_offset_ghz: float = 0.0,
                               dt_ns: float = 0.01) -> SimulationResult:
    """Full storage/retrieval run plus its control-off reference.

    The reference counts come in closed form; the reference flux comes from
    a second lane with the control pulses switched off, integrated in the
    same call.
    """
    dark_write, dark_read = replace(write, energy=0.0), replace(read, energy=0.0)
    main, c_refs, _ = simulate_batch(config, [signal, signal], [write, dark_write],
                                     [read, dark_read], drift_offset_ghz, dt_ns,
                                     keep_flux=True)
    c_ref, leak, c_ret = float(c_refs[0]), float(main["leak"][0]), float(main["retrieved"][0])
    return SimulationResult(
        time_grid_ns=main["ts"],
        output_flux=main["out_flux"][:, 0],
        reference_flux=main["out_flux"][:, 1],
        input_photons=float(main["n_in"][0]),
        reference_counts=c_ref,
        leak_counts=leak,
        retrieved_counts=c_ret,
        internal_efficiency=total_efficiency(c_ret, c_ref, 0.0),
        total_efficiency=total_efficiency(c_ret, c_ref, config.zeta()),
        snr_db=snr_db(c_ret, config.noise_photons_per_pulse),
        bookkeeping={
            "loss_polarization": float(main["loss_pol"][0]),
            "loss_spin": float(main["loss_spin"][0]),
            "loss_cavity_internal": float(main["loss_cav"][0]),
            "loss_dephasing": float(main["loss_dephasing"][0]),
            "residual_excitation": float(main["residual"][0]),
            "output_total": leak + c_ret,
        },
        integrator={"dt_ns": dt_ns,
                    **{k: main[k] for k in ("loop_steps", "lane_steps", "lam_max_dt",
                                            "stability_margin")}},
    )


# ------------------------------------------------------------ decay law

# the operating point, whose decay law the two functions below default to
_OPERATING = MemoryConfig()


def lifetime_model(t_ns,
                   gamma_m_rad_ns: float = _OPERATING.gamma_m,
                   nu_prime_ghz: float = _OPERATING.dephasing_width_mhz * 1e-3,
                   amp_main: float = _OPERATING.line_amp_main,
                   amp_beat: float = _OPERATING.line_amp_beat,
                   omega_rad_ns: float = (TWO_PI * _OPERATING.line_splitting_mhz
                                          * 1e-3)):
    """Damped oscillatory efficiency decay,

    eta(t) = e^{-gm t} e^{-pi^2 nu'^2 t^2 / (4 ln2)} |A + B e^{i w t}|^2.
    """
    t = np.asarray(t_ns, dtype=float)
    if np.any(t < 0):
        raise DomainError("storage time must be non-negative")
    envelope = np.exp(-gamma_m_rad_ns * t
                      - math.pi ** 2 * nu_prime_ghz ** 2 * t ** 2 / (4 * _LN2))
    beat = np.abs(amp_main + amp_beat * np.exp(1j * omega_rad_ns * t)) ** 2
    out = envelope * beat
    return float(out) if np.isscalar(t_ns) else out


def one_over_e_lifetime_ns(
        gamma_m_rad_ns: float = _OPERATING.gamma_m,
        nu_prime_ghz: float = _OPERATING.dephasing_width_mhz * 1e-3) -> float:
    """Storage time where the beat-free envelope drops to 1/e of its peak.

    The oscillatory factor is evaluated on its upper envelope (beat maxima),
    so the lifetime characterizes the decay rather than the beating; with
    c = pi^2 nu'^2 / (4 ln2) the condition gm t + c t^2 = 1 has the root
    t = (-gm + sqrt(gm^2 + 4c)) / (2c).
    """
    c = math.pi ** 2 * nu_prime_ghz ** 2 / (4 * _LN2)
    if c == 0:
        if gamma_m_rad_ns == 0:
            return math.inf
        return 1.0 / gamma_m_rad_ns
    return (-gamma_m_rad_ns + math.sqrt(gamma_m_rad_ns ** 2 + 4 * c)) / (2 * c)


def lifetime_scan(config: MemoryConfig, signal: PulseShape, write: PulseShape,
                  read: PulseShape, storage_times_ns,
                  dt_ns: float = 0.01) -> np.ndarray:
    """Total efficiency versus storage time (read centre minus write centre)."""
    reads = [replace(read, center_ns=write.center_ns + float(tau))
             for tau in np.asarray(storage_times_ns, dtype=float)]
    n = len(reads)
    return batch_efficiency(config, [signal] * n, [write] * n, reads, 0.0, dt_ns)


def oscillation_suppression(b_mt: float, config: MemoryConfig,
                            constants: AtomConstants | None = None) -> float:
    """Relative amplitude of the secondary addressable line at field b_mt,
    from the level structure of `constants` (the bundled file when None).

    Every companion line near the memory line contributes its strength ratio
    times the excitation spectral weight (pulse power spectrum times cavity
    response) at its offset; the beat contrast is set by the dominant
    weighted companion.  Offsets grow with the field, so stronger fields
    suppress the beat.
    """
    if b_mt <= 0:
        raise DomainError("field must be positive")
    # raw strengths identify the operating line (the strongest transition);
    # near-resonant-intermediate paths are excluded by construction since the
    # memory operates far from the one-photon line
    lines = atomic.two_photon_lines(
        b_mt, "sigma-", "sigma-", total_window_ghz=(-30.0, 10.0), constants=constants)
    grouped = atomic.group_two_photon_lines(lines)
    main = max(grouped, key=lambda t: t[1])
    kappa_fwhm = cavity.linewidth_ghz(config.cavity)

    def weighted(entry):
        sep_ghz = abs(entry[0] - main[0])
        pulse = math.exp(-(math.pi * sep_ghz * config.excitation_fwhm_ns) ** 2
                         / _LN2)
        cav = 1.0 / (1.0 + (2 * sep_ghz / kappa_fwhm) ** 2)
        return (entry[1] / main[1]) * pulse * cav

    others = [t for t in grouped if t is not main and abs(t[0] - main[0]) < 3.0]
    if not others:
        return 0.0
    return max(weighted(t) for t in others)


def snr_db(signal_counts: float, noise_rate: float) -> float:
    """10 log10(signal / noise); unbounded (inf) for zero noise."""
    if noise_rate < 0:
        raise DomainError("noise rate must be non-negative")
    if signal_counts < 0:
        raise DomainError("signal counts must be non-negative")
    if noise_rate == 0.0:
        return math.inf
    if signal_counts == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal_counts / noise_rate)


# ----------------------------------------------------------------- scans

def energy_scan(config: MemoryConfig, signal: PulseShape, write: PulseShape,
                read: PulseShape, write_energies_nj,
                dt_ns: float = 0.01) -> np.ndarray:
    """Total efficiency versus write energy at fixed read/write energy ratio."""
    energies = np.asarray(write_energies_nj, dtype=float)
    if write.energy <= 0:
        raise DomainError("the template write pulse must carry energy")
    ratio = read.energy / write.energy
    writes = [replace(write, energy=float(e)) for e in energies]
    reads = [replace(read, energy=float(e) * ratio) for e in energies]
    signals = [signal] * len(writes)
    return batch_efficiency(config, signals, writes, reads, 0.0, dt_ns)


def bandwidth_scan(config: MemoryConfig, signal: PulseShape, write: PulseShape,
                   read: PulseShape, signal_fwhms_ns,
                   dt_ns: float = 0.01, refine_rounds: int = 3) -> np.ndarray:
    """Total efficiency versus signal pulse width, re-optimized per point.

    For each signal width the control energy is re-tuned by a bracketing
    local search (read/write energy ratio fixed); the control pulse widths
    stay at their operating values, matching a setup whose pulse shaping is
    bandwidth limited.  The curve therefore measures the acceptance
    bandwidth of the operating configuration, not the envelope over all
    control shapes.
    """
    fwhms = np.asarray(signal_fwhms_ns, dtype=float)
    if refine_rounds < 1:
        raise DomainError("at least one refinement round required")
    if write.energy <= 0:
        raise DomainError("the template write pulse must carry energy")
    ratio = read.energy / write.energy
    scales = np.array([0.4, 0.63, 0.8, 0.9, 1.0, 1.12, 1.25, 1.6, 2.5])
    # each width keeps its own centre energy and best; a round evaluates
    # every width's scales in one batch
    centers = np.full(len(fwhms), write.energy)
    best = np.full(len(fwhms), -1.0)
    signals = [replace(signal, fwhm_ns=float(fw)) for fw in fwhms
               for _ in scales]
    for _ in range(refine_rounds):
        energies = (centers[:, None] * scales).ravel()
        writes = [replace(write, energy=float(e)) for e in energies]
        reads = [replace(read, energy=float(e * ratio)) for e in energies]
        effs = batch_efficiency(config, signals, writes, reads, 0.0,
                                dt_ns).reshape(len(fwhms), len(scales))
        k = np.argmax(effs, axis=1)
        top = effs[np.arange(len(fwhms)), k]
        better = top > best
        best = np.where(better, top, best)
        centers = np.where(better, centers * scales[k], centers)
    return best


def mean_photon_from_counts(detected_counts: float, path_transmission: float) -> float:
    """Mean photon number at the memory input from detected counts."""
    if not (0.0 < path_transmission <= 1.0):
        raise DomainError("path transmission must lie in (0, 1]")
    if detected_counts < 0:
        raise DomainError("counts must be non-negative")
    return detected_counts / path_transmission
