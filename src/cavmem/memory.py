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
decay law exactly.  One rule (`_dephase`) applies the kernel and gives
the excitation it removes, |S|^2 (1 - |kernel|^2), which is booked as its
own loss channel where the kernel acts, so the photon bookkeeping closes:
the input photons are the signal's photon number, the RK4 chunks and the
drive-free spans book the rest, each chunk from the fluxes at all of its
own grid points, and `closure_residual` in `SimulationResult.integrator` is
the share of them that no channel books.

The efficiency (1 - zeta) C_ret / C_ref needs the control-off reference
counts C_ref.  With the control off S decouples and (a, P) is a linear
time-invariant filter, so the reference has a closed form from the two
poles of its reflection r(w): C_ref is the Gaussian input spectrum weighted
by |r(w)|^2, and the reference flux that `store` reports is the Gaussian
input convolved with the two poles' decays; both integrate to Faddeeva
functions, which `_faddeeva` evaluates in numpy from Weideman's rational
series (SIAM J. Numer. Anal. 31, 1497 (1994)) to about 1e-15 relative over
the upper half plane.  Only the control-on run is integrated.  The formula
is stated once, in `total_efficiency`: a signal without photons has C_ref =
0 and no efficiency, so it raises DomainError rather than reading 0.

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
is left there is the residual excitation.  One routine (`_carry`) carries
a lane over any such span: to t_mid, through the kernel, and on, booking
the output before t_mid as leak and after it as retrieved, the losses and
the dephasing loss; a span that t_mid lies outside of takes a kernel of
exactly 1, which keeps its bits.  One rule places the kernel and the jump:
both act between chunks of RK4 steps.  A chunk ends where a lane steps
onto t_mid's grid point, and the kernel acts on the state there before it
is booked; a chunk ends at each jump too, and the jump's span takes the
kernel where t_mid lies inside it, (k_free, k_read].  Output up to t_mid
is leak and after it retrieved.  The events depend only on the lane's
pulses, and a chunk's end moves no bit, so a lane's results do not depend
on the other lanes of its batch.

One loop runs over the chunks.  A pass of it steps chunks, each chunk is
joined into one table of the lanes' states, and one booking books the table
at each jump and at the pass's end.  A batch passes one chunk at a time,
stepped from its lanes' own states, so the join is the chunk itself and a
lane's bits are the same alone and in any batch; the GA's reproducibility
rests on that, and at wide batches blocks would cost 2.5-4 times the
arithmetic.  The single storage run, one lane over thousands of steps
whose cost is the numpy calls of a step and not its arithmetic, passes a
wave of its time axis in blocks side by side instead.  Blocks end at
t_mid like any chunk, so none holds the kernel.  The memory is linear, so
each block steps from rest with the input drive and from the unit states
of a, P and S without it, and the join adds the block's propagator
applied to the state joined at its start: superposition makes it exact
(parallel-in-time integration of a linear system; Gander, "50 years of
time parallel time integration", 2015).  The join moves bits by a few
ulps, within the budget of the benchmark record.

Every storage run goes through one admission check and one grid rule.
Admission (`_admit`) refuses a batch before anything is allocated: lit
pulse windows that overlap, a time step that is not finite and positive,
a lit pulse whose FWHM spans fewer than four steps (`pulse_unresolved`,
which the optimizer applies too), and more than a fixed number of grid
points or lane-steps, counted from the lanes' events.  Integration
(`_integrate`) runs the admitted lanes on the grid from the earliest
lane's start to the latest lane's end.  The RK4 stability guard bounds
both the fast polariton branch and the spin wave's own rotation at its
two-photon detuning.

All simulations are pure functions of (config, pulses, drift); scans evaluate
their points as one vectorized batch (the bandwidth scan one batch per
refinement round, over the widths whose centre energy moved in the round
before), so results cannot depend on evaluation order.

The lanes of a lifetime scan share the signal, the write and the read's
shape; only the storage time differs.  A lane whose t_mid lies inside its
jump is its shared write, one exact propagator and a shared read.  So the
scan integrates the write once, up to k_free, on the time-block schedule;
carries its state from there to each lane's read start with the exact
propagator (`_carry`), over a real-valued span with no floor to the grid,
taking the kernel on the way; and integrates the read and the ring-down once, on a
clock anchored to the read start, from nine probe states of (a, P, S).  The
read is linear in its start state, so each channel it books is a Hermitian
form in that state, fixed by its values on the probes.  The signal and the
write count as zero in the read and the read in the write, as in the jump.
The other lanes, whose read opens before the write window closes or whose
t_mid falls inside the read (short storage times), are one batch on the
lane schedule.  The scan is admitted once, both sets of lanes run from
that one admission's parameter arrays, and one closed-form control-off
call gives every lane's reference counts.  A storage time's efficiency has
the same bits alone and in any scan, and a shared lane's differs from its
lane schedule's by rounding where its read start lies on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from operator import attrgetter

import numpy as np

from . import atomic, cavity
from .cavity import CavityParams
from .constants import AtomConstants
from .errors import DomainError, NumericalError, require_finite

__all__ = [
    "PulseShape", "MemoryConfig", "SimulationResult",
    "simulate_storage_retrieval", "simulate_batch", "batch_efficiency",
    "pulses_overlap", "pulse_unresolved", "total_efficiency",
    "lifetime_model", "one_over_e_lifetime_ns", "lifetime_scan",
    "oscillation_suppression", "snr_db", "bandwidth_scan", "energy_scan",
    "mean_photon_from_counts", "CHANNELS",
]

TWO_PI = 2 * math.pi
_LN2 = math.log(2)

# the photon ledger's booked channels as simulate_batch names them, in the
# order the closure residual sums them; the last five are the bookkeeping's
CHANNELS = ("leak_counts", "retrieved_counts", "loss_polarization", "loss_spin",
            "loss_cavity_internal", "loss_dephasing", "residual_excitation")


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
        # a negative width would make its damping a gain, and the memory
        # would emit more photons than it receives
        if min(self.spin_fwhm_mhz, self.intermediate_natural_fwhm_mhz) < 0:
            raise DomainError("spin and intermediate natural widths must be non-negative")
        if self.noise_photons_per_pulse < 0:
            raise DomainError("noise photons per pulse must be non-negative")
        if self.insertion_loss is not None and not (0.0 <= self.insertion_loss < 1.0):
            raise DomainError("insertion loss must lie in [0, 1)")
        if min(self.line_amp_main, self.line_amp_beat) < 0 \
                or self.line_amp_main + self.line_amp_beat == 0:
            raise DomainError("line amplitudes must be non-negative and not both zero")
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
    # dt_ns, loop and lane steps, the steps of its longest time block,
    # lambda_max dt and its stability margin of the run's one storage lane,
    # and its photon-closure residual
    integrator: dict

    def __post_init__(self):
        for v in (self.reference_counts, self.leak_counts, self.retrieved_counts):
            if v < -1e-9:
                raise NumericalError("negative photon counts")


# ------------------------------------------------------------ integrator

# lane-steps whose drives and fluxes are evaluated together: 64 steps of a
# narrow batch, fewer for wide ones so that memory stays bounded
_CHUNK_LANE_STEPS = 4096
# steps of a chunk of the time-block schedule (see _integrate_batch), and
# the lane-steps of the blocks that it steps together, so that memory stays
# bounded
_BLOCK_STEPS = 48
_WAVE_LANE_STEPS = 1 << 15
# the most lane-steps, and grid points, that a batch may take: over five
# times the largest batch that a test or a benchmark workload runs (320
# random lanes, 723 200 lane-steps at dt 0.02)
_MAX_LANE_STEPS = 4_000_000
# the fewest grid steps across the FWHM of a pulse that carries energy (see
# pulse_unresolved); a power of two, so that FWHM / _FWHM_STEPS, the largest
# step that resolves a pulse, is exact
_FWHM_STEPS = 4


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
    """Map each step to the array of those of `lanes` that have an event
    there."""
    out: dict[int, list] = {}
    for step, lane in zip(steps.tolist(), lanes.tolist()):
        out.setdefault(step, []).append(lane)
    return {step: np.array(at) for step, at in out.items()}


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


def _rates(par: dict):
    """The drive-free rates of each lane: `diag`, the rates (c_a, c_p, c_s)
    of (a, P, S); ig, their coupling; the eigenvalues of the (a, P) block
    (see _ap_eigenvalues); and the loss rates of (a, P, S), internal cavity
    loss, polarization and spin."""
    c_a, c_p, s_ap = _ap_eigenvalues(par)
    diag = np.stack([c_a, c_p, -(par["gamma_s"] / 2 + 1j * par["delta_2"])])
    loss_rates = np.stack([par["kappa"] - par["kappa_ext"], par["gamma_p"],
                           par["gamma_s"]])
    return diag, 1j * par["g"], s_ap, loss_rates


def _dephase(spin, kernel):
    """S after the dephasing kernel, and the excitation that the kernel
    removes, |S|^2 (1 - |kernel|^2); a kernel of 1 keeps S's bits and
    removes 0."""
    return spin * kernel, np.abs(spin) ** 2 * (1 - np.abs(kernel) ** 2)


def _carry(y, rates, kappa_ext, before, after, kernel):
    """Carry y = (a, P, S) without drive over the times `before`, up to t_mid,
    then through the kernel (see _dephase), then over the times `after`.
    `rates` is the tuple (diag, ig, s, loss_rates) of _rates.  Returns the
    end state and what the span books, in the rows of a count table (see
    _by_channel)."""
    y_mid, to_mid = _free_evolution(y, *rates[:3], before)
    y_mid[2], dephasing = _dephase(y_mid[2], kernel)
    y_end, from_mid = _free_evolution(y_mid, *rates[:3], after)
    return y_end, np.vstack([kappa_ext * to_mid[0], kappa_ext * from_mid[0],
                             rates[3] * (to_mid + from_mid), dephasing])


def _by_channel(rows) -> dict:
    """The rows of a count table, which the integrator and _carry book, by
    their names in CHANNELS: the output before t_mid (leak), the output
    after it (retrieved), the losses of a, P and S (cavity-internal,
    polarization and spin) and the dephasing loss."""
    leak, retrieved, loss_cav, loss_pol, loss_spin, dephasing = rows
    return dict(zip(CHANNELS, (leak, retrieved, loss_pol, loss_spin, loss_cav, dephasing)))


def _in_span(k, k_a, k_b):
    """Whether grid index k lies in the span (k_a, k_b]: a lane steps onto
    it there, or a jump from k_a to k_b carries it past it."""
    return (k_a < k) & (k <= k_b)


def _unbooked(ledger: dict, n_in):
    """The one closure rule: the share of the input photons n_in that no
    channel of the ledger books, summed in CHANNELS order; nan for a lane
    without input photons."""
    return 1.0 - np.divide(sum(ledger[k] for k in CHANNELS), n_in,
                           out=np.full(len(n_in), np.nan), where=n_in > 0)


def _loop_steps(k_start, k_free, k_read, k_close) -> int:
    """The RK4 steps of a batch's loop: its longest lane's, from its start
    to its close less the storage time that it jumps."""
    return int(np.max(k_close - k_start - np.maximum(k_read - k_free, 0)))


def _integrate_batch(par: dict, t0: float, t1: float, dt: float,
                     keep_flux: bool = False, blocks: bool = False,
                     start_state=None) -> dict:
    """Vectorized RK4 for a batch of simulations, each lane on its own clock.

    `par` holds per-individual parameter arrays (see _pulse_par_arrays).  The
    grid points are t_k = k dt and [t0, t1] must lie on them; it spans
    every lane's window.  A lane's one clock is its grid index, and its
    events are grid indices (see _lane_steps).  It RK4-steps in chunks
    from rest at k_start, except over its storage time from k_free to
    k_read, which it jumps after k_free - k_start steps, and its ring-down
    from k_close to k_end: there the exact propagator carries it.  The
    kernel and the jump act between chunks: a chunk ends where a lane steps
    onto k_mid, where the loop applies the kernel to its last row, and at
    every jump, after which the lane goes on from k_read; a k_mid inside
    the jump, (k_free, k_read], is the jump's.  So each RK4 stage sees the
    drives at the lane's true time, no stage sees the kernel, and the loop
    ends once every lane has reached k_close.  Either span is carried by
    _carry, which applies the kernel and books what it removes where t_mid
    lies in the span, and the loop's event applies _dephase; the count table
    holds a row per channel (see _by_channel), the dephasing loss included,
    so every channel but the residual excitation is booked where it arises.

    One loop runs over the chunks.  Each pass steps chunks (step_pass), the
    loop joins each into one table of the lanes' states at its grid points,
    y_start being the joined state at the chunk's start (after the event
    that ended the chunk before), and one call of `book` books the table at
    each jump and at the pass's end.  The lane schedule passes one chunk,
    one copy of the lanes stepped from y_start by the batch's one stepper
    in that table itself, so its join y = p copies nothing.  A lane's events
    depend only on its own pulses, and a chunk's end moves no bit of a
    lane, so its results do not depend on the other lanes of the batch, nor
    on its width: every batch keeps this schedule.  With `blocks` (the
    single storage run) the loop takes chunks of at most _BLOCK_STEPS steps
    and passes a wave of them side by side, as the memory is linear: four
    copies of the lanes each, from rest under the input drive (the first
    chunk from the lanes' rest) and from the unit states of a, P and S
    without it, each under the control drives of its own time.  It joins
    them by superposition, y = Phi y_start + p.  The join moves bits by a
    few ulps, and a block costs about four times the arithmetic of its
    lane, so blocks pay only where a step costs its numpy calls rather than
    its lanes; the first chunk, stepped from the lanes' rest, keeps every
    bit of the lane schedule.

    `start_state`, when given, holds each lane's state (a, P, S) at k_start
    in place of rest, and the drives of that first point are not zeroed.
    With `blocks` such lanes must share lane 0's pulses and rates and
    differ only in it, as the probes of the lifetime scan's read do (see
    _one_write_many_reads): the blocks step lane 0 alone, and every lane
    joins on its Phi and p.  A wave is bounded by the lanes it steps, the
    table that a booking takes by the lanes it books.

    Returns the grid `ts`; per individual the channels of CHANNELS,
    `input_photons` = sig_n and `closure_residual` (nan where there are no
    input photons); the grid steps each lane advances (`loop_steps`), their
    sum over the batch (`lane_steps`) and the steps of the longest block
    (`block_steps`); the largest lambda_max dt of the batch and its
    stability margin, the factor by which dt could grow before the guard
    (lambda_max dt <= 2.5) refuses it; and the output flux on the grid
    `out_flux` when `keep_flux` is set, whose rows outside a lane's window
    stay zero; and each lane's state at its end, `state_end`.
    """
    # the grid comes from the indices of t0 and t1: ceil of the float
    # (t1 - t0) / dt can land one step past t1
    k0, k1 = int(round(t0 / dt)), int(round(t1 / dt))
    ts = dt * np.arange(k0, k1 + 1)
    b = len(par["kappa"])

    # y = (a, P, S): dy/dt = diag * y + coupling to the neighbour + drive
    diag, ig, _, loss_rates = rates = _rates(par)
    # explicit RK4 stability guard against the fast polariton branch, and
    # against the spin wave's own rotation at its two-photon detuning
    lam_max = float(np.max(np.maximum(
        0.5 * np.abs(par["delta_c"] + par["delta_p"])
        + np.sqrt(par["g"] ** 2 + 0.25 * (par["delta_c"] - par["delta_p"]) ** 2)
        + 0.5 * par["kappa"], np.abs(diag[2]))))
    guard = 2.5
    if lam_max * dt > guard:
        raise NumericalError(
            f"time step {dt} ns too large for the fastest mode "
            f"({lam_max:.1f} rad/ns); reduce dt below {guard / lam_max:.3g} ns")

    sqrt_kext = np.sqrt(par["kappa_ext"])
    kernel = par["kernel"]
    k_start, k_mid, k_free, k_read, k_close, k_end = _lane_steps(par, dt)
    # the events scheduled ahead, by the loop steps before them: the jump,
    # and the kernel where a lane steps onto k_mid (less the jumped steps
    # after a jump; a k_mid inside the jump is the jump's, and one at or
    # before a lane's start, behind a dark read, is never stepped onto);
    # the loop ends when the last lane has stepped to k_close
    jumped = np.maximum(k_read - k_free, 0)
    jumps = np.flatnonzero(jumped)
    jump_at = _lanes_by_step(k_free[jumps] - k_start[jumps], jumps)
    mids = np.flatnonzero((k_start < k_mid) & ~_in_span(k_mid, k_free, k_read))
    mid_at = _lanes_by_step((k_mid - k_start - jumped * (k_mid > k_free))[mids], mids)
    n_iter = _loop_steps(k_start, k_free, k_read, k_close)

    def schedule(size):
        """The loop's chunks of at most `size` steps, each as its steps m,
        every lane's grid index at its start, the lanes that jump after it
        and those that take the kernel at its end (None where none does).
        The chunk (base, base + m] ends at the next event, so each lane's
        grid indices run on."""
        base, done, chunks = k_start.copy(), 0, []
        for stop in sorted(set(jump_at) | set(mid_at) | {n_iter}):
            while done < stop:
                m = min(size, stop - done)
                chunks.append([m, base.copy(), None, None])
                base += m
                done += m
            jumping = jump_at.get(stop)
            chunks[-1][2:] = jumping, mid_at.get(stop)
            if jumping is not None:
                base[jumping] = k_read[jumping]
        return chunks

    chunks = schedule(_BLOCK_STEPS if blocks else
                      max(4, min(64, _CHUNK_LANE_STEPS // b)))
    size = max(chunk[0] for chunk in chunks)
    # The step in scaled form: each stage K is h = dt/2 times the
    # derivative (dt times it for the third), so a stage input is y + K and
    # the step ends as y + (K1 + 2 K2 + K3 + K4) / 3.  A state is carried as
    # (1, a, P, S): its constant row 0 makes the force h sqrt(kappa_ext) a_in
    # the lower coupling of row a, so K = (h diag) (a, P, S) + up (P, S)
    # + down (1, a, P), with up = h (ig, W/2) and
    # down = h (sqrt(kappa_ext) a_in, ig, W*/2): five ufunc calls a stage
    # and 29 a step.  A block's columns without the input drive carry 0 in
    # that row.  This moves bits from the plain RK4 formulas; the budget in
    # tests/test_record_bench.py bounds how far (1e-12 relative on every
    # fingerprint of the committed record).
    # Every table of a stepper is made once: the stages, the stage input z,
    # the states, a row block for products; and up and down on 2 size + 1
    # half-step points and, doubled, on the odd points for the third stage,
    # whose ig rows never change.  The drives enter through per-lane
    # coefficients of the Gaussians of _drives: h sqrt(kappa_ext) sig_amp and
    # h 0.5j omega.  Each table is carried as its row views, so a step makes
    # no array; its ufuncs take `out` by position and its scalar as a
    # complex number, which numpy would otherwise convert on every call
    h = 0.5 * dt
    diag_h = h * diag
    diag_dt = diag_h + diag_h
    c_in = (h * sqrt_kext) * par["sig_amp"]
    c_up = (h * 0.5j) * np.stack([par["omega_w"], par["omega_r"]])
    mul, add = np.multiply, np.add
    c_third = np.complex128(1 / 3)

    def views(x):
        """Rows (a, P, S), (P, S) and (1, a, P) of a state."""
        return x[1:], x[2:], x[:3]

    def stepper(cols, copies):
        """RK4 over `copies` copies of the columns `cols` of the lanes, which
        share their drives.  Copy 0 takes the input drive through its
        constant row 1; the others carry 0 there and leave it out.  Returns
        the table of the states, copy-major, and advance(base, m, rest): m
        steps from the states in row 0 of the table and the columns' grid
        indices `base`, with the drives of the columns `rest` zeroed at that
        first point.  It fills rows 1..m and returns the signal's Gaussian
        on its half-step points.  No event acts inside a chunk."""
        lane_par = {k: par[k][cols] for k in ("sig_c", "sig_q", "w_c", "w_q",
                                              "r_c", "r_q", "chirp_r")}
        n_cols = len(lane_par["sig_c"])
        width = copies * n_cols

        def each(x):
            """x of the columns for every copy, as (..., copies, n_cols)."""
            return np.broadcast_to(x[..., None, cols], x.shape[:-1] + (copies, n_cols))

        rates_h, rates_dt = (each(d).reshape(3, width) for d in (diag_h, diag_dt))
        coef_in, coef_up = each(c_in), each(c_up)
        ig_h = each(h * ig).ravel()
        const = np.zeros((copies, n_cols))
        const[0] = 1.0

        def stage():
            k = np.empty((3, width), dtype=complex)
            return k, k[:2]

        k1, k2, k3, k4 = (stage() for _ in range(4))
        z_all = np.empty((4, width), dtype=complex)
        z_all[0] = const.ravel()
        z = views(z_all)
        z_body = z[0]
        pair = np.empty((3, width), dtype=complex)
        pair_head = pair[:2]
        states = np.empty((size + 1, 4, width), dtype=complex)
        states[:, 0] = const.ravel()
        rows = [views(s) for s in states]
        up = np.empty((2 * size + 1, 2, width), dtype=complex)
        down = np.empty((2 * size + 1, 3, width), dtype=complex)
        up3 = np.empty((size, 2, width), dtype=complex)
        down3 = np.empty((size, 3, width), dtype=complex)
        up[:, 0] = down[:, 1] = ig_h
        up3[:, 0] = down3[:, 1] = ig_h + ig_h
        # the drive rows with the copies apart, to broadcast the Gaussians
        up_w = up[:, 1].reshape(-1, copies, n_cols)
        down_in = down[:, 0].reshape(-1, copies, n_cols)
        ups, downs, ups3, downs3 = list(up), list(down), list(up3), list(down3)

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

        def advance(base, m, rest):
            n = 2 * m + 1
            g_sig, g_w, g_r = _drives(lane_par, 2 * base + np.arange(n)[:, None], dt)
            if rest is not None:      # a column that rests at its k_start
                g_sig[0, rest] = g_w[0, rest] = g_r[0, rest] = 0
            mul(coef_in, g_sig[:, None], down_in[:n])
            mul(coef_up[0], g_w[:, None], up_w[:n])
            add(up_w[:n], coef_up[1] * g_r[:, None], up_w[:n])
            np.negative(np.conj(up[:n, 1]), down[:n, 2])   # h 0.5j W* = -(h 0.5j W)*
            add(up[1:n:2, 1], up[1:n:2, 1], up3[:m, 1])
            add(down[1:n:2, ::2], down[1:n:2, ::2], down3[:m, ::2])
            for r in range(m):
                e = 2 * r
                y_r = rows[r]
                y_body = y_r[0]
                deriv(k1, y_r, rates_h, ups[e], downs[e])
                add(y_body, k1[0], z_body)           # z = y + K1
                deriv(k2, z, rates_h, ups[e + 1], downs[e + 1])
                add(y_body, k2[0], z_body)
                deriv(k3, z, rates_dt, ups3[r], downs3[r])
                add(y_body, k3[0], z_body)
                deriv(k4, z, rates_h, ups[e + 2], downs[e + 2])
                acc = k2[0]                          # (K1 + 2 K2 + K3 + K4) / 3, in K2
                add(acc, acc, acc)
                add(acc, k1[0], acc)
                add(acc, k3[0], acc)
                add(acc, k4[0], acc)
                mul(c_third, acc, acc)
                add(y_body, acc, rows[r + 1][0])
            return g_sig

        return states, advance

    # each lane's leak, retrieved, cavity-internal, polarization, spin and
    # dephasing counts, and its state at k_close
    counts = np.zeros((6, b))
    y_close = np.zeros((3, b), dtype=complex)
    out_flux = np.zeros((len(ts), b)) if keep_flux else None
    # A pass steps one chunk from the lanes' own states, one copy of them
    # with the batch's one stepper; or, with `blocks`, a wave of chunks side
    # by side, four copies of the stepped lanes each, a wave bounding the
    # memory: every lane, or lane 0 alone for lanes given their start
    # states.  What one booking takes, the chunks joined up to the next jump
    # or the end of `joined` chunks, which bounds its memory: the lanes'
    # states, signal Gaussians, fluxes (output, cavity, P, S) and count
    # steps at their grid points, row 0 at its start.  The lane stepper
    # keeps the states in its own table, so that its join, y = p, copies
    # nothing
    stepped = 1 if blocks and start_state is not None else b
    copies, wave, joined = (4, *(max(1, _WAVE_LANE_STEPS // (4 * w * size))
                                 for w in (stepped, b))) if blocks else (1, 1, 1)
    lane_stepper = None if blocks else stepper(slice(None), 1)
    span = joined * size
    states = lane_stepper[0] if lane_stepper else np.empty((span + 1, 4, b), dtype=complex)
    # every lane rests at first, unless it is given its start state
    states[0, 1:] = 0.0 if start_state is None else start_state
    y = states[0]
    g_sig = np.empty((span + 1, b))
    fluxes = np.empty((span + 1, 4, b))
    steps = np.empty((span + 1, 5, b))

    def drive_free(lanes, y_a, k_a, k_b):
        """Carry `lanes` without drive from their states y_a at grid index k_a
        to k_b (see _carry) and return their states there; the kernel acts
        where t_mid lies in (k_a, k_b], and a lane whose t_mid lies outside
        takes a kernel of 1.  Books the span and fills the flux rows
        k_a+1..k_b, which follow from y_a alone since a does not see the
        kernel."""
        sub = tuple(x[..., lanes] for x in rates)
        n_before = np.clip(k_mid[lanes] - k_a, 0, k_b - k_a)
        # t_mid never lies in the ring-down, since t_close closes the write
        # window too
        y_b, booked = _carry(y_a, sub, par["kappa_ext"][lanes], n_before * dt,
                             (k_b - k_a - n_before) * dt,
                             np.where(_in_span(k_mid[lanes], k_a, k_b), kernel[lanes], 1))
        counts[:, lanes] += booked
        if keep_flux:
            for j, lane in enumerate(lanes.tolist()):
                a_t = _free_evolution(y_a[:, j:j + 1], *(x[..., j:j + 1] for x in sub[:3]),
                                      dt * np.arange(1, k_b[j] - k_a[j] + 1))[0][0]
                out_flux[k_a[j] - k0 + 1:k_b[j] - k0 + 1, lane] = \
                    par["kappa_ext"][lane] * np.abs(a_t) ** 2
        return y_b

    def book(m, base, jumping):
        """Book the m steps (base, base + m] from states[:m + 1] and the
        signal's Gaussian g_sig[:m + 1] at their grid points: the fluxes at
        all of them, the start included, then a trapezoid per step; a lane
        counts and keeps its flux up to k_close, the ring-down after.  Then
        carry the lanes on to the next start, over the jump of `jumping`."""
        flux = fluxes[:m + 1]
        stepped = states[:m + 1, 1:]
        flux[:, 0] = np.abs(sqrt_kext * stepped[:, 0] - par["sig_amp"] * g_sig[:m + 1]) ** 2
        flux[:, 1:] = loss_rates * np.abs(stepped) ** 2
        k_grid = base + 1 + np.arange(m)[:, None]
        # the state of each lane whose drives end in these steps
        closed = np.flatnonzero(_in_span(k_close, base, base + m))
        if closed.size:
            y_close[:, closed] = states[k_close[closed] - base[closed], 1:, closed].T
        live = k_grid <= k_close
        if keep_flux:
            out_flux[k_grid[live] - k0, np.nonzero(live)[1]] = flux[1:, 0][live]
        trap = h * (flux[:-1] + flux[1:])
        before = k_grid <= k_mid
        steps[0] = counts[:5]
        steps[1:m + 1, 0] = trap[:, 0] * (live & before)
        steps[1:m + 1, 1] = trap[:, 0] * (live & ~before)
        steps[1:m + 1, 2:] = trap[:, 1:] * live[:, None]
        # a sum in step order, so each lane adds its own terms in the same
        # sequence whatever batch it is part of
        counts[:5] = np.add.reduce(steps[:m + 1], axis=0)
        y[...] = states[m]            # the next steps start from here
        if jumping is not None:
            # the jump from k_free to k_read, after which the loop goes on
            y_body = y[1:]
            y_body[:, jumping] = drive_free(jumping, y_body[:, jumping], k_free[jumping],
                                            k_read[jumping])

    def step_pass(first, last):
        """Step the chunks first..last-1 side by side, `copies` copies of the
        stepped lanes each: one from their states y, or four, from rest with
        the input drive and from the unit states of a, P and S without it.
        Returns per chunk its states p and Phi ([step, row, unit state,
        lane]; the first chunk's p starts from the lanes' rest, where their
        drives are zeroed unless they are given start states) and the
        signal's Gaussian at its grid points."""
        n = last - first
        table, advance = lane_stepper or stepper(np.tile(np.arange(stepped), n), copies)
        if copies > 1:      # the lane stepper's table starts at y already
            table[0, 1:] = 0.0
            for j in range(3):
                table[0, 1 + j, (1 + j) * n * stepped:(2 + j) * n * stepped] = 1.0
        bases = [chunks[i][1][:stepped] for i in range(first, last)]
        g_pass = advance(np.concatenate(bases), max(chunks[i][0] for i in range(first, last)),
                         slice(0, stepped) if first == 0 and start_state is None
                         else None)[::2]
        table = table[:, 1:].reshape(size + 1, 3, copies, n, stepped)
        return [(table[:, :, 0, c], table[:, :, 1:, c],
                 g_pass[:, c * stepped:(c + 1) * stepped]) for c in range(n)]

    at = 0
    for i, (m, base, jumping, dephased) in enumerate(chunks):
        if i % wave == 0:
            passed = step_pass(i, min(i + wave, len(chunks)))
        p, phi, g_chunk = passed[i % wave]
        if at == 0:
            start, g_sig[0] = base, g_chunk[0]
        # join the chunk to the joined state at its start (after the jump or
        # the kernel where one acts there): y = p where the chunk stepped
        # from that state, y = Phi y_start + p for time blocks
        g_sig[at + 1:at + m + 1] = g_chunk[1:m + 1]
        if copies > 1:
            states[at + 1:at + m + 1, 1:] = p[1:m + 1] + np.einsum(
                "rij...,j...->ri...", phi[1:m + 1], states[at, 1:])
        at += m
        if dephased is not None:
            # the kernel at the chunk's last row, k_mid, before it is booked
            states[at, 3, dephased], lost = _dephase(states[at, 3, dephased],
                                                     kernel[dephased])
            counts[5, dephased] += lost
        if jumping is not None or (i + 1) % joined == 0 or i + 1 == len(chunks):
            book(at, start, jumping)
            at = 0

    # the ring-down: after k_close nothing drives a lane
    y_end = drive_free(np.arange(b), y_close, k_close, k_end)
    # what is left at the end is the residual excitation
    ledger = {**_by_channel(counts),
              "residual_excitation": np.sum(np.abs(y_end) ** 2, axis=0)}
    n_in = par["sig_n"]
    return dict(ts=ts, out_flux=out_flux, **ledger, input_photons=n_in,
                closure_residual=_unbooked(ledger, n_in), state_end=y_end,
                loop_steps=n_iter, lane_steps=n_iter * b,
                block_steps=size if blocks else n_iter,
                lam_max_dt=lam_max * dt, stability_margin=guard / (lam_max * dt))


# Weideman's series for the Faddeeva function: N terms, scale L = sqrt(N / sqrt 2)
_FADDEEVA_TERMS = 40
_FADDEEVA_L = math.sqrt(_FADDEEVA_TERMS / math.sqrt(2))


@cache
def _faddeeva_coefficients():
    """The series' coefficients a_N ... a_1, highest first for Horner: the
    DFT of f(t) = e^{-t^2} (L^2 + t^2) at t = L tan(k pi / 2M), M = 2N,
    |k| < M (f is even, L^2 at k = 0 and 0 at k = -M, so the DFT is a
    cosine sum over k > 0).  Made on first use, not at import."""
    m = 2 * _FADDEEVA_TERMS
    k = np.arange(1, m)
    t = _FADDEEVA_L * np.tan(k * (math.pi / (2 * m)))
    f = np.exp(-t ** 2) * (_FADDEEVA_L ** 2 + t ** 2)
    n = np.arange(_FADDEEVA_TERMS, 0, -1)
    return (_FADDEEVA_L ** 2 + 2 * np.cos(np.outer(n, k) * (math.pi / m)) @ f) / (2 * m)


def _faddeeva(z):
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0, from
    Weideman's rational series (SIAM J. Numer. Anal. 31, 1497 (1994)):
    w(z) = 2 p(Z) / (L - iz)^2 + pi^{-1/2} / (L - iz), Z = (L + iz) / (L - iz),
    with p the polynomial of `_faddeeva_coefficients`; about 1e-15 relative
    there."""
    coefficients = _faddeeva_coefficients()
    iz = 1j * np.asarray(z)
    d = _FADDEEVA_L - iz
    big_z = (_FADDEEVA_L + iz) / d
    p = np.full(d.shape, coefficients[0], dtype=complex)
    for c in coefficients[1:]:
        p *= big_z
        p += c
    return (2 * p / d + 1 / math.sqrt(math.pi)) / d


def _control_off(par: dict, ts=None):
    """Control-off output of every lane, in closed form: its counts C_ref
    and, on the grid `ts` when it is given, its flux |a_out|^2 (None
    otherwise), one column per lane.

    With the control off S decouples and (a, P) is a linear time-invariant
    filter, r(w) = kappa_ext / ((-iw - c_a) + g^2 / (-iw - c_p)) - 1, with
    one pole w_j = i s_j per eigenvalue s_j of the (a, P) block, each in the
    lower half plane or, undamped and uncoupled, on the real axis:
    r = -1 + sum_j beta_j / (w - w_j).
    - C_ref = n int |r(w)|^2 W(w) dw, with W the normalized power spectrum
      of the Gaussian input amplitude, exp(-2 sigma^2 w^2).  Since
      |r|^2 = 1 + 2 Re sum_j C_j / (w - w_j), each term integrates against
      the Gaussian to a Faddeeva function w(z).
    - The flux: pole j answers a_in = sig_amp e^{-x^2 / 4 sigma^2}, with
      x = t - sig_c, by -i beta_j int_0^inf e^{s_j u} a_in(t - u) du
      = -i beta_j sig_amp sigma sqrt(pi) e^{-x^2 / 4 sigma^2}
      w(-i sigma (x / 2 sigma^2 + s_j)) (Abramowitz & Stegun 7.4.2), and
      a_out = -a_in + the sum over j.  Where Im z < 0, w(z) = 2 e^{-z^2}
      - w(-z), with the Gaussian folded into the exponent.
    Every w is `_faddeeva` (Weideman 1994), at an argument with Im >= 0.
    """
    sigma = par["sig_f"] / (2 * math.sqrt(2 * _LN2))
    c_a, c_p, s = _ap_eigenvalues(par)
    poles = 1j * s
    beta = 1j * par["kappa_ext"] * (s - c_p) / (s - s[::-1])  # r = -1 + sum beta_j / (w - w_j)
    # int W(w) / (w - w_j) dw for Im w_j < 0
    z = math.sqrt(2) * sigma * poles
    gauss = -1j * math.sqrt(2 * math.pi) * sigma * np.conj(_faddeeva(np.conj(z)))
    # residue of |r|^2 at w_j: beta_j times conj(r) continued to w_j.  A pole
    # on the real axis is an undamped polarization that the cavity does not
    # couple to (g = 0): its beta_j is 0 but for rounding, and it adds
    # nothing, where its own term would be 0 / 0
    with np.errstate(divide="ignore", invalid="ignore"):
        conj_r = -1.0 + np.conj(beta[0]) / (poles - np.conj(poles[0])) \
            + np.conj(beta[1]) / (poles - np.conj(poles[1]))
        terms = np.where(s.real == 0, 0, beta * conj_r * gauss)
    counts = par["sig_n"] * (1.0 + 2.0 * np.real(terms[0] + terms[1]))
    if ts is None:
        return counts, None
    x = ts[:, None] - par["sig_c"]
    envelope = np.exp(-x ** 2 / (4 * sigma ** 2))
    s = s[:, None]
    z = -1j * sigma * (x / (2 * sigma ** 2) + s)
    lower = z.imag < 0
    # e^{-x^2 / 4 sigma^2} w(z), where each Faddeeva argument has Im >= 0;
    # the folded exponent s x + sigma^2 s^2 has a negative real part where
    # Im z < 0, and is left out (e^{-inf}) elsewhere, where it could overflow
    folded = np.exp(np.where(lower, s * x + (sigma * s) ** 2, -np.inf))
    w = 2 * folded + np.where(lower, -envelope, envelope) * _faddeeva(np.where(lower, -z, z))
    a_out = par["sig_amp"] * (math.sqrt(math.pi) * sigma
                              * np.sum(-1j * beta[:, None] * w, axis=0) - envelope)
    return counts, np.abs(a_out) ** 2


def _ring_down_ns(kappa):
    """The span of a lane's window after its last drive window closes: six
    cavity amplitude decay times and 3 ns."""
    return 6.0 / (kappa / 2) + 3.0


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
    beat = (amp_a + amp_b * np.exp(1j * omega_beat * tau)) / (amp_a + amp_b)
    kernel = np.exp(-(math.pi ** 2) * nu ** 2 * tau ** 2 / (8 * _LN2)) * beat
    # drive-free from the end of the write window to the start of the
    # read window, whatever the pulse energies
    t_free = np.maximum(sig_c + 4 * sig_f, w_c + 3 * w_f)
    t_close = np.maximum(r_c + 3 * r_f, t_free)
    tail = _ring_down_ns(config.kappa)

    return dict(
        kappa=np.full(b, config.kappa),
        kappa_ext=np.full(b, config.kappa_ext),
        delta_c=delta_c,
        g=np.full(b, config.coupling_g),
        gamma_p=np.full(b, config.gamma_eff),
        delta_p=np.full(b, TWO_PI * config.intermediate_detuning_ghz),
        gamma_s=np.full(b, config.gamma_m),
        delta_2=d2,
        sig_n=sig_n, sig_c=sig_c, sig_f=sig_f,
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


def pulse_unresolved(pulse: PulseShape, dt_ns: float) -> bool:
    """True when a grid of step dt_ns does not resolve the pulse: it carries
    energy and its FWHM spans fewer than _FWHM_STEPS steps.

    Narrower pulses integrate with errors that grow fast as they narrow
    toward one step, and the closure residual does not flag those of a
    control pulse.  A pulse without energy drives nothing, so it never
    fails; nor does a pulse on a step that is not finite and positive,
    which admission refuses on its own.
    """
    return pulse.energy > 0 and pulse.fwhm_ns < _FWHM_STEPS * dt_ns < math.inf


def _admit(config: MemoryConfig, signals, writes, reads, drift_offset_ghz,
           dt_ns: float) -> dict:
    """Admit a batch of pulse settings: its parameter arrays (see
    _pulse_par_arrays), which _integrate integrates.

    The one admission check of a batch, which the lifetime scan makes once
    for all of its lanes: the batch must hold at least one setting, as many
    signals as writes and reads, and no read window may open before its
    write window closes; the time step must be finite and positive, and
    the grid must resolve every pulse that carries energy (see
    pulse_unresolved); and the batch may take at most _MAX_LANE_STEPS grid
    points and lane-steps, counted from its lanes' events before anything
    is allocated.
    """
    if len(signals) == len(writes) == len(reads) == 0:
        raise DomainError("the batch holds no pulse settings")
    if not len(signals) == len(writes) == len(reads):
        raise DomainError("signals, writes and reads must have equal lengths")
    if any(pulses_overlap(w, r) for w, r in zip(writes, reads)):
        raise DomainError("read and write pulse windows overlap")
    if not (math.isfinite(dt_ns) and dt_ns > 0):
        raise DomainError(f"time step must be finite and positive, got {dt_ns!r}")
    # the narrowest unresolved pulse is the narrowest lit one, which fixes
    # the largest step that resolves the batch
    narrowest = min(((p.fwhm_ns, role, lane) for role, pulses in (
        ("signal", signals), ("write", writes), ("read", reads))
        for lane, p in enumerate(pulses) if pulse_unresolved(p, dt_ns)), default=None)
    if narrowest:
        fwhm, role, lane = narrowest
        raise DomainError(f"the {role} pulse of lane {lane} ({fwhm!r} ns FWHM) spans "
                          f"fewer than {_FWHM_STEPS} steps of {dt_ns!r} ns; a time step "
                          f"of at most {fwhm / _FWHM_STEPS!r} ns resolves it")
    par = _pulse_par_arrays(config, signals, writes, reads, drift_offset_ghz)

    def refuse(work: str):
        wide = int(np.argmax(par["t_end"] - par["t_start"]))
        raise DomainError(
            f"the batch would take {work} at dt {dt_ns} ns, more than the cap of "
            f"{_MAX_LANE_STEPS}: lane {wide}'s window runs from "
            f"{par['t_start'][wide]:.6g} to {par['t_end'][wide]:.6g} ns")

    points = (np.max(par["t_end"]) - np.min(par["t_start"])) / dt_ns
    if not points < _MAX_LANE_STEPS:
        refuse(f"a grid of {points:.4g} points")
    k_start, _, k_free, k_read, k_close, _ = _lane_steps(par, dt_ns)
    lane_steps = len(k_start) * _loop_steps(k_start, k_free, k_read, k_close)
    if lane_steps > _MAX_LANE_STEPS:
        refuse(f"{lane_steps} lane-steps")
    return par


def _integrate(par: dict, dt: float, keep_flux: bool = False, blocks: bool = False,
               start_state=None) -> dict:
    """Integrate the lanes of `par` (see _integrate_batch) on the one grid
    of a storage integration, [dt min k_start, dt max k_end], which spans
    every lane's window."""
    k_start, *_, k_end = _lane_steps(par, dt)
    return _integrate_batch(par, dt * int(k_start.min()), dt * int(k_end.max()), dt,
                            keep_flux, blocks, start_state)


def simulate_batch(config: MemoryConfig, signals, writes, reads,
                   drift_offset_ghz=0.0, dt_ns: float = 0.01,
                   keep_flux: bool = False):
    """Integrate a batch of pulse settings on a common grid.

    Admits the batch (see _admit) and integrates it on the lane schedule,
    so each lane's results keep their bits alone and in any batch.
    Returns the integrator's result (see _integrate_batch), on the grid
    `ts` that spans every lane's window, with each lane's closed-form
    control-off reference counts added as `reference_counts`.  It holds the
    output flux on the grid only when `keep_flux` is set.
    """
    par = _admit(config, signals, writes, reads, drift_offset_ghz, dt_ns)
    result = _integrate(par, dt_ns, keep_flux)
    del result["state_end"]
    return {**result, "reference_counts": _control_off(par)[0]}


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
    result = simulate_batch(config, signals, writes, reads, drift_offset_ghz, dt_ns)
    return total_efficiency(result["retrieved_counts"], result["reference_counts"],
                            0.0 if internal else config.zeta())


def simulate_storage_retrieval(config: MemoryConfig, signal: PulseShape,
                               write: PulseShape, read: PulseShape,
                               drift_offset_ghz: float = 0.0,
                               dt_ns: float = 0.01) -> SimulationResult:
    """Full storage/retrieval run plus its control-off reference.

    One lane is integrated, on the time-block schedule (see
    _integrate_batch): a single run over thousands of steps costs its numpy
    calls, which the blocks share.  The control-off reference, its counts
    and its flux on the run's grid, comes in closed form (see _control_off).
    """
    par = _admit(config, [signal], [write], [read], drift_offset_ghz, dt_ns)
    result = _integrate(par, dt_ns, True, True)
    result["reference_counts"], reference_flux = _control_off(par, result["ts"])
    lane = {k: float(result[k][0]) for k in ("input_photons", "reference_counts", *CHANNELS,
                                             "closure_residual")}
    c_ref, c_ret = lane["reference_counts"], lane["retrieved_counts"]
    return SimulationResult(
        time_grid_ns=result["ts"],
        output_flux=result["out_flux"][:, 0],
        reference_flux=reference_flux[:, 0],
        **{k: lane[k] for k in ("input_photons", "reference_counts", *CHANNELS[:2])},
        internal_efficiency=total_efficiency(c_ret, c_ref, 0.0),
        total_efficiency=total_efficiency(c_ret, c_ref, config.zeta()),
        snr_db=snr_db(c_ret, config.noise_photons_per_pulse),
        bookkeeping={**{k: lane[k] for k in CHANNELS[2:]},
                     "output_total": lane["leak_counts"] + c_ret},
        integrator={"dt_ns": dt_ns,
                    **{k: result[k] for k in ("loop_steps", "lane_steps", "block_steps",
                                              "lam_max_dt", "stability_margin")},
                    "closure_residual": lane["closure_residual"]},
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
        return math.inf if gamma_m_rad_ns == 0 else 1.0 / gamma_m_rad_ns
    return (-gamma_m_rad_ns + math.sqrt(gamma_m_rad_ns ** 2 + 4 * c)) / (2 * c)


def _one_write_many_reads(par: dict, dt: float) -> dict:
    """The channels and closure residual of lanes that share their signal,
    their write and their read's shape, and whose t_mid lies inside their
    jump, k_free < k_mid <= k_read; only their read centres differ.

    The memory is linear, so one write and one read serve every lane.  The
    write, [k_start, k_free], is integrated once, as a lane whose read is
    dark and which ends at k_free; all of its output is leak.  The exact
    propagator (_carry) carries its state at k_free to each lane's read
    start t_read = r_c - 3 r_f, a real-valued span with no floor to the
    grid; the kernel acts on the way at k_mid, where the lane schedule
    applies it too (S evolves alone there, so where it acts moves no state;
    it splits the output into leak and retrieved).  The read and the ring-down are
    integrated once, on a clock anchored to the read start, from nine probe
    states of (a, P, S): the unit states e_j, and e_j + e_k and
    e_j + i e_k for each pair j < k.  Without a drive into it the read is
    linear in its start state y, so each channel it books is a Hermitian
    form y^H G y, fixed by its values on the probes: the sum over j of
    G_jj |y_j|^2 and over the pairs of
    2 Re G_jk Re(y_j* y_k) - 2 Im G_jk Im(y_j* y_k).  The signal and the
    write, whose windows have closed, count as zero in the read, and the
    read in the write, as they do in the jump.  Each channel but the
    residual excitation is what the write, the jump and the read book, and
    the residual is what the read leaves.  Neither run depends on the lanes
    that share it, so a lane's bits do not depend on the others."""
    k_mid, k_free = _lane_steps(par, dt)[1:3]
    # the write: the read of lane 0 is dark and chirp-free, so its drive is
    # exactly 0 wherever it lies, and every other value the write sees is
    # the same for each lane
    lane = {k: v[:1] for k, v in par.items()}
    t_free, zero = lane["t_free"], np.zeros(1)
    write = _integrate({**lane, "omega_r": zero, "chirp_r": zero, "kernel": np.ones(1),
                        "t_mid": t_free, "t_read": t_free, "t_close": t_free,
                        "t_end": t_free}, dt, blocks=True)
    # the jump, with the kernel at k_mid, from the write's one state at
    # k_free broadcast over the lanes
    y_read, jump = _carry(write["state_end"], _rates(par), par["kappa_ext"],
                          (k_mid - k_free) * dt, par["t_read"] - k_mid * dt, par["kernel"])
    # the read, on a clock that starts at 0 from the probes; all of its
    # output is retrieved
    j, k = [0, 0, 1], [1, 2, 2]
    unit = np.eye(3)
    probes = np.concatenate([unit, unit[:, j] + unit[:, k], unit[:, j] + 1j * unit[:, k]],
                            axis=1)
    r_c = 3 * lane["r_f"]
    t_close = r_c + 3 * lane["r_f"]
    read = _integrate({key: np.repeat(v, 9) for key, v in {
        **lane, "sig_amp": zero, "omega_w": zero, "r_c": r_c, "t_start": zero,
        "t_mid": zero, "t_free": zero, "t_read": zero, "t_close": t_close,
        "t_end": t_close + _ring_down_ns(lane["kappa"])}.items()}, dt,
        blocks=True, start_state=probes)
    # each channel that the read books, on the probes
    on_probes = np.stack([read[key] for key in CHANNELS])
    pair_sums = on_probes[:, j] + on_probes[:, k]
    coef = np.concatenate([on_probes[:, :3], on_probes[:, 3:6] - pair_sums,
                           on_probes[:, 6:] - pair_sums], axis=1)
    cross = np.conj(y_read[j]) * y_read[k]
    terms = np.concatenate([np.abs(y_read) ** 2, cross.real, cross.imag])
    # a sum in term order, elementwise, so each lane's bits are its own
    from_read = dict(zip(CHANNELS, sum(coef[:, m, None] * terms[m] for m in range(9))))
    # a channel books what the write, the jump and the read book, in that
    # order (the write books no retrieved output, the read no leak, and
    # neither dephases, so those terms are 0); the residual excitation is
    # what the read leaves
    jump = _by_channel(jump)
    ledger = {key: write[key] + jump[key] + from_read[key] for key in CHANNELS[:6]}
    ledger["residual_excitation"] = from_read["residual_excitation"]
    return {**ledger, "closure_residual": _unbooked(ledger, par["sig_n"])}


def _lifetime_lanes(config: MemoryConfig, signal: PulseShape, write: PulseShape,
                    read: PulseShape, storage_times_ns, dt_ns: float) -> dict:
    """Per storage time its channels, closure residual and control-off
    reference counts, and whether it shares the write and the read
    (`shared`, see _one_write_many_reads).  The scan is admitted once, and
    every other lane is integrated from the same parameter arrays in one
    batch on the lane schedule, as simulate_batch integrates it."""
    reads = [replace(read, center_ns=write.center_ns + float(tau))
             for tau in np.asarray(storage_times_ns, dtype=float)]
    n = len(reads)
    par = _admit(config, [signal] * n, [write] * n, reads, 0.0, dt_ns)
    # t_mid inside the jump, k_free < k_mid <= k_read
    shared = _in_span(*_lane_steps(par, dt_ns)[1:4])
    keys = (*CHANNELS, "closure_residual")
    out = {k: np.empty(n) for k in keys}
    for lanes, integrate in ((~shared, _integrate), (shared, _one_write_many_reads)):
        if lanes.any():
            result = integrate({k: v[lanes] for k, v in par.items()}, dt_ns)
            for k in keys:
                out[k][lanes] = result[k]
    return {**out, "reference_counts": _control_off(par)[0], "shared": shared}


def lifetime_scan(config: MemoryConfig, signal: PulseShape, write: PulseShape,
                  read: PulseShape, storage_times_ns,
                  dt_ns: float = 0.01) -> np.ndarray:
    """Total efficiency versus storage time (read centre minus write centre).

    The lanes share the signal, the write and the read's shape.  Those whose
    storage midpoint t_mid lies inside their drive-free jump share one
    integrated write and one integrated read, on a clock anchored to the
    read start (see _one_write_many_reads); the others, whose read opens
    before the write window closes or whose t_mid falls inside the read
    (storage times up to about six read FWHM), are one batch on the lane
    schedule, with the bits that simulate_batch gives them.  The scan is
    admitted once, as one batch.  A storage time's efficiency has the same
    bits alone and in any scan.
    """
    if not len(storage_times_ns):
        return np.empty(0)
    lanes = _lifetime_lanes(config, signal, write, read, storage_times_ns, dt_ns)
    return total_efficiency(lanes["retrieved_counts"], lanes["reference_counts"],
                            config.zeta())


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
    # the memory operates far from the one-photon line, so the raw strengths
    # of atomic.memory_line_companions identify its line and companions
    _, companions = atomic.memory_line_companions(b_mt, constants)
    kappa_fwhm = cavity.linewidth_ghz(config.cavity)

    def weighted(offset_ghz, ratio):
        sep_ghz = abs(offset_ghz)
        pulse = math.exp(-(math.pi * sep_ghz * config.excitation_fwhm_ns) ** 2
                         / _LN2)
        cav = 1.0 / (1.0 + (2 * sep_ghz / kappa_fwhm) ** 2)
        return ratio * pulse * cav

    return max((weighted(*c) for c in companions), default=0.0)


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
    return batch_efficiency(config, [signal] * len(writes), writes, reads, 0.0, dt_ns)


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

    A width is settled once a round leaves its centre energy where it was:
    the next round would integrate the same lanes, and since a lane's
    results do not depend on the rest of its batch it would return the same
    bits and change neither the centre nor the best.  So each round
    integrates only the widths whose centre moved in the round before, and
    the scan stops early when none did; `refine_rounds` caps the rounds.
    """
    fwhms = np.asarray(signal_fwhms_ns, dtype=float)
    if refine_rounds < 1:
        raise DomainError("at least one refinement round required")
    if write.energy <= 0:
        raise DomainError("the template write pulse must carry energy")
    ratio = read.energy / write.energy
    scales = np.array([0.4, 0.63, 0.8, 0.9, 1.0, 1.12, 1.25, 1.6, 2.5])
    # each width keeps its own centre energy and best; a round evaluates the
    # scales of the widths still moving in one batch
    centers = np.full(len(fwhms), float(write.energy))
    best = np.full(len(fwhms), -1.0)
    moving = np.arange(len(fwhms))
    for _ in range(refine_rounds):
        if not len(moving):
            break
        energies = (centers[moving, None] * scales).ravel()
        signals = [replace(signal, fwhm_ns=float(fw)) for fw in fwhms[moving]
                   for _ in scales]
        writes = [replace(write, energy=float(e)) for e in energies]
        reads = [replace(read, energy=float(e * ratio)) for e in energies]
        effs = batch_efficiency(config, signals, writes, reads, 0.0,
                                dt_ns).reshape(len(moving), len(scales))
        k = np.argmax(effs, axis=1)
        top = effs[np.arange(len(moving)), k]
        better = top > best[moving]
        best[moving] = np.where(better, top, best[moving])
        new = np.where(better, centers[moving] * scales[k], centers[moving])
        moved = new != centers[moving]
        centers[moving] = new
        moving = moving[moved]
    return best


def mean_photon_from_counts(detected_counts: float, path_transmission: float) -> float:
    """Mean photon number at the memory input from detected counts."""
    if not (0.0 < path_transmission <= 1.0):
        raise DomainError("path transmission must lie in (0, 1]")
    if detected_counts < 0:
        raise DomainError("counts must be non-negative")
    return detected_counts / path_transmission
