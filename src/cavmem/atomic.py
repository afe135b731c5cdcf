"""Hyperfine + Zeeman structure of the Rb-87 ladder manifolds.

Exact diagonalization of H = H_hfs + H_Zeeman in the |m_j, m_i> product basis
for the 5S1/2, 5P3/2 and 5D5/2 terms, field-independent state labels, and
dipole transition enumeration (one- and two-photon) with relative strengths
from Clebsch-Gordan algebra on the field-dressed eigenvectors.

H conserves m_F, and levels of one m_F block never cross (von Neumann-Wigner),
so a state is labelled by its m_F block and its energy rank within that block.
Labels are numbered in ascending energy at REFERENCE_FIELD_MT.

H_hfs, the Zeeman operator Z (H = H_hfs + mu_B B Z), the m_F blocks and the
dipole operators are cached per frozen ManifoldSpec, so other constants get
their own entries; a field grid takes one stacked eigensolve per m_F block.

Energies are in MHz relative to each manifold's zero-field hyperfine centroid;
detunings between manifolds are in GHz relative to the zero-field line
centroid of the manifold pair.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import AtomConstants, default_constants
from .errors import DomainError, NumericalError, StructuralError

__all__ = [
    "ManifoldSpec", "ZeemanState", "POLARIZATIONS", "manifold_spec", "all_manifolds",
    "basis_labels", "state_numbers", "clebsch_gordan", "build_hamiltonian",
    "diagonalize_manifold", "breit_rabi_curve", "transition_lines", "dipole_strength_sums",
    "two_photon_lines", "is_loss_channel", "group_two_photon_lines",
    "memory_line_companions", "criterion_5_lines",
]

POLARIZATIONS = ("sigma-", "pi", "sigma+")   # q = -1, 0, +1

# global state numbering: manifolds stacked in energy order of the ladder
_INDEX_OFFSET = {"5S1/2": 0, "5P3/2": 8, "5D5/2": 24}

# field at which the (m_F, rank in block) labels are numbered by energy; the
# label of a state is the same at every other field
REFERENCE_FIELD_MT = 300.0

# lines weaker than this fraction of the strongest line in a manifold pair
# are omitted
STRENGTH_THRESHOLD = 1e-6

# Doppler-broadened intermediate width that weights two-photon paths by their
# lower leg's distance from the signal carrier
GAMMA_EFF_GHZ = 0.55

# paths to one (ground, upper) pair must agree on the line position this well
GROUP_TOL_GHZ = 1e-6


@dataclass(frozen=True)
class ManifoldSpec:
    """A fine-structure term and the constants of its internal Hamiltonian."""

    label: str
    l: int
    j: float
    i: float
    a_hfs_mhz: float
    b_hfs_mhz: float
    g_j: float
    g_i: float
    mu_b_mhz_per_mt: float
    gamma_fwhm_mhz: float = 0.0

    def __post_init__(self):
        if self.j == 0.5 and self.b_hfs_mhz != 0.0:
            raise StructuralError("quadrupole constant must vanish for J = 1/2")
        if self.dim < 1 or abs(2 * self.j - round(2 * self.j)) > 1e-12:
            raise StructuralError(f"bad angular momenta for {self.label}")

    @property
    def dim(self) -> int:
        return int(round((2 * self.j + 1) * (2 * self.i + 1)))


@dataclass(frozen=True, eq=False)
class ZeemanState:
    """One field-dressed eigenstate of a manifold."""

    manifold: ManifoldSpec
    index: int                      # global label, stable across B
    energy_mhz: float               # relative to the manifold centroid
    composition: np.ndarray = field(repr=False)  # amplitudes over |m_j, m_i>
    dominant_mj_mi: tuple[float, float]

    @property
    def m_f(self) -> float:
        mj, mi = self.dominant_mj_mi
        return mj + mi


def manifold_spec(label: str, constants: AtomConstants | None = None) -> ManifoldSpec:
    """Build the ManifoldSpec for one of the ladder terms."""
    c = constants or default_constants()
    term = c.term(label)
    letter = "".join(ch for ch in term.label if ch.isalpha()).upper()
    return ManifoldSpec(
        label=term.label,
        l={"S": 0, "P": 1, "D": 2}[letter],
        j=term.j,
        i=c.nuclear_spin,
        a_hfs_mhz=term.a_mhz,
        b_hfs_mhz=term.b_mhz,
        g_j=term.g_j,
        g_i=c.g_i,
        mu_b_mhz_per_mt=c.mu_b_mhz_per_mt,
        gamma_fwhm_mhz=term.gamma_fwhm_mhz,
    )


def all_manifolds(constants: AtomConstants | None = None) -> tuple[ManifoldSpec, ...]:
    return tuple(manifold_spec(lbl, constants) for lbl in ("5S1/2", "5P3/2", "5D5/2"))


def _ladder_ops(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dim = int(round(2 * j + 1))
    m = j - np.arange(dim)          # descending m
    jz = np.diag(m)
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    return jz, jp, jp.T


def basis_labels(manifold: ManifoldSpec) -> list[tuple[float, float]]:
    """(m_j, m_i) labels in the basis order used by build_hamiltonian."""
    mj = manifold.j - np.arange(int(round(2 * manifold.j + 1)))
    mi = manifold.i - np.arange(int(round(2 * manifold.i + 1)))
    return [(a, b) for a in mj for b in mi]


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float,
                   j3: float, m3: float) -> float:
    """<j1 m1; j2 m2 | j3 m3> by the Racah closed form."""
    if abs(m1 + m2 - m3) > 1e-9:
        return 0.0
    if j3 < abs(j1 - j2) - 1e-9 or j3 > j1 + j2 + 1e-9:
        return 0.0
    if abs(m1) > j1 + 1e-9 or abs(m2) > j2 + 1e-9 or abs(m3) > j3 + 1e-9:
        return 0.0

    def fact(x: float) -> int:
        return math.factorial(int(round(x)))

    pref = ((2 * j3 + 1) * fact(j3 + j1 - j2) * fact(j3 - j1 + j2)
            * fact(j1 + j2 - j3) / fact(j1 + j2 + j3 + 1))
    pref *= (fact(j3 + m3) * fact(j3 - m3) * fact(j1 - m1) * fact(j1 + m1)
             * fact(j2 - m2) * fact(j2 + m2))
    # the k at which no factorial below has a negative argument
    lo = int(round(max(0, j2 - j3 - m1, j1 - j3 + m2)))
    hi = int(round(min(j1 + j2 - j3, j1 - m1, j2 + m2)))
    total = 0.0
    for k in range(lo, hi + 1):
        denoms = [fact(k), fact(j1 + j2 - j3 - k), fact(j1 - m1 - k),
                  fact(j2 + m2 - k), fact(j3 - j2 + m1 + k), fact(j3 - j1 - m2 + k)]
        total += (-1) ** k / math.prod(denoms)
    return math.sqrt(pref) * total


@lru_cache(maxsize=None)
def _field_free_parts(manifold: ManifoldSpec) -> tuple[np.ndarray, np.ndarray, tuple]:
    """H_hfs, the Zeeman operator Z with H = H_hfs + (mu_B B) Z, and the basis
    indices of each m_F block, in ascending m_F.

    H_hfs = A (I.J) + B [3(I.J)^2 + 3/2 (I.J) - I(I+1)J(J+1)] / (2I(2I-1)J(2J-1))
    Z = g_J J_z + g_I I_z, diagonal in this basis.
    """
    j, i = manifold.j, manifold.i
    jz, jp, jm = _ladder_ops(j)
    iz, ip, im = _ladder_ops(i)
    eye_j, eye_i = np.eye(jz.shape[0]), np.eye(iz.shape[0])

    idotj = (np.kron(jz, iz)
             + 0.5 * (np.kron(jp, im) + np.kron(jm, ip)))
    h = manifold.a_hfs_mhz * idotj
    if manifold.b_hfs_mhz != 0.0 and j > 0.5 and i > 0.5:
        denom = 2 * i * (2 * i - 1) * j * (2 * j - 1)
        h = h + manifold.b_hfs_mhz * (
            3 * idotj @ idotj + 1.5 * idotj
            - i * (i + 1) * j * (j + 1) * np.eye(manifold.dim)
        ) / denom
    z = manifold.g_j * np.kron(jz, eye_i) + manifold.g_i * np.kron(eye_j, iz)
    if h.shape != (manifold.dim, manifold.dim):
        raise StructuralError("Hamiltonian dimension mismatch")
    mf = np.array([mj + mi for mj, mi in basis_labels(manifold)])
    blocks = tuple(np.flatnonzero(np.abs(mf - val) < 1e-9) for val in np.unique(mf))
    return h, z, blocks


def build_hamiltonian(manifold: ManifoldSpec, b_mt) -> np.ndarray:
    """H_hfs + H_Zeeman in MHz over the |m_j, m_i> product basis.

    A 1-D array of fields gives the stack of matrices, shape (n, dim, dim).
    """
    b = np.asarray(b_mt, dtype=float)
    if not np.all(np.isfinite(b) & (b >= 0)):
        raise DomainError("magnetic field must be finite and non-negative")
    h_hfs, z, _ = _field_free_parts(manifold)
    return h_hfs + (manifold.mu_b_mhz_per_mt * b)[..., None, None] * z


# fields per _eigh_blockwise call, which bounds its (n, dim, dim) stacks
_FIELD_CHUNK = 1024


def _eigh_blockwise(manifold: ManifoldSpec, b_mt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems at a 1-D array of fields, one stacked eigh per m_F block so
    m_F purity is exact; columns in (m_F, rank in block) order."""
    h = build_hamiltonian(manifold, b_mt)
    energies = np.empty(h.shape[:2])
    vectors = np.zeros(h.shape)
    col = 0
    for idx in _field_free_parts(manifold)[2]:
        cols = slice(col, col + len(idx))
        energies[:, cols], vectors[:, idx, cols] = np.linalg.eigh(h[:, idx[:, None], idx])
        col += len(idx)
    # residual check against the full matrix, per field
    res = np.linalg.norm(h @ vectors - vectors * energies[:, None, :], axis=(1, 2))
    scale = np.maximum(np.linalg.norm(h, axis=(1, 2)), 1.0)
    bad = np.flatnonzero(res > 1e-9 * scale)
    if bad.size:
        raise NumericalError(
            f"eigensolver residual {res[bad[0]]:.3e} exceeds 1e-9*|H| for "
            f"{manifold.label} at B={b_mt[bad[0]]} mT")
    return energies, vectors


@lru_cache(maxsize=None)
def _label_order(manifold: ManifoldSpec) -> np.ndarray:
    """Column of _eigh_blockwise, which is ordered by (m_F, rank in block),
    holding each label; labels ascend in energy at the reference field."""
    energies, _ = _eigh_blockwise(manifold, np.array([REFERENCE_FIELD_MT]))
    return np.argsort(energies[0])


@lru_cache(maxsize=4096)
def _labelled_system(manifold: ManifoldSpec, b_mt: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem at b_mt, columns ordered by label."""
    order = _label_order(manifold)
    energies, vectors = _eigh_blockwise(manifold, np.array([b_mt]))
    return energies[0, order], vectors[0][:, order]


def state_numbers(manifold: ManifoldSpec) -> range:
    """Global numbers of a manifold's states in label order: 1-8 for 5S1/2,
    9-24 for 5P3/2 and 25-48 for 5D5/2; another manifold numbers from 1."""
    offset = _INDEX_OFFSET.get(manifold.label, 0)
    return range(offset + 1, offset + manifold.dim + 1)


def diagonalize_manifold(manifold: ManifoldSpec, b_mt: float) -> list[ZeemanState]:
    """All (2J+1)(2I+1) dressed eigenstates with B-stable labels."""
    energies, vectors = _labelled_system(manifold, b_mt)
    labels = basis_labels(manifold)
    numbers = state_numbers(manifold)
    states = []
    for k in range(manifold.dim):
        comp = vectors[:, k].astype(complex)
        dom = labels[int(np.argmax(np.abs(comp) ** 2))]
        states.append(ZeemanState(
            manifold=manifold,
            index=numbers[k],
            energy_mhz=float(energies[k]),
            composition=comp,
            dominant_mj_mi=dom,
        ))
    return states


def breit_rabi_curve(manifold: ManifoldSpec, b_grid_mt) -> np.ndarray:
    """Energies (MHz) on a sorted B grid, shape (len(grid), dim).

    Column k is the state labelled k+offset+1, the same (m_F, rank in block)
    at every field, so each column is one continuous level trace.
    """
    b_grid = np.asarray(b_grid_mt, dtype=float)
    if b_grid.ndim != 1 or len(b_grid) == 0:
        raise DomainError("B grid must be a non-empty 1-D sequence")
    if np.any(np.diff(b_grid) < 0):
        raise DomainError("B grid must be sorted ascending")
    order = _label_order(manifold)
    return np.concatenate([
        _eigh_blockwise(manifold, b_grid[k:k + _FIELD_CHUNK])[0][:, order]
        for k in range(0, len(b_grid), _FIELD_CHUNK)])


@lru_cache(maxsize=None)
def _dipole_operator(lo_m: ManifoldSpec, up_m: ManifoldSpec, q: int) -> np.ndarray:
    """d_q over the product bases: |m_j, m_i> -> |m_j + q, m_i> with a CG factor."""
    up_index = {lab: n for n, lab in enumerate(basis_labels(up_m))}
    d_q = np.zeros((lo_m.dim, up_m.dim))
    for n, (mj, mi) in enumerate(basis_labels(lo_m)):
        t = up_index.get((mj + q, mi))
        if t is not None:
            d_q[n, t] = clebsch_gordan(lo_m.j, mj, 1, q, up_m.j, mj + q)
    return d_q


def _strengths(lower: ManifoldSpec, upper: ManifoldSpec, b_mt: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energies of both manifolds in label order, and the raw strengths
    |<u|d_q|l>|^2 on the dressed eigenvectors (reduced matrix element = 1),
    shape (3, n_lo, n_up) for q = -1, 0, +1.  The eigenvectors are real."""
    if abs(lower.l - upper.l) != 1:
        raise DomainError(
            f"{lower.label} -> {upper.label} is not dipole allowed (dL != 1)")
    e_lo, v_lo = _labelled_system(lower, b_mt)
    e_up, v_up = _labelled_system(upper, b_mt)
    raw = np.stack([(v_lo.T @ _dipole_operator(lower, upper, q) @ v_up) ** 2
                    for q in (-1, 0, 1)])
    return e_lo, e_up, raw


def transition_lines(lower: ManifoldSpec, upper: ManifoldSpec, b_mt: float,
                     polarization: str | None = None) -> dict[str, np.ndarray]:
    """Dipole lines between two manifolds at field b_mt, as one table.

    A dict of equal-length arrays, one row per line, stably sorted by
    detuning: `lower` and `upper` (global state numbers, see state_numbers),
    `polarization` (a name of POLARIZATIONS), `detuning_ghz` (from the
    zero-field centroid of the pair), `raw_strength` (|<u|d_q|l>|^2 on the
    dressed eigenvectors) and `strength`, normalized so the strongest line
    of the manifold pair (over all polarizations) equals 1.  Lines below
    STRENGTH_THRESHOLD of that maximum are omitted.
    """
    if polarization not in (None, *POLARIZATIONS):
        raise DomainError(f"unknown polarization {polarization!r}")
    e_lo, e_up, raw = _strengths(lower, upper, b_mt)
    norm = raw.max()
    if norm <= 0:
        raise NumericalError("all transition strengths vanished")
    wanted = np.array([polarization in (None, p) for p in POLARIZATIONS])
    pol, lo, up = np.nonzero(wanted[:, None, None] & (raw / norm >= STRENGTH_THRESHOLD))
    detuning = (e_up[up] - e_lo[lo]) / 1e3
    order = np.argsort(detuning, kind="stable")
    pol, lo, up = pol[order], lo[order], up[order]
    raw = raw[pol, lo, up]
    # label position plus the manifold's first number: the global number
    return {"lower": lo + state_numbers(lower).start,
            "upper": up + state_numbers(upper).start,
            "polarization": np.take(POLARIZATIONS, pol),
            "detuning_ghz": detuning[order], "raw_strength": raw, "strength": raw / norm}


def dipole_strength_sums(lower: ManifoldSpec, upper: ManifoldSpec,
                         b_mt: float) -> np.ndarray:
    """Per-lower-state strength sums over all upper states and polarizations.

    Computed from the full strength table with no line-omission threshold;
    by closure of the dipole algebra these sums are independent of B.
    """
    return _strengths(lower, upper, b_mt)[2].sum(axis=2).sum(axis=0)


def two_photon_lines(b_mt: float, signal_pol: str, control_pol: str,
                     total_window_ghz: tuple[float, float] = (-50.0, 50.0),
                     reference_signal_detuning_ghz: float | None = None,
                     constants: AtomConstants | None = None) -> dict[str, np.ndarray]:
    """Ladder paths 5S1/2 -> 5P3/2 -> 5D5/2 within a two-photon window.

    One table, a dict of equal-length arrays with one row per (ground,
    intermediate, upper) triple, stably sorted by total detuning: `ground`,
    `intermediate` and `doubly_excited` (global state numbers), the
    one-photon resonances of both legs, `signal_detuning_ghz` and
    `control_detuning_ghz`, their sum `total_detuning_ghz` (the two-photon
    detuning from the field-free 5S -> 5D interval), and `strength`.
    `total_window_ghz` selects on the total detuning.  When a reference
    signal detuning is given (the carrier of the driving field), each path's
    strength is the product of its two one-photon strengths divided by
    1 + (d_int/GAMMA_EFF_GHZ)^2, with d_int the distance of the lower-leg
    resonance from that reference; otherwise the raw product is kept.  Only
    ordering and grouping of lines are contractual; absolute weights are not.
    """
    if total_window_ghz[0] >= total_window_ghz[1]:
        raise DomainError("two-photon window must be non-empty")
    s12, p32, d52 = all_manifolds(constants)
    leg1 = transition_lines(s12, p32, b_mt, signal_pol)
    leg2 = transition_lines(p32, d52, b_mt, control_pol)
    det1, det2 = leg1["detuning_ghz"], leg2["detuning_ghz"]
    ref = reference_signal_detuning_ghz
    # in Python floats: numpy's ** 2 can differ from them by an ulp
    weight = np.array([1.0 if ref is None
                       else 1.0 / (1.0 + ((d - ref) / GAMMA_EFF_GHZ) ** 2)
                       for d in det1.tolist()])
    # join on the intermediate state; row-major keeps leg-1, then leg-2 order
    r, c = np.nonzero(leg1["upper"][:, None] == leg2["lower"][None, :])
    total = det1[r] + det2[c]
    keep = (total_window_ghz[0] <= total) & (total <= total_window_ghz[1])
    order = np.argsort(total[keep], kind="stable")
    r, c = r[keep][order], c[keep][order]
    return {"ground": leg1["lower"][r], "intermediate": leg1["upper"][r],
            "doubly_excited": leg2["upper"][c], "signal_detuning_ghz": det1[r],
            "control_detuning_ghz": det2[c], "total_detuning_ghz": total[keep][order],
            "strength": leg1["raw_strength"][r] * leg2["raw_strength"][c] * weight[r]}


def is_loss_channel(signal_pol: str, control_pol: str) -> bool:
    """Whether ladder paths of this polarization pair lead out of the memory's
    sigma- sigma- channel: every pair but sigma- sigma- is a loss channel."""
    return (signal_pol, control_pol) != ("sigma-", "sigma-")


def group_two_photon_lines(lines: dict[str, np.ndarray]
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the paths of a two_photon_lines table that share (ground, upper)
    into composite lines.

    Returns three arrays, one entry per composite line, stably sorted by
    position: the position (the total detuning of its first path), the
    strengths of its paths summed in path order, and the table row of its
    strongest path (the first one on a tie).  Paths through different
    intermediates add incoherently here; the spectral weighting already
    lives in the per-path strengths.
    """
    total, strength, upper = (lines[k] for k in ("total_detuning_ghz", "strength",
                                                  "doubly_excited"))
    key = lines["ground"] * (upper.max(initial=0) + 1) + upper
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    pos = total[first]
    if np.any(np.abs(total - pos[group]) >= GROUP_TOL_GHZ):
        raise StructuralError(f"paths to one (ground, upper) pair disagree on the line "
                              f"position by more than {GROUP_TOL_GHZ} GHz")
    # bincount adds each group's weights in row order, as a running sum
    summed = np.bincount(group, weights=strength, minlength=len(first))
    # by group, then by falling strength; lexsort is stable, so ties keep row order
    by_strength = np.lexsort((-strength, group))
    best = by_strength[np.unique(group[by_strength], return_index=True)[1]]
    # groups in order of their first path, then stably by position
    appear = np.argsort(first)
    order = appear[np.argsort(pos[appear], kind="stable")]
    return pos[order], summed[order], best[order]


def memory_line_companions(b_mt: float, constants: AtomConstants | None = None
                           ) -> tuple[float, list[tuple[float, float]]]:
    """The memory line at field b_mt and its companions: the one rule that
    picks them.

    The memory line is the strongest composite sigma- sigma- two-photon line
    (see group_two_photon_lines, raw path strengths) within (-30, 10) GHz of
    the field-free 5S -> 5D interval; its companions are the other composite
    lines within 3 GHz of it.  Returns the memory line's total detuning in
    GHz and one (offset GHz, strength ratio) pair per companion, in
    ascending detuning: its offset from the memory line and its strength
    over the memory line's.  Each caller weights or selects the companions
    by its own measure.
    """
    pos, strength, _ = group_two_photon_lines(two_photon_lines(
        b_mt, "sigma-", "sigma-", total_window_ghz=(-30.0, 10.0), constants=constants))
    main = int(np.argmax(strength))
    offset = pos - pos[main]
    near = np.abs(offset) < 3.0
    near[main] = False
    return float(pos[main]), list(zip(offset[near].tolist(),
                                      (strength[near] / strength[main]).tolist()))


def criterion_5_lines() -> tuple[int, float]:
    """Criterion 5 at 169 mT: how many strong two-photon lines lie within
    0.5 GHz of the memory line, itself included, and the nearest one's
    separation from it in MHz (0 when there is none).  A companion of
    memory_line_companions is strong above 5% of the memory line's
    strength."""
    _, companions = memory_line_companions(169.0)
    near = [abs(offset) for offset, ratio in companions
            if abs(offset) <= 0.5 and ratio > 0.05]
    return 1 + len(near), min(near) * 1e3 if near else 0.0
