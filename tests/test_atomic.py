"""Level-structure tests: analytic oracles, selection rules, sum rules."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavmem.atomic import (GROUP_TOL_GHZ, _labelled_system, all_manifolds, basis_labels,
                           breit_rabi_curve, build_hamiltonian, clebsch_gordan,
                           diagonalize_manifold, group_two_photon_lines,
                           is_loss_channel, manifold_spec, memory_line_companions,
                           transition_lines, two_photon_lines)
from cavmem.constants import default_constants
from cavmem.errors import DomainError, StructuralError

S12, P32, D52 = all_manifolds()


# ---------------------------------------------------------------- oracles

def hyperfine_energy(manifold, f):
    """Zero-field hyperfine energy E(F), independent closed form."""
    i, j = manifold.i, manifold.j
    k = f * (f + 1) - i * (i + 1) - j * (j + 1)
    e = 0.5 * manifold.a_hfs_mhz * k
    if manifold.b_hfs_mhz:
        e += manifold.b_hfs_mhz * (1.5 * k * (k + 1) - 2 * i * (i + 1) * j * (j + 1)) \
            / (4 * i * (2 * i - 1) * j * (2 * j - 1))
    return e


def breit_rabi_ground(manifold, b_mt, m_f, branch):
    """Closed-form J=1/2 level energies (exact), independent of the solver.

    branch = +1 for the F = I + 1/2 multiplet, -1 for F = I - 1/2; the
    stretched m_F = +/-(I + 1/2) states fall out of the same expression.
    """
    i = manifold.i
    de = manifold.a_hfs_mhz * (i + 0.5)
    mu_b = manifold.mu_b_mhz_per_mt * b_mt
    x = (manifold.g_j - manifold.g_i) * mu_b / de
    return (-de / (2 * (2 * i + 1)) + manifold.g_i * mu_b * m_f
            + branch * (de / 2) * math.sqrt(1 + 4 * m_f * x / (2 * i + 1) + x * x))


# ---------------------------------------------------------- hamiltonian

def test_manifold_dimensions():
    assert S12.dim == 8 and P32.dim == 16 and D52.dim == 24
    assert S12.dim + P32.dim + D52.dim == 48


def test_zero_field_splitting_matches_analytic_formula():
    for man in (S12, P32, D52):
        evals = np.sort(np.linalg.eigvalsh(build_hamiltonian(man, 0.0)))
        expected = []
        f = abs(man.j - man.i)
        while f <= man.j + man.i + 1e-9:
            expected.extend([hyperfine_energy(man, f)] * int(round(2 * f + 1)))
            f += 1
        assert np.allclose(evals, np.sort(expected), atol=1e-6)


def test_ground_zero_field_splitting_is_two_a():
    evals = np.sort(np.linalg.eigvalsh(build_hamiltonian(S12, 0.0)))
    split = evals[-1] - evals[0]
    assert split == pytest.approx(2 * S12.a_hfs_mhz, abs=1e-9)


def test_zeeman_part_is_traceless():
    for man in (S12, P32, D52):
        tr = np.trace(build_hamiltonian(man, 137.0) - build_hamiltonian(man, 0.0))
        assert abs(tr) < 1e-9


def test_hermiticity_and_mf_block_structure():
    labels = basis_labels(P32)
    h = build_hamiltonian(P32, 169.0)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    for r, (mj1, mi1) in enumerate(labels):
        for c, (mj2, mi2) in enumerate(labels):
            if abs((mj1 + mi1) - (mj2 + mi2)) > 1e-9:
                assert h[r, c] == 0.0


def test_negative_field_rejected():
    with pytest.raises(DomainError):
        build_hamiltonian(S12, -1.0)
    with pytest.raises(DomainError):
        diagonalize_manifold(P32, -1.0)
    with pytest.raises(DomainError):
        breit_rabi_curve(D52, [-1.0, 0.0, 10.0])


def test_deep_paschen_back_clusters():
    # at very high field the 5S spectrum forms two m_j clusters split by
    # roughly g_J mu_B B (nuclear terms and hyperfine are small corrections)
    b = 1500.0
    evals = np.sort(np.linalg.eigvalsh(build_hamiltonian(S12, b)))
    split = evals[4:].mean() - evals[:4].mean()
    assert split == pytest.approx(S12.g_j * S12.mu_b_mhz_per_mt * b, rel=0.02)


def test_ground_levels_match_closed_form_at_operating_field():
    b = 169.0
    states = diagonalize_manifold(S12, b)
    got = sorted(s.energy_mhz for s in states)
    expected = sorted(
        [breit_rabi_ground(S12, b, m_f, -1) for m_f in (-1, 0, 1)]
        + [breit_rabi_ground(S12, b, m_f, +1) for m_f in (-2, -1, 0, 1, 2)]
    )
    assert np.allclose(got, expected, atol=1e-8)


# ------------------------------------------------------- diagonalization

def test_total_state_count_is_48():
    total = sum(len(diagonalize_manifold(m, 83.0)) for m in (S12, P32, D52))
    assert total == 48


def test_indices_are_global_and_stable():
    idx = [s.index for m in (S12, P32, D52) for s in diagonalize_manifold(m, 169.0)]
    assert sorted(idx) == list(range(1, 49))
    # same labels at a different field
    idx2 = [s.index for m in (S12, P32, D52) for s in diagonalize_manifold(m, 12.0)]
    assert sorted(idx2) == list(range(1, 49))


def test_state_numbers_are_the_states_indices():
    from cavmem.atomic import state_numbers
    for m in (S12, P32, D52):
        assert [s.index for s in diagonalize_manifold(m, 169.0)] == list(state_numbers(m))
    assert [n for m in (S12, P32, D52) for n in state_numbers(m)] == list(range(1, 49))


def test_compositions_are_normalized_and_mf_pure():
    for man in (S12, D52):
        labels = basis_labels(man)
        for s in diagonalize_manifold(man, 47.0):
            assert abs(np.sum(np.abs(s.composition) ** 2) - 1.0) < 1e-12
            mfs = {mj + mi for (mj, mi), c in zip(labels, s.composition)
                   if abs(c) > 1e-12}
            assert len(mfs) == 1


def test_zero_field_mf_degeneracy():
    for man in (S12, P32, D52):
        states = diagonalize_manifold(man, 0.0)
        energies = np.array(sorted(s.energy_mhz for s in states))
        # energies collapse onto the F multiplet values within 1e-9
        uniq = np.unique(np.round(energies, 6))
        n_f = int(round(2 * min(man.i, man.j) + 1))
        assert len(uniq) == n_f


def test_dominant_component_by_brute_force_overlap():
    # excited manifolds are deep in the product-state regime at 169 mT;
    # the ground manifold retains strong two-state mixing there
    for man, floor in ((P32, 0.90), (D52, 0.90), (S12, 0.60)):
        labels = basis_labels(man)
        for s in diagonalize_manifold(man, 169.0):
            weights = np.abs(s.composition) ** 2
            k = int(np.argmax(weights))
            assert labels[k] == s.dominant_mj_mi
            assert weights[k] > floor


def test_eigenvector_residuals():
    for man in (S12, P32, D52):
        h = build_hamiltonian(man, 169.0)
        for s in diagonalize_manifold(man, 169.0):
            res = np.linalg.norm(h @ s.composition - s.energy_mhz * s.composition)
            assert res < 1e-9 * np.linalg.norm(h)


def overlap_tracked_labels(manifold, fields, step_mt=0.05):
    """Reference labels by fine-step eigenvector-overlap tracking.

    Starts at 300 mT with labels in ascending energy and walks down to each
    requested field in steps of at most step_mt, matching every labelled
    vector to the new eigenvector it overlaps most.  Returns {field:
    (energies, vectors)} with column k the state labelled k.
    """
    h0 = build_hamiltonian(manifold, 0.0)
    hz = build_hamiltonian(manifold, 1.0) - h0
    mf = np.array([mj + mi for mj, mi in basis_labels(manifold)])
    blocks = [np.flatnonzero(mf == val) for val in np.unique(mf)]
    path = np.linspace(300.0, 0.0, int(round(300.0 / step_mt)) + 1)
    path = np.unique(np.concatenate([path, fields]))[::-1]

    def eig(b):
        # per m_F block, so degenerate levels of different blocks stay apart
        h = h0 + b * hz
        energies = np.empty(manifold.dim)
        vectors = np.zeros((manifold.dim, manifold.dim))
        col = 0
        for idx in blocks:
            e, v = np.linalg.eigh(h[np.ix_(idx, idx)])
            energies[col:col + len(idx)] = e
            vectors[idx, col:col + len(idx)] = v
            col += len(idx)
        return energies, vectors

    energies, vectors = eig(path[0])
    order = np.argsort(energies)
    energies, vectors = energies[order], vectors[:, order]
    out = {}
    for b in path[1:]:
        e, v = eig(b)
        match = np.argmax(np.abs(vectors.T @ v), axis=1)
        assert sorted(match) == list(range(manifold.dim)), f"ambiguous step at {b} mT"
        energies, vectors = e[match], v[:, match]
        if b in fields:
            out[b] = (energies, vectors)
    return out


@pytest.mark.parametrize("man", [P32, D52], ids=["P32", "D52"])
def test_low_field_labels_match_fine_step_tracker(man):
    fields = (0.0, 0.5, 5.0)
    tracked = overlap_tracked_labels(man, fields)
    for b in fields:
        energies, vectors = tracked[b]
        states = diagonalize_manifold(man, b)
        got_e = np.array([s.energy_mhz for s in states])
        got_v = np.array([s.composition for s in states]).T
        assert np.max(np.abs(got_e - energies)) < 1e-9, b
        # same state per label, up to the eigenvector sign
        assert np.min(np.abs(np.sum(got_v.conj() * vectors, axis=0))) > 1 - 1e-9, b


def test_energy_stability_under_tiny_field_change():
    e1 = sorted(s.energy_mhz for s in diagonalize_manifold(D52, 100.0))
    e2 = sorted(s.energy_mhz for s in diagonalize_manifold(D52, 100.0 + 1e-6))
    assert np.max(np.abs(np.array(e1) - np.array(e2))) < 1e-3


# ----------------------------------------------------------- breit-rabi

def test_breit_rabi_zero_field_two_levels():
    table = breit_rabi_curve(S12, [0.0])
    assert len(np.unique(np.round(table[0], 6))) == 2


@pytest.mark.parametrize("man, hi", [(S12, 200.0), (S12, 20.0), (P32, 20.0),
                                     (D52, 20.0)],
                         ids=["S12-200", "S12-20", "P32-20", "D52-20"])
def test_breit_rabi_traces_continuous(man, hi):
    # the excited manifolds regroup from F to (m_j, m_i) below 20 mT; their
    # avoided crossings further up bend the traces too sharply for the
    # second-difference bound at this grid step
    grid = np.linspace(0.0, hi, 81)
    table = breit_rabi_curve(man, grid)
    # oracle: refine the grid 4x; the coarse trace must interpolate the fine
    # one, which a label swap breaks by at least the swapped levels' splitting
    fine = np.linspace(0.0, hi, 321)
    table_f = breit_rabi_curve(man, fine)
    for col in range(man.dim):
        interp = np.interp(fine, grid, table[:, col])
        assert np.max(np.abs(interp - table_f[:, col])) < 1.0  # MHz
    # discrete second differences stay bounded (no index swaps)
    d2 = np.diff(table, n=2, axis=0)
    assert np.max(np.abs(d2)) < 5.0


@given(st.floats(min_value=0.0, max_value=300.0))
@settings(max_examples=25, deadline=None)
def test_labels_continuous_in_field(b):
    for man in (S12, P32, D52):
        here = diagonalize_manifold(man, b)
        near = diagonalize_manifold(man, b + 1e-6)
        for s, t in zip(here, near):
            assert s.index == t.index
            assert s.m_f == t.m_f
            assert abs(s.energy_mhz - t.energy_mhz) < 1e-3


@pytest.mark.parametrize("man, grid", [
    (S12, np.linspace(0.0, 300.0, 121)), (P32, np.linspace(0.0, 300.0, 121)),
    (D52, np.linspace(0.0, 300.0, 121)), (D52, np.array([0.0])),
    (P32, np.array([169.0])), (S12, np.linspace(0.0, 300.0, 1100)),
], ids=["S12", "P32", "D52", "D52-zero", "P32-single", "S12-two-chunks"])
def test_breit_rabi_rows_equal_single_field_eigensystems(man, grid):
    # the batched eigensolve over the grid gives each row bit for bit what a
    # one-field solve gives, also across the field-chunk boundary
    table = breit_rabi_curve(man, grid)
    assert table.shape == (len(grid), man.dim)
    for row, b in zip(table, grid):
        assert np.array_equal(row, _labelled_system(man, float(b))[0])


def test_transition_lines_follow_a_constants_override():
    # the cached field-free Hamiltonian and dipole operators are keyed on the
    # manifold constants, so an edited A constant is never served stale
    base = default_constants()
    a_new = 2 * base.s12.a_mhz
    s12_new = manifold_spec("5S1/2", replace(base, s12=replace(base.s12, a_mhz=a_new)))
    for man, a in ((S12, base.s12.a_mhz), (s12_new, a_new), (S12, base.s12.a_mhz)):
        states = states_by_number(man, 0.0)
        numbers = transition_lines(man, P32, 0.0)["lower"].tolist()
        lower = {states[n].energy_mhz for n in numbers}
        # zero-field ground levels F = 1 and F = 2 lie 2A apart
        assert max(lower) - min(lower) == pytest.approx(2 * a, rel=1e-12)


def test_breit_rabi_rejects_unsorted_grid():
    with pytest.raises(DomainError):
        breit_rabi_curve(S12, [10.0, 5.0])


def test_excited_spacings_cluster_at_operating_field():
    # the 5D5/2 ladder at 169 mT: adjacent m_j groups separated by about
    # g_J mu_B B with hyperfine substructure two orders of magnitude smaller
    table = breit_rabi_curve(D52, [169.0])[0]
    energies = np.sort(table)
    gaps = np.diff(energies)
    big = gaps[gaps > 1000.0]
    assert len(big) == 5  # six m_j groups
    assert np.allclose(big, D52.g_j * D52.mu_b_mhz_per_mt * 169.0, rtol=0.05)


# ------------------------------------------------------ transition lines

def states_by_number(manifold, b_mt):
    """The dressed states of a manifold at b_mt, keyed by global number."""
    return {state.index: state for state in diagonalize_manifold(manifold, b_mt)}


def test_sigma_minus_selection_rule():
    lines = transition_lines(S12, P32, 169.0, "sigma-")
    lower, upper = states_by_number(S12, 169.0), states_by_number(P32, 169.0)
    assert set(lines["polarization"].tolist()) == {"sigma-"}
    for lo, up in zip(lines["lower"].tolist(), lines["upper"].tolist()):
        assert upper[up].m_f - lower[lo].m_f == pytest.approx(-1.0)


def test_disallowed_pair_rejected():
    with pytest.raises(DomainError):
        transition_lines(S12, D52, 10.0)


def test_strength_sum_rule_field_independent():
    # sum over upper states and polarizations of |<u|d_q|l>|^2 per lower state
    from cavmem.atomic import dipole_strength_sums
    ref = dipole_strength_sums(S12, P32, 0.0)
    for b in (50.0, 169.0, 250.0):
        val = dipole_strength_sums(S12, P32, b)
        assert np.max(np.abs(val - ref)) < 1e-9
    # the thresholded line list leaves at most the omission weight behind
    acc = {}
    lines = transition_lines(S12, P32, 169.0)
    for lo, raw in zip(lines["lower"].tolist(), lines["raw_strength"].tolist()):
        acc[lo] = acc.get(lo, 0.0) + raw
    listed = np.array([acc[i] for i in sorted(acc)])
    assert np.max(np.abs(listed - dipole_strength_sums(S12, P32, 169.0))) < 1e-5


def test_one_photon_line_positions_span_dip_region():
    # sigma- lines from the thermally populated ground manifold at 169 mT
    # cluster within a few GHz of the zero-field centroid, with the strongest
    # line (the stretched-state transition) in the composite-dip region
    lines = transition_lines(S12, P32, 169.0, "sigma-")
    strong = lines["strength"] > 0.1
    pos = lines["detuning_ghz"][strong]
    assert pos.min() > -9.0 and pos.max() < 3.0
    top = int(np.argmax(lines["strength"]))
    assert -6.0 < lines["detuning_ghz"][top] < -4.0
    lower = states_by_number(S12, 169.0)[int(lines["lower"][top])]
    assert lower.dominant_mj_mi == (-0.5, -1.5)


# ------------------------------------------------------- two-photon lines

def strong_pairs_near_main(b_mt, window=0.5):
    """The sigma- sigma- paths at b_mt, their composite lines (position,
    strength, strongest path's row), the strongest line's index and the
    indices of the strong lines within `window` GHz of it, itself included."""
    lines = two_photon_lines(b_mt, "sigma-", "sigma-",
                             total_window_ghz=(-20.0, 5.0))
    pos, strength, best = group_two_photon_lines(lines)
    main = int(np.argmax(strength))
    near = np.flatnonzero((np.abs(pos - pos[main]) <= window)
                          & (strength > 0.05 * strength.max()))
    return lines, (pos, strength, best), main, near


def test_grouping_rejects_paths_at_different_positions():
    lines = two_photon_lines(169.0, "sigma-", "sigma-",
                             total_window_ghz=(-20.0, 5.0))
    keys = list(zip(lines["ground"].tolist(), lines["doubly_excited"].tolist()))
    k = next(i for i, key in enumerate(keys) if keys.count(key) > 1)
    bad = dict(lines, total_detuning_ghz=lines["total_detuning_ghz"].copy())
    bad["total_detuning_ghz"][k] += 1.0
    with pytest.raises(StructuralError):
        group_two_photon_lines(bad)


def grouping_by_dict(lines):
    """Composite lines grouped path by path in a dict, the rule the table
    grouping keeps: (position, summed strength, strongest path's row) per
    (ground, upper) pair, at its first path's position, strengths summed in
    path order, the first strongest path on a tie, stably sorted by position."""
    keys = ("ground", "doubly_excited", "total_detuning_ghz", "strength")
    grouped = {}
    for row, (g, u, total, strength) in enumerate(zip(*(lines[k].tolist() for k in keys))):
        grouped.setdefault((g, u), []).append((row, total, strength))
    out = []
    for paths in grouped.values():
        pos = paths[0][1]
        if any(abs(total - pos) >= GROUP_TOL_GHZ for _, total, _ in paths):
            raise StructuralError("paths disagree on the line position")
        best = max(paths, key=lambda path: path[2])
        out.append((pos, sum(strength for *_, strength in paths), best[0]))
    out.sort(key=lambda line: line[0])
    return out


def grouped_rows(lines):
    return list(zip(*(col.tolist() for col in group_two_photon_lines(lines))))


@pytest.mark.parametrize("b", (0.0, 12.0, 50.0, 169.0, 300.0))
def test_grouping_equals_the_dict_rule(b):
    for pair in (("sigma-", "sigma-"), ("sigma-", "sigma+"),
                 ("sigma+", "sigma-"), ("sigma+", "sigma+")):
        for reference in (None, -15.0):
            lines = two_photon_lines(b, *pair, reference_signal_detuning_ghz=reference)
            assert grouped_rows(lines) == grouping_by_dict(lines)
            # a path of a shared pair moved by 1 GHz is refused by both
            keys = list(zip(lines["ground"].tolist(), lines["doubly_excited"].tolist()))
            k = max(i for i, key in enumerate(keys) if keys.count(key) > 1)
            bad = dict(lines, total_detuning_ghz=lines["total_detuning_ghz"].copy())
            bad["total_detuning_ghz"][k] += 1.0
            for group in (group_two_photon_lines, grouping_by_dict):
                with pytest.raises(StructuralError):
                    group(bad)


def test_grouping_keeps_ties_and_first_paths():
    # equal strengths within a pair: the first path wins; equal positions of
    # two pairs: the pair met first comes first; an empty table groups to
    # nothing
    lines = {"ground": np.array([3, 1, 3, 1, 2, 1]),
             "doubly_excited": np.array([40, 30, 40, 30, 31, 30]),
             "total_detuning_ghz": np.array([0.5, 0.5, 0.5, 0.5, -1.0, 0.5]),
             "strength": np.array([0.25, 2.0, 0.5, 2.0, 1.0, 0.1])}
    assert grouped_rows(lines) == grouping_by_dict(lines) == [
        (-1.0, 1.0, 4), (0.5, 0.75, 2), (0.5, 4.1, 1)]
    empty = {key: col[:0] for key, col in lines.items()}
    assert all(len(col) == 0 for col in group_two_photon_lines(empty))


def test_memory_line_present_and_strongest_for_sigma_minus_pair():
    lines, (_, _, best), main, _ = strong_pairs_near_main(169.0)
    # the strongest addressable line starts from the stretched ground state
    row = best[main]
    ground = states_by_number(S12, 169.0)[int(lines["ground"][row])]
    upper = states_by_number(D52, 169.0)[int(lines["doubly_excited"][row])]
    assert ground.dominant_mj_mi == (-0.5, -1.5)
    assert upper.dominant_mj_mi == (-2.5, -1.5)
    assert not is_loss_channel("sigma-", "sigma-")


def test_exactly_two_strong_lines_in_cavity_window():
    *_, near = strong_pairs_near_main(169.0)
    assert len(near) == 2  # the main line plus one companion


def test_pair_separation_grows_with_field():
    seps = []
    for b in (140.0, 169.0, 250.0):
        _, (pos, _, _), main, near = strong_pairs_near_main(b, window=1.0)
        others = near[near != main]
        assert len(others)
        seps.append(np.min(np.abs(pos[others] - pos[main])) * 1e3)  # MHz
    assert seps[0] < seps[1] < seps[2]


def test_pair_separation_matches_measured_beat_near_154_mt():
    # the observed 171-175 MHz beat between the two addressable lines is
    # reproduced by this level structure at a field near 154.5 mT
    _, (pos, _, _), main, near = strong_pairs_near_main(154.5)
    others = near[near != main]
    sep_mhz = np.min(np.abs(pos[others] - pos[main])) * 1e3
    assert sep_mhz == pytest.approx(175.0, abs=15.0)


@pytest.mark.parametrize("b", [50.0, 100.0, 169.0, 250.0, 300.0])
def test_memory_line_companions_do_not_depend_on_the_window(b):
    # the one companion-line rule reads the (-30, 10) GHz window; the
    # narrower (-20, 5) GHz one gives the same memory line and the same
    # companions within 3 GHz, offsets and strength ratios bit for bit
    grouped = list(zip(*(col.tolist() for col in group_two_photon_lines(two_photon_lines(
        b, "sigma-", "sigma-", total_window_ghz=(-20.0, 5.0))))))
    main = max(grouped, key=lambda t: t[1])
    pos, companions = memory_line_companions(b)
    assert pos == main[0]
    assert companions == [(t[0] - main[0], t[1] / main[1]) for t in grouped
                          if t is not main and abs(t[0] - main[0]) < 3.0]


def test_memory_line_companions_at_169_mt():
    # eight companions within 3 GHz; the nearest strong one, criterion 5's,
    # lies 246.9 MHz below the memory line at 0.169 of its strength
    pos, companions = memory_line_companions(169.0)
    assert pos == pytest.approx(-7.320, abs=1e-3)
    offsets = [offset for offset, _ in companions]
    assert len(companions) == 8 and offsets == sorted(offsets)
    assert all(0 < abs(offset) < 3.0 for offset in offsets)
    offset, ratio = min((c for c in companions if c[1] > 0.05), key=lambda c: abs(c[0]))
    assert (offset * 1e3, ratio) == (pytest.approx(-246.9, abs=0.05),
                                     pytest.approx(0.169, abs=1e-3))


def test_two_photon_bookkeeping_exact():
    lines = two_photon_lines(169.0, "sigma-", "sigma+", total_window_ghz=(-30.0, 30.0))
    ground, upper = states_by_number(S12, 169.0), states_by_number(D52, 169.0)
    assert np.array_equal(lines["total_detuning_ghz"],
                          lines["signal_detuning_ghz"] + lines["control_detuning_ghz"])
    for g, u, total in zip(lines["ground"].tolist(), lines["doubly_excited"].tolist(),
                           lines["total_detuning_ghz"].tolist()):
        top = upper[u].energy_mhz
        bottom = ground[g].energy_mhz
        assert total * 1e3 == pytest.approx(top - bottom, abs=1e-9)
    assert is_loss_channel("sigma-", "sigma+")


# fields of the array-path guards: zero, weak, the 12 mT region, operating
# point and strong field
GUARD_FIELDS = (0.0, 0.3, 12.0, 169.0, 250.0)
POLS = ("sigma-", "pi", "sigma+")


def nested_loop_two_photon_paths(b, signal_pol, control_pol, window, reference):
    """The two-photon paths joined line by line from the two one-photon legs:
    (ground, intermediate, upper) labels, both leg detunings and the strength,
    weighted by the 0.55 GHz intermediate width, in stable detuning order."""
    def rows(table):
        keys = ("lower", "upper", "detuning_ghz", "raw_strength")
        return list(zip(*(table[k].tolist() for k in keys)))

    out = []
    for lo1, up1, det1, raw1 in rows(transition_lines(S12, P32, b, signal_pol)):
        if reference is None:
            weight = 1.0
        else:
            weight = 1.0 / (1.0 + ((det1 - reference) / 0.55) ** 2)
        for lo2, up2, det2, raw2 in rows(transition_lines(P32, D52, b, control_pol)):
            total = det1 + det2
            if lo2 == up1 and window[0] <= total <= window[1]:
                out.append(((lo1, up1, up2), det1, det2, raw1 * raw2 * weight))
    out.sort(key=lambda path: path[1] + path[2])
    return out


@pytest.mark.parametrize("b", GUARD_FIELDS)
def test_two_photon_lines_equal_nested_loop_join_of_legs(b):
    for signal_pol in POLS:
        for control_pol in POLS:
            for window, reference in (((-50.0, 50.0), None), ((-50.0, 50.0), 0.7),
                                      ((-8.0, 2.0), -1.3)):
                lines = two_photon_lines(b, signal_pol, control_pol,
                                         total_window_ghz=window,
                                         reference_signal_detuning_ghz=reference)
                got = [((g, i, u), d1, d2, s) for g, i, u, d1, d2, s in zip(*(
                    lines[k].tolist() for k in ("ground", "intermediate", "doubly_excited",
                                                "signal_detuning_ghz",
                                                "control_detuning_ghz", "strength")))]
                assert got == nested_loop_two_photon_paths(
                    b, signal_pol, control_pol, window, reference)


def test_zero_field_cross_polarization_symmetry():
    a = two_photon_lines(0.0, "sigma-", "sigma+", total_window_ghz=(-5.0, 5.0))
    b = two_photon_lines(0.0, "sigma+", "sigma-", total_window_ghz=(-5.0, 5.0))
    pos_a = sorted(round(d, 9) for d in a["total_detuning_ghz"].tolist())
    pos_b = sorted(round(d, 9) for d in b["total_detuning_ghz"].tolist())
    assert pos_a == pos_b


def test_loss_channel_pattern_by_independent_enumeration():
    # oracle: brute-force loop over all (ground, intermediate, upper)
    # eigenstate triples, building each leg amplitude directly from the
    # compositions and CG coefficients, then compare the line sets
    from cavmem.atomic import clebsch_gordan, diagonalize_manifold

    states = {m.label: diagonalize_manifold(m, 169.0) for m in (S12, P32, D52)}
    lab = {m.label: basis_labels(m) for m in (S12, P32, D52)}

    def leg_amp(low, low_m, up, up_m, q):
        idx = {l: n for n, l in enumerate(lab[up_m.label])}
        amp = 0j
        for n, (mj, mi) in enumerate(lab[low_m.label]):
            t = idx.get((mj + q, mi))
            if t is not None:
                amp += (np.conj(up.composition[t])
                        * clebsch_gordan(low_m.j, mj, 1, q, up_m.j, mj + q)
                        * low.composition[n])
        return amp

    # per-leg omission cut matches the line-list contract: relative strength
    # below 1e-6 of the manifold-pair maximum (over all polarizations)
    def leg_table(lo_states, lo_m, up_states, up_m, q):
        mat = np.array([[abs(leg_amp(g, lo_m, u, up_m, q)) ** 2
                         for u in up_states] for g in lo_states])
        return mat

    max_sp = max(leg_table(states["5S1/2"], S12, states["5P3/2"], P32, q).max()
                 for q in (-1, 0, 1))
    max_pd = max(leg_table(states["5P3/2"], P32, states["5D5/2"], D52, q).max()
                 for q in (-1, 0, 1))

    for spair, expect_loss in ((("sigma-", "sigma-"), False),
                               (("sigma+", "sigma-"), True),
                               (("sigma-", "sigma+"), True)):
        q1 = {"sigma-": -1, "sigma+": 1}[spair[0]]
        q2 = {"sigma-": -1, "sigma+": 1}[spair[1]]
        t1 = leg_table(states["5S1/2"], S12, states["5P3/2"], P32, q1)
        t2 = leg_table(states["5P3/2"], P32, states["5D5/2"], D52, q2)
        brute = set()
        for a, g in enumerate(states["5S1/2"]):
            for b, p in enumerate(states["5P3/2"]):
                if t1[a, b] < 1e-6 * max_sp:
                    continue
                for c, d in enumerate(states["5D5/2"]):
                    if t2[b, c] >= 1e-6 * max_pd:
                        brute.add((g.index, p.index, d.index))
        lines = two_photon_lines(169.0, *spair, total_window_ghz=(-50.0, 50.0))
        got = set(zip(*(lines[k].tolist()
                        for k in ("ground", "intermediate", "doubly_excited"))))
        assert got == brute
        assert is_loss_channel(*spair) == expect_loss
        number = {s.index: s for m in ("5S1/2", "5P3/2", "5D5/2") for s in states[m]}
        for g, p, d in got:
            assert number[p].m_f - number[g].m_f == pytest.approx(q1)
            assert number[d].m_f - number[p].m_f == pytest.approx(q2)


# ------------------------------------------------------------ CG algebra

def test_clebsch_gordan_against_known_values():
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)
    assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(math.sqrt(2 / 3))
    assert clebsch_gordan(1.5, 1.5, 1, -1, 2.5, 0.5) == pytest.approx(math.sqrt(1 / 10))
    assert clebsch_gordan(0.5, 0.5, 1, -1, 1.5, -0.5) == pytest.approx(math.sqrt(1 / 3))
    assert clebsch_gordan(0.5, 0.5, 1, 1, 1.5, 1.5) == pytest.approx(1.0)


def _clebsch_gordan_every_k(j1, m1, j2, m2, j3, m3):
    """The Racah sum over every k from 0 to 2(j1 + j2 + j3), skipping each
    term with a negative factorial argument."""
    if abs(m1 + m2 - m3) > 1e-9:
        return 0.0
    if j3 < abs(j1 - j2) - 1e-9 or j3 > j1 + j2 + 1e-9:
        return 0.0
    if abs(m1) > j1 + 1e-9 or abs(m2) > j2 + 1e-9 or abs(m3) > j3 + 1e-9:
        return 0.0

    def fact(x):
        n = int(round(x))
        return None if n < 0 else math.factorial(n)

    pref = ((2 * j3 + 1) * fact(j3 + j1 - j2) * fact(j3 - j1 + j2)
            * fact(j1 + j2 - j3) / fact(j1 + j2 + j3 + 1))
    pref *= (fact(j3 + m3) * fact(j3 - m3) * fact(j1 - m1) * fact(j1 + m1)
             * fact(j2 - m2) * fact(j2 + m2))
    total = 0.0
    for k in range(0, int(round(2 * (j1 + j2 + j3))) + 1):
        denoms = [fact(k), fact(j1 + j2 - j3 - k), fact(j1 - m1 - k),
                  fact(j2 + m2 - k), fact(j3 - j2 + m1 + k), fact(j3 - j1 - m2 + k)]
        if any(d is None for d in denoms):
            continue
        total += (-1) ** k / math.prod(denoms)
    return math.sqrt(pref) * total


def test_clebsch_gordan_keeps_the_bits_of_the_sum_over_every_k():
    # the terms that the narrowed k range skips are exactly those with a
    # negative factorial argument, so the same terms add in the same order;
    # m3 = m1 + m2 may exceed j3, where both give 0
    cases = 0
    for two_j1 in range(9):
        for two_j2 in range(5):
            for two_j3 in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
                for two_m1 in range(-two_j1, two_j1 + 1, 2):
                    for two_m2 in range(-two_j2, two_j2 + 1, 2):
                        args = (two_j1 / 2, two_m1 / 2, two_j2 / 2, two_m2 / 2,
                                two_j3 / 2, (two_m1 + two_m2) / 2)
                        assert clebsch_gordan(*args).hex() \
                            == _clebsch_gordan_every_k(*args).hex(), args
                        cases += 1
    assert cases == 2321


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_clebsch_gordan_orthogonality(two_j1, j2):
    j1 = two_j1 / 2
    m_total = 0.5 if (two_j1 % 2) else 0.0
    j3_values = [j for j in np.arange(abs(j1 - j2), j1 + j2 + 1) if abs(m_total) <= j]
    for j3a in j3_values:
        for j3b in j3_values:
            acc = sum(
                clebsch_gordan(j1, m1, j2, m_total - m1, j3a, m_total)
                * clebsch_gordan(j1, m1, j2, m_total - m1, j3b, m_total)
                for m1 in np.arange(-j1, j1 + 1)
            )
            assert acc == pytest.approx(1.0 if j3a == j3b else 0.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=400.0))
@settings(max_examples=25, deadline=None)
def test_hamiltonian_hermitian_for_any_field(b):
    h = build_hamiltonian(D52, b)
    assert np.allclose(h, h.conj().T, atol=1e-12)
