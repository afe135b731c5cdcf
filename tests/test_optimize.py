"""Optimizer tests: determinism, elitism, bounds, oracle agreement."""

import numpy as np
import pytest

from cavmem.config import ExperimentConfig
from cavmem.errors import DomainError
from cavmem.optimize import (PARAMETER_NAMES, DriftModel, GASettings,
                             ParameterSpace, grid_search, objective, run_ga)

EC = ExperimentConfig()
CFG = EC.memory_config()
SPACE = EC.parameter_space()

DEFAULT_VEC = np.array([0.0, 0.2, 5.0, -0.1, 1.5, 1.6, 12.5, 2.7])


# --------------------------------------------------------------- objective

def test_objective_zero_without_control():
    x = DEFAULT_VEC.copy()
    x[1] = 0.0  # write energy
    assert objective(x, CFG) < 1e-5


def test_objective_deterministic():
    a = objective(DEFAULT_VEC, CFG)
    b = objective(DEFAULT_VEC, CFG)
    assert a == b
    assert a == pytest.approx(1.087, abs=0.01)


def test_objective_matches_normalized_efficiency():
    # the count ratio equals total efficiency divided by (1 - zeta)
    val = objective(DEFAULT_VEC, CFG, dt_ns=0.01)
    from cavmem.memory import PulseShape, simulate_storage_retrieval
    res = simulate_storage_retrieval(
        CFG, PulseShape(0.0, 1.5, 0.8),
        PulseShape(0.1, 1.6, 0.2),
        PulseShape(12.6, 2.7, 1.0), dt_ns=0.01)
    assert val == pytest.approx(res.total_efficiency / (1 - CFG.zeta()),
                                rel=1e-6)


def test_objective_independent_of_batch_companions():
    # a vector scores the same bits alone and anywhere inside mixed batches,
    # whose time windows span wider than its own
    from cavmem.optimize import _evaluate_batch
    alone = objective(DEFAULT_VEC, CFG)
    rng = np.random.default_rng(7)
    for size in (1, 7, 40):
        others = list(rng.uniform(SPACE.lower(), SPACE.upper(),
                                  size=(size - 1, len(PARAMETER_NAMES))))
        at = size // 2
        batch = others[:at] + [DEFAULT_VEC] + others[at:]
        vals = _evaluate_batch(batch, CFG, 0.0, 0.02, faults=None)
        assert vals[at] == alone


def test_invalid_settings_rejected():
    with pytest.raises(DomainError):
        GASettings(population=4)
    with pytest.raises(DomainError):
        GASettings(generations=0)
    with pytest.raises(DomainError):
        ParameterSpace(bounds={"write_energy_nj": (0.0, 1.0, 1e-3)})


def test_faulted_evaluation_scores_zero():
    from cavmem.optimize import _evaluate_batch
    faults = []
    bad = DEFAULT_VEC.copy()
    bad[5] = -1.0  # negative write width
    vals = _evaluate_batch([bad, DEFAULT_VEC], CFG, 0.0, 0.02, faults)
    assert vals[0] == 0.0 and vals[1] > 0.5
    assert len(faults) == 1


def test_overlap_rule_matches_simulator():
    # pulses without energy have no window: an overlapping dark setting is
    # simulated as the simulator would, a lit one is a fault scoring zero
    from cavmem.optimize import _evaluate_batch
    close = DEFAULT_VEC.copy()
    close[6] = 2.0  # write-read delay inside the pulse windows
    dark = close.copy()
    dark[1] = 0.0
    faults = []
    vals = _evaluate_batch([dark, close], CFG, 0.0, 0.02, faults)
    assert vals[0] > 0.0 and vals[0] == objective(dark, CFG)
    assert vals[1] == 0.0
    assert faults == ["read/write overlap"]


def test_resolution_rule_matches_simulator():
    # a lit pulse narrower than four steps is a fault scoring zero, as the
    # simulator refuses it; a dark one drives nothing and is simulated
    from cavmem.memory import batch_efficiency
    from cavmem.optimize import _evaluate_batch, _pulses_from_vector
    narrow = DEFAULT_VEC.copy()
    narrow[5] = 0.05  # write FWHM, 2.5 steps of 0.02 ns
    dark = narrow.copy()
    dark[1] = 0.0
    faults = []
    vals = _evaluate_batch([dark, narrow], CFG, 0.0, 0.02, faults)
    assert vals[0] > 0.0 and vals[0] == objective(dark, CFG)
    assert vals[1] == 0.0
    assert faults == ["a pulse too narrow for the grid at dt 0.02 ns"]
    with pytest.raises(DomainError, match="write pulse"):
        batch_efficiency(CFG, *([p] for p in _pulses_from_vector(narrow)), 0.0, 0.02)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_gene_rejected_at_each_entry_point(value):
    # each once read as an objective of 0: the objective of the vector, a
    # grid search's "best" of 0.0, or a GA seeded with it
    bad = DEFAULT_VEC.copy()
    bad[4] = value
    with pytest.raises(DomainError, match="signal_fwhm_ns"):
        objective(bad, CFG)
    fixed = fixed_from_default()
    scan = {"write_energy_nj": np.array([0.1, 0.2])}
    with pytest.raises(DomainError, match="signal_fwhm_ns"):
        grid_search(SPACE, CFG, scan, dict(fixed, signal_fwhm_ns=value))
    with pytest.raises(DomainError, match="write_energy_nj"):
        grid_search(SPACE, CFG, {"write_energy_nj": np.array([0.1, value])}, fixed)
    with pytest.raises(DomainError, match="signal_fwhm_ns"):
        run_ga(SPACE, CFG, DriftModel(), small_settings(), initial_population=bad)
    population = np.tile(DEFAULT_VEC, (10, 1))
    population[3] = bad
    with pytest.raises(DomainError, match="signal_fwhm_ns"):
        run_ga(SPACE, CFG, DriftModel(), small_settings(), initial_population=population)


@pytest.mark.parametrize("call", [
    lambda: objective(DEFAULT_VEC[:7], CFG),
    lambda: objective(np.append(DEFAULT_VEC, 1.0), CFG),
    lambda: run_ga(SPACE, CFG, DriftModel(), small_settings(), initial_population=DEFAULT_VEC[:7]),
    lambda: run_ga(SPACE, CFG, DriftModel(), small_settings(population=8),
                   initial_population=np.tile(DEFAULT_VEC[:7], (8, 1))),
    lambda: grid_search(SPACE, CFG, {"write_energy_nj": np.array([])},
                        fixed_from_default()),
], ids=["objective-7", "objective-9", "ga-initial-7", "ga-population-8x7",
        "grid-empty-axis"])
def test_malformed_input_rejected_at_each_entry_point(call):
    # each once raised a bare ValueError from unpacking, clipping or argmax
    with pytest.raises(DomainError):
        call()


def test_finite_infeasible_ga_vector_still_scores_zero_as_a_fault():
    # a negative write width inside the GA is a fault, not an error
    bad = DEFAULT_VEC.copy()
    bad[5] = -1.0
    space = ParameterSpace(bounds=dict(SPACE.bounds, write_fwhm_ns=(-2.0, 5.0, 1e-3)))
    trace = run_ga(space, CFG, DriftModel(), small_settings(generations=1),
                   initial_population=np.tile(bad, (10, 1)))
    assert trace.iterations[0]["objective"] == 0.0
    assert len(trace.faults) >= 10


# ----------------------------------------------------------------------- GA

def small_settings(**kw):
    base = dict(population=10, generations=5, dt_ns=0.02)
    base.update(kw)
    return GASettings(**base)


def _first_ga_batch(monkeypatch, **kw):
    """The vectors of the first batch that a 1-generation run evaluates."""
    from cavmem import optimize
    batches = []
    evaluate = optimize._evaluate_batch

    def spy(vectors, *args):
        batches.append(np.array(vectors))
        return evaluate(vectors, *args)

    monkeypatch.setattr(optimize, "_evaluate_batch", spy)
    run_ga(SPACE, CFG, DriftModel(), small_settings(generations=1), seed=9, **kw)
    return batches[0]


@pytest.mark.parametrize("rows", [1, 3])
def test_seed_vectors_replace_the_first_drawn_rows(monkeypatch, rows):
    # a single vector counts as one row; the seeds are clipped to the box,
    # and the rest of generation 0 is the unseeded draw of the same seed
    seeds = np.tile(DEFAULT_VEC, (3, 1))
    seeds[1, 1] = 5.0      # write energy above its bound of 2 nJ
    seeds[2, 0] = -0.3
    seeds = seeds[0] if rows == 1 else seeds
    unseeded = _first_ga_batch(monkeypatch)
    seeded = _first_ga_batch(monkeypatch, initial_population=seeds)
    assert np.array_equal(seeded[:rows],
                          np.clip(np.atleast_2d(seeds), SPACE.lower(), SPACE.upper()))
    assert np.array_equal(seeded[rows:], unseeded[rows:])


@pytest.mark.parametrize("seeds", [np.tile(DEFAULT_VEC, (11, 1)),
                                   np.empty((0, len(PARAMETER_NAMES))),
                                   DEFAULT_VEC[:7]],
                         ids=["11-rows", "0-rows", "7-genes"])
def test_seed_population_of_the_wrong_shape_refused(seeds):
    with pytest.raises(DomainError, match="initial population"):
        run_ga(SPACE, CFG, DriftModel(), small_settings(), initial_population=seeds)


def test_ga_reproducible_trace():
    a = run_ga(SPACE, CFG, DriftModel(enabled=False), small_settings(), seed=3)
    b = run_ga(SPACE, CFG, DriftModel(enabled=False), small_settings(), seed=3)
    assert a.iterations == b.iterations
    assert np.array_equal(a.final_population, b.final_population)


def test_ga_elitism_without_drift():
    trace = run_ga(SPACE, CFG, DriftModel(enabled=False), small_settings(),
                   seed=11)
    objs = [r["objective"] for r in trace.iterations]
    assert all(b >= a for a, b in zip(objs, objs[1:]))


def test_ga_respects_bounds():
    trace = run_ga(SPACE, CFG, DriftModel(enabled=False), small_settings(),
                   seed=5)
    assert trace.bound_violations == 0
    lo, hi = SPACE.lower(), SPACE.upper()
    for rec in trace.iterations:
        p = np.array(rec["parameters"])
        assert np.all(p >= lo) and np.all(p <= hi)


def test_identical_population_zero_mutation_fixed_point():
    settings = small_settings(mutation_prob=0.0, generations=3)
    pop0 = np.tile(DEFAULT_VEC, (settings.population, 1))
    trace = run_ga(SPACE, CFG, DriftModel(enabled=False), settings, seed=1,
                   initial_population=pop0)
    assert np.allclose(trace.final_population, pop0)
    objs = [r["objective"] for r in trace.iterations]
    assert all(o == objs[0] for o in objs)


def test_ga_improves_on_seeded_default():
    trace = run_ga(SPACE, CFG, DriftModel(enabled=False),
                   small_settings(population=12, generations=8), seed=2,
                   initial_population=DEFAULT_VEC)
    assert trace.best["objective"] >= objective(DEFAULT_VEC, CFG) - 1e-9


def test_noisy_ga_reproducible_and_its_first_best_replays_the_noise():
    # objective_noise_sd > 0 jitters every fitness with draws from the run's
    # one generator: the run repeats bit for bit from its seed, and its
    # generation-0 best is the best of the noise-free values of the seeded
    # population plus the seeded draws, replayed here in the run's order
    from cavmem.optimize import _evaluate_batch
    settings = small_settings(generations=2, objective_noise_sd=0.05)
    a = run_ga(SPACE, CFG, DriftModel(enabled=False), settings, seed=4)
    b = run_ga(SPACE, CFG, DriftModel(enabled=False), settings, seed=4)
    assert a.iterations == b.iterations
    assert np.array_equal(a.final_population, b.final_population)
    rng = np.random.default_rng(4)
    pop = rng.uniform(SPACE.lower(), SPACE.upper(),
                      size=(settings.population, len(PARAMETER_NAMES)))
    noisy = _evaluate_batch(list(pop), CFG, 0.0, settings.dt_ns, None) \
        + rng.normal(0, settings.objective_noise_sd, settings.population)
    k = int(np.argmax(noisy))
    assert a.iterations[0]["objective"] == noisy[k]
    assert a.iterations[0]["parameters"] == pop[k].tolist()


def test_trace_records_reproducible_objectives():
    trace = run_ga(SPACE, CFG, DriftModel(enabled=False), small_settings(),
                   seed=8)
    rec = trace.best
    again = objective(np.array(rec["parameters"]), CFG,
                      rec["drift_offset_ghz"], dt_ns=0.02)
    assert again == rec["objective"]


def test_ga_drift_recorded_and_degrading():
    drift = DriftModel(enabled=True, rate_ghz_per_iteration=0.08,
                       noise_sd_ghz=0.0)
    trace = run_ga(SPACE, CFG, drift, small_settings(generations=8), seed=4,
                   initial_population=DEFAULT_VEC)
    offsets = [r["drift_offset_ghz"] for r in trace.iterations]
    assert offsets == pytest.approx([0.08 * k for k in range(9)])
    objs = [r["objective"] for r in trace.iterations]
    assert objs[-1] < max(objs)  # the comb walked away


def _drift_ga_in_two_batches(space, drift, settings, seed):
    """Reference for run_ga with drift on: the same generations, but the
    children and the re-measured survivors go in two separate batches."""
    from cavmem.optimize import _evaluate_batch, _polynomial_mutation, _sbx_crossover
    rng = np.random.default_rng(seed)
    lo, hi = space.lower(), space.upper()
    faults, iterations = [], []

    def record(gen, pop, fitness, offset):
        k = int(np.argmax(fitness))
        iterations.append({"iteration": gen, "parameters": pop[k].tolist(),
                           "objective": float(fitness[k]),
                           "drift_offset_ghz": float(offset)})

    pop = rng.uniform(lo, hi, size=(settings.population, len(lo)))
    offset = drift.offset(0, rng)
    fitness = _evaluate_batch(list(pop), CFG, offset, settings.dt_ns, faults)
    record(0, pop, fitness, offset)
    for gen in range(1, settings.generations + 1):
        parents = []
        for _ in range(settings.population):
            picks = rng.integers(0, settings.population, settings.tournament)
            parents.append(pop[max(picks, key=lambda i: fitness[i])])
        children = []
        for i in range(0, settings.population - 1, 2):
            for c in _sbx_crossover(rng, parents[i], parents[i + 1], lo, hi,
                                    settings.crossover_eta, settings.crossover_prob):
                children.append(_polynomial_mutation(rng, c, lo, hi, settings.mutation_eta,
                                                     settings.mutation_prob))
        children = np.array(children[:settings.population])
        offset = drift.offset(gen, rng)
        child_fit = _evaluate_batch(list(children), CFG, offset, settings.dt_ns, faults)
        fitness = _evaluate_batch(list(pop), CFG, offset, settings.dt_ns, faults)
        merged = np.vstack([pop, children])
        merged_fit = np.concatenate([fitness, child_fit])
        order = np.argsort(-merged_fit, kind="stable")[:settings.population]
        pop, fitness = merged[order], merged_fit[order]
        record(gen, pop, fitness, offset)
    return iterations, faults, pop


def test_drift_ga_generation_is_one_batch_with_unchanged_results():
    # short delays make some settings overlap, so faults are recorded too
    bounds = dict(SPACE.bounds, write_read_delay_ns=(3.0, 8.0, 1e-3))
    space = ParameterSpace(bounds=bounds)
    drift = DriftModel(enabled=True)
    settings = small_settings(generations=3)
    trace = run_ga(space, CFG, drift, settings, seed=6)
    iterations, faults, pop = _drift_ga_in_two_batches(space, drift, settings, seed=6)
    assert faults
    assert trace.iterations == iterations
    assert trace.faults == faults
    assert np.array_equal(trace.final_population, pop)


# ------------------------------------------------------------- grid search

def fixed_from_default():
    return dict(zip(PARAMETER_NAMES, DEFAULT_VEC.tolist()))


def test_grid_search_degenerate_point():
    fixed = fixed_from_default()
    scan = {"write_energy_nj": np.array([0.2])}
    fixed.pop("write_energy_nj")
    best, value, vmap = grid_search(SPACE, CFG, scan, fixed)
    assert best["write_energy_nj"] == 0.2
    assert vmap.shape == (1,)
    assert value == pytest.approx(objective(DEFAULT_VEC, CFG), rel=1e-9)


def test_grid_search_dimension_guard():
    fixed = fixed_from_default()
    with pytest.raises(DomainError):
        grid_search(SPACE, CFG, {}, fixed)
    scan = {n: np.linspace(*SPACE.bounds[n][:2], 3) for n in PARAMETER_NAMES[:3]}
    with pytest.raises(DomainError):
        grid_search(SPACE, CFG, scan, fixed)


@pytest.mark.parametrize("call, message", [
    (lambda: ParameterSpace(bounds=dict(SPACE.bounds, read_fwhm_ns=(5.0, 0.4, 1e-3))),
     "empty range for read_fwhm_ns"),
    (lambda: SPACE.restrict(read_fwhm=1.0), "unknown parameter read_fwhm"),
    (lambda: GASettings(crossover_prob=1.5), r"probabilities must lie in \[0, 1\]"),
    (lambda: GASettings(mutation_prob=-0.1), r"probabilities must lie in \[0, 1\]"),
    (lambda: grid_search(SPACE, CFG, {"write_energy_nj": np.array([0.2])},
                         {n: v for n, v in fixed_from_default().items()
                          if n != "read_fwhm_ns"}),
     r"unpinned parameters: \['read_fwhm_ns'\]"),
    (lambda: grid_search(SPACE, CFG, {"write_energy_nj": np.linspace(0.1, 1.0, 1001),
                                      "read_fwhm_ns": np.linspace(1.0, 3.0, 1000)},
                         fixed_from_default()), "grid too large"),
], ids=["space-empty-range", "restrict-unknown", "crossover-prob", "mutation-prob",
        "grid-unpinned", "grid-over-1e6"])
def test_refusal_names_its_cause(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("scan, extra", [({"write_energy": [0.1, 0.2, 0.5]}, {}),
                                         ({"write_energy_nj": [0.1, 0.2]},
                                          {"read_fwhm": 1.0})],
                         ids=["scan", "fixed"])
def test_grid_search_refuses_a_name_that_is_not_a_parameter(scan, extra):
    name = next(iter(extra or scan))
    with pytest.raises(DomainError, match=f"unknown parameter {name}$"):
        grid_search(SPACE, CFG, scan, dict(fixed_from_default(), **extra))


def test_grid_search_matches_energy_scan():
    from cavmem.memory import PulseShape, energy_scan
    energies = np.linspace(0.05, 0.8, 16)
    fixed = fixed_from_default()
    fixed.pop("write_energy_nj")
    _, _, vmap = grid_search(SPACE, CFG, {"write_energy_nj": energies}, fixed)
    effs = energy_scan(CFG, PulseShape(0.0, 1.5, 0.8),
                       PulseShape(0.1, 1.6, 0.2),
                       PulseShape(12.6, 2.7, 1.0),
                       energies, dt_ns=0.02)
    assert int(np.argmax(vmap)) == int(np.argmax(effs))
    assert np.allclose(vmap * (1 - CFG.zeta()), effs, rtol=1e-6)


def test_grid_search_map_entries_are_objectives():
    # each entry of a 2-D map is the objective of its vector, bit for bit,
    # including vectors whose pulses overlap (scored 0), and `best` is the
    # vector at the map's argmax
    fixed = fixed_from_default()
    delays = np.array([2.0, 9.0, 12.5])
    energies = np.array([0.05, 0.2, 0.35, 0.6])
    scan = {"write_read_delay_ns": delays, "write_energy_nj": energies}
    for name in scan:
        fixed.pop(name)
    best, value, vmap = grid_search(SPACE, CFG, scan, fixed)
    assert vmap.shape == (3, 4)
    for i, delay in enumerate(delays):
        for j, energy in enumerate(energies):
            vec = dict(fixed, write_read_delay_ns=delay, write_energy_nj=energy)
            assert vmap[i, j] == objective([vec[n] for n in PARAMETER_NAMES], CFG)
    assert vmap[0, 0] == 0.0
    i, j = np.unravel_index(np.argmax(vmap), vmap.shape)
    assert best == {"write_read_delay_ns": delays[i], "write_energy_nj": energies[j]}
    assert value == vmap[i, j]


def test_ga_reaches_coarse_grid_optimum():
    # quick 2-D sanity version of the oracle comparison
    fixed = fixed_from_default()
    e_grid = np.linspace(0.05, 0.6, 12)
    d_grid = np.linspace(-0.2, 0.4, 13)
    scan = {"write_energy_nj": e_grid, "two_photon_detuning_ghz": d_grid}
    fixed.pop("write_energy_nj")
    fixed.pop("two_photon_detuning_ghz")
    _, grid_best, _ = grid_search(SPACE, CFG, scan, fixed)

    slice_space = SPACE.restrict(**fixed)
    trace = run_ga(slice_space, CFG, DriftModel(enabled=False),
                   small_settings(population=12, generations=10), seed=42)
    assert trace.best["objective"] >= 0.95 * grid_best
