"""Genetic-algorithm tuning loop for the pulse parameters.

Single-objective loop built from the non-dominated-sorting toolbox pieces
(binary tournament selection, simulated-binary crossover, polynomial
mutation); with one objective the non-domination ranking degenerates to
sorting by fitness, which is what the implementation uses.  A drift model can
shift the cavity comb every iteration to reproduce the non-converging
behaviour of a thermally drifting resonator.

All randomness flows through one seeded generator; population evaluations are
batched through the vectorized simulator in a fixed order, so traces are
reproducible bit-for-bit regardless of how the batch is executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, require_finite
from .memory import MemoryConfig, PulseShape, batch_efficiency, pulses_overlap

__all__ = [
    "ParameterSpace", "DriftModel", "GASettings", "OptimizationTrace",
    "objective", "run_ga", "grid_search",
]

# tuned parameters, in the order they appear in trace records
PARAMETER_NAMES = (
    "two_photon_detuning_ghz",
    "write_energy_nj",
    "read_write_ratio",
    "signal_delay_ns",
    "signal_fwhm_ns",
    "write_fwhm_ns",
    "write_read_delay_ns",
    "read_fwhm_ns",
)


@dataclass(frozen=True)
class ParameterSpace:
    """Box bounds and resolution for each tuned parameter."""

    bounds: dict = field(default_factory=lambda: {
        "two_photon_detuning_ghz": (-0.5, 0.5, 1e-4),
        "write_energy_nj": (0.01, 2.0, 1e-4),
        "read_write_ratio": (0.5, 20.0, 1e-3),
        "signal_delay_ns": (-2.0, 2.0, 1e-3),
        "signal_fwhm_ns": (0.4, 5.0, 1e-3),
        "write_fwhm_ns": (0.4, 5.0, 1e-3),
        "write_read_delay_ns": (10.0, 16.0, 1e-3),
        "read_fwhm_ns": (0.4, 5.0, 1e-3),
    })

    def __post_init__(self):
        if set(self.bounds) != set(PARAMETER_NAMES):
            raise DomainError(f"parameter names must be exactly {PARAMETER_NAMES}")
        for name, (lo, hi, _res) in self.bounds.items():
            if lo >= hi:
                raise DomainError(f"empty range for {name}")

    @property
    def names(self):
        return PARAMETER_NAMES

    def lower(self):
        return np.array([self.bounds[n][0] for n in PARAMETER_NAMES])

    def upper(self):
        return np.array([self.bounds[n][1] for n in PARAMETER_NAMES])

    def restrict(self, **fixed) -> "ParameterSpace":
        """Pin the given parameters to single values (degenerate ranges)."""
        new = dict(self.bounds)
        for name, value in fixed.items():
            if name not in new:
                raise DomainError(f"unknown parameter {name}")
            res = new[name][2]
            new[name] = (value, value + 1e-12, res)
        return ParameterSpace(bounds=new)


@dataclass(frozen=True)
class DriftModel:
    """Deterministic cavity-comb drift plus seeded Gaussian jitter."""

    enabled: bool = False
    rate_ghz_per_iteration: float = 0.010
    noise_sd_ghz: float = 0.002

    def __post_init__(self):
        require_finite(self, "drift")
        if self.noise_sd_ghz < 0:
            raise DomainError("drift noise_sd_ghz must be non-negative")

    def offset(self, iteration: int, rng: np.random.Generator) -> float:
        if not self.enabled:
            return 0.0
        jitter = rng.normal(0.0, self.noise_sd_ghz) if self.noise_sd_ghz > 0 else 0.0
        return self.rate_ghz_per_iteration * iteration + jitter


@dataclass(frozen=True)
class GASettings:
    population: int = 24
    generations: int = 60
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = 1.0 / len(PARAMETER_NAMES)
    mutation_eta: float = 20.0
    tournament: int = 2
    objective_noise_sd: float = 0.0  # shot-noise jitter, off by default
    dt_ns: float = 0.02

    def __post_init__(self):
        require_finite(self, "GA settings")
        if self.population < 8:
            raise DomainError("population must be at least 8")
        if self.generations < 1:
            raise DomainError("at least one generation required")
        if self.tournament < 1:
            raise DomainError("tournament must hold at least one individual")
        if self.crossover_eta < 0 or self.mutation_eta < 0:
            raise DomainError("crossover and mutation eta must be non-negative")
        if self.objective_noise_sd < 0:
            raise DomainError("objective_noise_sd must be non-negative")
        if not (0 <= self.crossover_prob <= 1 and 0 <= self.mutation_prob <= 1):
            raise DomainError("probabilities must lie in [0, 1]")
        if self.dt_ns <= 0:
            raise DomainError("time step dt_ns must be positive")


@dataclass
class OptimizationTrace:
    seed: int
    settings: GASettings
    space: ParameterSpace
    drift: DriftModel
    iterations: list = field(default_factory=list)  # dicts per generation
    faults: list = field(default_factory=list)
    final_population: np.ndarray | None = None
    bound_violations: int = 0

    @property
    def best(self) -> dict:
        return max(self.iterations, key=lambda r: r["objective"])


def _pulses_from_vector(x, base_write_center: float = 0.1,
                        signal_photons: float = 0.8):
    delta, e_w, ratio, s_delay, s_fwhm, w_fwhm, rw_delay, r_fwhm = x
    signal = PulseShape(base_write_center + s_delay, s_fwhm, signal_photons)
    write = PulseShape(base_write_center, w_fwhm, e_w,
                       carrier_detuning_ghz=delta)
    read = PulseShape(base_write_center + rw_delay, r_fwhm, e_w * ratio,
                      carrier_detuning_ghz=delta)
    return signal, write, read


def _require_finite_genes(vectors, what: str) -> np.ndarray:
    """`vectors` as a float array; DomainError unless each vector holds one
    gene per parameter, naming every parameter that holds a NaN or inf,
    which no pulse setting has and so no objective."""
    arr = np.asarray(vectors, dtype=float)
    rows = np.atleast_2d(arr)
    if rows.shape[-1] != len(PARAMETER_NAMES):
        raise DomainError(f"{what} must hold {len(PARAMETER_NAMES)} genes "
                          f"({', '.join(PARAMETER_NAMES)}), got shape {arr.shape}")
    bad = [n for n, col in zip(PARAMETER_NAMES, rows.T)
           if not np.all(np.isfinite(col))]
    if bad:
        raise DomainError(f"{what} must be finite; non-finite {', '.join(bad)}")
    return arr


def objective(params_vector, config: MemoryConfig, drift_offset_ghz: float = 0.0,
              dt_ns: float = 0.02) -> float:
    """Retrieved-to-reference count ratio for one parameter vector.

    A finite vector that makes no valid pulse setting scores 0; one with a
    NaN or inf gene raises DomainError.
    """
    vector = _require_finite_genes(params_vector, "parameter vector")
    vals = _evaluate_batch([vector], config, drift_offset_ghz, dt_ns, faults=None)
    return float(vals[0])


def _evaluate_batch(vectors, config: MemoryConfig, drift_offset_ghz: float,
                    dt_ns: float, faults) -> np.ndarray:
    """Batched objective evaluation; failed settings score zero."""
    signals, writes, reads, ok = [], [], [], []
    for x in vectors:
        try:
            s, w, r = _pulses_from_vector(x)
            if pulses_overlap(w, r):
                raise DomainError("read/write overlap")
            signals.append(s)
            writes.append(w)
            reads.append(r)
            ok.append(True)
        except DomainError as exc:
            if faults is not None:
                faults.append(str(exc))
            ok.append(False)
    out = np.zeros(len(vectors))
    out[np.asarray(ok, dtype=bool)] = batch_efficiency(
        config, signals, writes, reads, drift_offset_ghz, dt_ns, internal=True)
    return out


def _sbx_crossover(rng, a, b, lo, hi, eta, prob):
    """Simulated binary crossover, per-gene."""
    c1, c2 = a.copy(), b.copy()
    if rng.random() > prob:
        return c1, c2
    for k in range(len(a)):
        if rng.random() > 0.5 or abs(a[k] - b[k]) < 1e-14:
            continue
        u = rng.random()
        beta = (2 * u) ** (1 / (eta + 1)) if u <= 0.5 \
            else (1 / (2 * (1 - u))) ** (1 / (eta + 1))
        c1[k] = 0.5 * ((1 + beta) * a[k] + (1 - beta) * b[k])
        c2[k] = 0.5 * ((1 - beta) * a[k] + (1 + beta) * b[k])
    return np.clip(c1, lo, hi), np.clip(c2, lo, hi)


def _polynomial_mutation(rng, x, lo, hi, eta, prob):
    y = x.copy()
    for k in range(len(x)):
        if rng.random() > prob:
            continue
        u = rng.random()
        span = hi[k] - lo[k]
        if span <= 0:
            continue
        if u < 0.5:
            delta = (2 * u) ** (1 / (eta + 1)) - 1
        else:
            delta = 1 - (2 * (1 - u)) ** (1 / (eta + 1))
        y[k] = x[k] + delta * span
    return np.clip(y, lo, hi)


def run_ga(space: ParameterSpace, config: MemoryConfig, drift: DriftModel,
           settings: GASettings | None = None, seed: int = 12345,
           initial: np.ndarray | None = None,
           initial_population: np.ndarray | None = None) -> OptimizationTrace:
    """Evolve the pulse parameters against the simulated objective.

    Tournament selection on fitness, SBX crossover, polynomial mutation,
    elitist survivor selection.  With drift disabled the whole population
    keeps cached fitness values and the running best never decreases; with
    drift enabled everything is re-measured at each iteration's drift offset,
    children and survivors in one batch, so the recorded best can fall as
    the comb walks away.
    """
    settings = settings or GASettings()
    rng = np.random.default_rng(seed)
    lo, hi = space.lower(), space.upper()
    trace = OptimizationTrace(seed=seed, settings=settings, space=space,
                              drift=drift)

    if initial_population is not None:
        pop = _require_finite_genes(initial_population, "initial population")
        if pop.shape != (settings.population, len(lo)):
            raise DomainError("initial population shape mismatch")
        pop = np.clip(pop, lo, hi)
    else:
        pop = rng.uniform(lo, hi, size=(settings.population, len(lo)))
        if initial is not None:
            pop[0] = np.clip(_require_finite_genes(initial, "initial vector"), lo, hi)

    def check_bounds(vectors):
        outside = (vectors < lo - 1e-12) | (vectors > hi + 1e-12)
        trace.bound_violations += int(np.count_nonzero(outside.any(axis=1)))

    drift_offset = drift.offset(0, rng)
    check_bounds(pop)
    fitness = _evaluate_batch(list(pop), config, drift_offset, settings.dt_ns,
                              trace.faults)
    if settings.objective_noise_sd > 0:
        fitness = fitness + rng.normal(0, settings.objective_noise_sd,
                                       len(fitness))
    _record(trace, 0, pop, fitness, drift_offset)

    for gen in range(1, settings.generations + 1):
        # binary tournaments fill the mating pool
        parents = []
        for _ in range(settings.population):
            picks = rng.integers(0, settings.population, settings.tournament)
            parents.append(pop[max(picks, key=lambda i: fitness[i])])
        children = []
        for i in range(0, settings.population - 1, 2):
            c1, c2 = _sbx_crossover(rng, parents[i], parents[i + 1], lo, hi,
                                    settings.crossover_eta,
                                    settings.crossover_prob)
            children.append(_polynomial_mutation(rng, c1, lo, hi,
                                                 settings.mutation_eta,
                                                 settings.mutation_prob))
            children.append(_polynomial_mutation(rng, c2, lo, hi,
                                                 settings.mutation_eta,
                                                 settings.mutation_prob))
        children = np.array(children[:settings.population])

        drift_offset = drift.offset(gen, rng)
        check_bounds(children)
        # with drift the landscape moved: the survivors are re-measured in
        # the children's batch
        batch = list(children) + (list(pop) if drift.enabled else [])
        values = _evaluate_batch(batch, config, drift_offset, settings.dt_ns,
                                 trace.faults)
        child_fit = values[:len(children)]
        if drift.enabled:
            fitness = values[len(children):]
        if settings.objective_noise_sd > 0:
            child_fit = child_fit + rng.normal(0, settings.objective_noise_sd,
                                               len(child_fit))

        merged = np.vstack([pop, children])
        merged_fit = np.concatenate([fitness, child_fit])
        order = np.argsort(-merged_fit, kind="stable")[:settings.population]
        pop, fitness = merged[order], merged_fit[order]
        _record(trace, gen, pop, fitness, drift_offset)
    trace.final_population = pop.copy()
    return trace


def _record(trace, iteration, pop, fitness, drift_offset):
    k = int(np.argmax(fitness))
    trace.iterations.append({
        "iteration": iteration,
        "parameters": pop[k].tolist(),
        "objective": float(fitness[k]),
        "drift_offset_ghz": float(drift_offset),
    })


def grid_search(space: ParameterSpace, config: MemoryConfig,
                scan: dict[str, np.ndarray], fixed: dict[str, float],
                dt_ns: float = 0.02, batch: int = 1024):
    """Exhaustive objective evaluation over one or two parameter grids.

    `scan` maps up to two parameter names to their grids; `fixed` pins the
    remaining parameters.  Returns (best_vector_dict, best_value, value_map).
    """
    if len(scan) == 0 or len(scan) > 2:
        raise DomainError("grid search supports one or two parameters")
    names = list(scan)
    grids = [np.asarray(scan[n], dtype=float) for n in names]
    shape = tuple(len(g) for g in grids)
    if 0 in shape:
        raise DomainError(f"empty grid for {names[shape.index(0)]}")
    total = int(np.prod(shape))
    if total > 1_000_000:
        raise DomainError("grid too large (over 1e6 points)")
    missing = set(PARAMETER_NAMES) - set(names) - set(fixed)
    if missing:
        raise DomainError(f"unpinned parameters: {sorted(missing)}")

    mesh = dict(zip(names, np.meshgrid(*grids, indexing="ij")))
    vectors = np.empty((total, len(PARAMETER_NAMES)))
    for col, n in enumerate(PARAMETER_NAMES):
        vectors[:, col] = mesh[n].ravel() if n in mesh else fixed[n]
    _require_finite_genes(vectors, "grid points")
    values = np.empty(total)
    for start in range(0, total, batch):
        chunk = vectors[start:start + batch]
        values[start:start + len(chunk)] = _evaluate_batch(
            chunk, config, 0.0, dt_ns, None)
    value_map = values.reshape(shape)
    k = int(np.argmax(values))
    best = {n: float(mesh[n].flat[k]) for n in names}
    return best, float(values[k]), value_map
