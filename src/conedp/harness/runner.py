"""Experiment runner: solver dispatch, per-seed records, CSV emission.

CSV columns are fixed and documented in :data:`CSV_COLUMNS`.  The
``wall_ms`` column is only written by benchmark runs; determinism-checked
``solve`` output uses :data:`SOLVE_CSV_COLUMNS`, which contains no timing
so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

from conedp.mechanisms import RandomSource
from conedp.oracles import ScpInstance
from conedp.solvers import (
    SolveReport,
    SolverConfig,
    constraint_private_alpha_bound,
    objective_private_alpha_bound,
    scalar_private_alpha_bound,
    solve_constraint_private,
    solve_covering_high_sensitivity,
    solve_feasibility,
    solve_objective_private,
    solve_scalar_private,
)

__all__ = [
    "SOLVER_NAMES",
    "CSV_COLUMNS",
    "SOLVE_CSV_COLUMNS",
    "RunRecord",
    "run_experiment",
    "write_records",
]


def _closed_form(bound):
    """The alpha bound of a closed form taking (dinf, rank, dim, eps, delta, beta)."""
    return lambda inst, c: bound(
        c.sensitivity.value, inst.algebra.rank, inst.algebra.dim,
        c.budget.epsilon, c.budget.delta, c.beta,
    )


# solver name -> (run(instance, config, rng, opt) -> SolveReport,
#                 alpha bound(instance, config))
_SOLVERS = {
    "nonprivate": (
        lambda inst, c, rng, opt: solve_feasibility(
            inst, c.alpha, rng=rng, collect_trace=c.collect_trace
        ),
        lambda inst, c: c.alpha,
    ),
    "covering-hs": (
        lambda inst, c, rng, opt: solve_covering_high_sensitivity(inst, opt, c, rng),
        lambda inst, c: c.alpha,
    ),
    "scalar": (
        lambda inst, c, rng, opt: solve_scalar_private(inst, c, rng),
        lambda inst, c: scalar_private_alpha_bound(
            c.sensitivity.value, inst.width, inst.algebra.rank, inst.num_constraints,
            c.budget.epsilon, c.budget.delta, c.beta,
        ),
    ),
    "constraint": (
        lambda inst, c, rng, opt: solve_constraint_private(inst, c, rng),
        _closed_form(constraint_private_alpha_bound),
    ),
    "objective": (
        lambda inst, c, rng, opt: solve_objective_private(inst, c, rng)[1],
        _closed_form(objective_private_alpha_bound),
    ),
}
SOLVER_NAMES = tuple(_SOLVERS)

SOLVE_CSV_COLUMNS = (
    "seed",
    "T",
    "max_violation",
    "num_violated",
    "alpha_bound",
    "eps",
    "delta",
)
CSV_COLUMNS = SOLVE_CSV_COLUMNS + ("wall_ms",)


@dataclass(frozen=True)
class RunRecord:
    seed: int
    alpha_bound: float
    eps: float
    delta: float
    wall_ms: float
    report: SolveReport

    def row(self, include_wall: bool) -> list[str]:
        r = self.report
        violation = r.max_violation if math.isfinite(r.max_violation) else math.nan
        cells = [self.seed, r.iterations, violation, r.num_violated]
        cells += [self.alpha_bound, self.eps, self.delta]
        if include_wall:
            cells.append(self.wall_ms)
        return [repr(v) for v in cells]


def dispatch_solver(
    solver: str,
    instance: ScpInstance,
    config: SolverConfig,
    rng: RandomSource,
    opt: float | None = None,
) -> SolveReport:
    """One solve, of a solver name, delta and opt that :func:`run_experiment` checked."""
    return _SOLVERS[solver][0](instance, config, rng, opt)


def run_experiment(
    instance: ScpInstance,
    solver: str,
    config: SolverConfig,
    seeds,
    opt: float | None = None,
) -> list[RunRecord]:
    """Run one solver over several seeds and collect one record per run.

    The solver name, delta and opt are checked, and the alpha bound
    computed, before the first seed runs.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVER_NAMES}")
    eps = config.budget.epsilon
    delta = config.budget.delta
    if solver != "nonprivate" and delta <= 0.0:
        # every private solver's schedule or bound takes log(1/delta)
        raise ValueError(f"the {solver} solver requires delta > 0")
    if solver == "covering-hs" and opt is None:
        raise ValueError("the covering solver needs a trace budget (opt)")
    bound = _SOLVERS[solver][1](instance, config)
    records = []
    for seed in seeds:
        rng = RandomSource(int(seed))
        start = time.perf_counter()
        report = dispatch_solver(solver, instance, config, rng, opt=opt)
        wall_ms = 1000.0 * (time.perf_counter() - start)
        records.append(RunRecord(int(seed), bound, eps, delta, wall_ms, report))
    return records


def write_records(path: str | Path, records, include_wall: bool = True) -> None:
    """Append records as CSV, writing the header only for a fresh file.

    A non-empty file whose header differs from this one raises ValueError
    and is left unchanged, so solve rows and bench rows never share a file.
    """
    path = Path(path)
    header = CSV_COLUMNS if include_wall else SOLVE_CSV_COLUMNS
    fresh = not (path.exists() and path.stat().st_size > 0)
    if not fresh:
        with path.open(newline="") as fh:
            found = next(csv.reader(fh), [])
        if tuple(found) != header:
            raise ValueError(
                f"{path} has the header {','.join(found)!r}, not {','.join(header)!r}; "
                "write these rows to another file"
            )
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        for rec in records:
            writer.writerow(rec.row(include_wall))
