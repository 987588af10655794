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
    "dispatch_solver",
    "run_experiment",
    "write_records",
]

SOLVER_NAMES = ("nonprivate", "covering-hs", "scalar", "constraint", "objective")

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
    solver: str
    seed: int
    iterations: int
    max_violation: float
    num_violated: int
    alpha_bound: float
    eps: float
    delta: float
    wall_ms: float
    guarantee_flags: tuple[str, ...]
    report: SolveReport

    def row(self, include_wall: bool) -> list[str]:
        cells = [
            repr(self.seed),
            repr(self.iterations),
            repr(self.max_violation),
            repr(self.num_violated),
            repr(self.alpha_bound),
            repr(self.eps),
            repr(self.delta),
        ]
        if include_wall:
            cells.append(repr(self.wall_ms))
        return cells


def _alpha_bound(solver: str, instance: ScpInstance, config: SolverConfig) -> float:
    alg = instance.algebra
    eps = config.budget.epsilon
    delta = config.budget.delta
    if solver != "nonprivate" and delta <= 0.0:
        # every private solver's schedule or bound takes log(1/delta)
        raise ValueError(f"the {solver} solver requires delta > 0")
    dinf = config.sensitivity.value
    if solver == "scalar":
        return scalar_private_alpha_bound(
            dinf,
            instance.width,
            alg.rank,
            instance.num_constraints,
            eps,
            delta,
            config.beta,
        )
    if solver == "constraint":
        return constraint_private_alpha_bound(
            dinf, alg.rank, alg.dim, eps, delta, config.beta
        )
    if solver == "objective":
        return objective_private_alpha_bound(
            dinf, alg.rank, alg.dim, eps, delta, config.beta
        )
    return config.alpha


def dispatch_solver(
    solver: str,
    instance: ScpInstance,
    config: SolverConfig,
    rng: RandomSource,
    opt: float | None = None,
) -> SolveReport:
    if solver == "nonprivate":
        return solve_feasibility(
            instance, config.alpha, rng=rng, collect_trace=config.collect_trace
        )
    if solver == "scalar":
        return solve_scalar_private(instance, config, rng)
    if solver == "constraint":
        return solve_constraint_private(instance, config, rng)
    if solver == "covering-hs":
        if opt is None:
            raise ValueError("the covering solver needs a trace budget (opt)")
        return solve_covering_high_sensitivity(instance, opt, config, rng)
    if solver == "objective":
        _, report = solve_objective_private(instance, config, rng)
        return report
    raise ValueError(f"unknown solver {solver!r}; choose from {SOLVER_NAMES}")


def run_experiment(
    instance: ScpInstance,
    solver: str,
    config: SolverConfig,
    seeds,
    opt: float | None = None,
) -> list[RunRecord]:
    """Run one solver over several seeds and collect one record per run."""
    records = []
    bound = _alpha_bound(solver, instance, config)
    for seed in seeds:
        rng = RandomSource(int(seed))
        start = time.perf_counter()
        report = dispatch_solver(solver, instance, config, rng, opt=opt)
        wall_ms = 1000.0 * (time.perf_counter() - start)
        records.append(
            RunRecord(
                solver=solver,
                seed=int(seed),
                iterations=report.iterations,
                max_violation=(
                    report.max_violation if math.isfinite(report.max_violation) else math.nan
                ),
                num_violated=report.num_violated,
                alpha_bound=bound,
                eps=config.budget.epsilon,
                delta=config.budget.delta,
                wall_ms=wall_ms,
                guarantee_flags=report.guarantee_flags,
                report=report,
            )
        )
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
