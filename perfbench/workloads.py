"""The three workloads: which instances set-up generates, what each client
step runs through the CLI, and how each solve's output is checked.

Instance and solver seeds are derived from the workload seed, so one seed
always gives the same inputs and another seed gives unseen instances.  The
reasons for each choice are in README.md beside this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from conedp.eja import min_eigenvalue, trace


@dataclass
class Solve:
    """One solver run: its CSV row (column -> text) and the solver's report."""

    step: int
    row: dict
    report: object


@dataclass
class Workload:
    name: str
    gens: list[list[str]]  # `conedp gen` argument lists, run at set-up
    make_step: Callable[[], Callable[[int, Path], list[str]]]  # after set-up
    solves_per_step: int
    min_steps: int  # every run completes these; the reported digest covers them
    check_solve: Callable[[Solve], bool] = lambda solve: True
    check_all: Callable[[list[Solve]], bool] = lambda solves: True


def cone_exact(seed: int, tiny: bool, work: Path) -> Workload:
    # criterion 09: planted S3, zero margin, exact oracle, alpha = 0.1; a run
    # cycles through a pool of instances so that its median does not hang on
    # a few instances of the seed
    m, alpha, pool = (8, 0.4, 4) if tiny else (32, 0.1, 40)
    files = [work / f"cone-{j}.json" for j in range(pool)]
    gens = [
        ["gen", "--kind", "feasible-scp", "--alg", "s3", "--m", str(m), "--margin", "0",
         "--seed", str(900 + pool * seed + j), "--out", str(path)]
        for j, path in enumerate(files)
    ]

    def make_step():
        def step(i, csv):
            return ["solve", "--instance", str(files[i % pool]), "--solver", "nonprivate",
                    "--alpha", repr(alpha), "--seed", str(pool * seed + i), "--csv", str(csv)]
        return step

    def check_solve(solve):
        x = solve.report.solution
        return (
            float(solve.row["max_violation"]) <= alpha
            and abs(trace(x) - 1.0) <= 1e-8
            and min_eigenvalue(x) >= -1e-8
        )

    return Workload("cone-exact", gens, make_step, 1, 3, check_solve)


def covering_dense(seed: int, tiny: bool, work: Path) -> Workload:
    # criterion 10: the analytic instance plus random ones (101 and 202 among
    # them at seed 0), s just above the density floor; the tiny size raises
    # eps so that a small m clears the floor
    r, m, s, eps, randoms = (2, 16, 4, 8.0, 2) if tiny else (3, 64, 62, 1.0, 8)
    pool = randoms + 1
    files = [work / f"cover-{j}.json" for j in range(pool)]
    common = ["gen", "--kind", "covering-sdp", "--r", str(r), "--m", str(m)]
    gens = [common + ["--analytic", "--out", str(files[0])]] + [
        common + ["--seed", str(101 * j + 1000 * seed), "--out", str(files[j])]
        for j in range(1, pool)
    ]

    def make_step():
        alphas = [
            0.5 * json.loads(path.read_text())["metadata"]["planted_opt"] for path in files
        ]

        def step(i, csv):
            j = i % pool
            return ["solve", "--instance", str(files[j]), "--solver", "covering-hs",
                    "--eps", repr(eps), "--delta", "0.01", "--beta", "0.1", "--s", str(s),
                    "--alpha", repr(alphas[j]), "--seed", str(20 * seed + i // pool),
                    "--csv", str(csv)]
        return step

    def check_all(solves):
        # fewer than s violated rows on at least 9 in 10 seeds of each instance
        for j in range(pool):
            mine = [x for x in solves if x.step % pool == j]
            good = sum(int(x.row["num_violated"]) < s for x in mine)
            if good < math.ceil(0.9 * len(mine)):
                return False
        return True

    return Workload("covering-dense", gens, make_step, 1, pool, check_all=check_all)


def private_wide(seed: int, tiny: bool, work: Path) -> Workload:
    m = 200 if tiny else 4000
    path = work / "wide.json"
    gens = [["gen", "--kind", "feasible-scp", "--alg", "r2+s3+q4", "--m", str(m),
             "--seed", str(11 + 1000 * seed), "--out", str(path)]]

    def make_step():
        def step(i, csv):
            return ["bench", "--instance", str(path), "--solver", "scalar",
                    "--eps-grid", "1,4", "--seeds", "2", "--delta", "1e-5",
                    "--alpha", "0.3", "--dinf", "0.05", "--csv", str(csv)]
        return step

    def check_solve(solve):
        violation = float(solve.row["max_violation"])
        return math.isfinite(violation) and violation <= float(solve.row["alpha_bound"])

    return Workload("private-wide", gens, make_step, 4, 1, check_solve)


WORKLOADS = {
    "cone-exact": cone_exact,
    "covering-dense": covering_dense,
    "private-wide": private_wide,
}
