"""Per-layer timings of the cone and covering steps, written as a BENCH_*.json file.

Each case is timed in CPU seconds per call (``time.process_time``) over
``--repeat`` timeit repeats, and both the median and the minimum over the
repeats are reported: the Jacobi eigensolver at r = 2 to 10, its first
call at r = 3, 8 and 10 with that size's generated kernel dropped from the
cache (compile included; left out for a checkout that has no kernel
cache), the stacked eigenvalue Jacobi on the S3 stacks of a criterion-09
instance (m = 32) and of a 4,000-row r2+s3+q4 instance, the spin-factor
eigenvalues of that instance's Q4 stack and its whole ``ScpInstance.width``
(the cached property's function, run afresh on each call), the cone step kernel
``mwu._exp_sums`` (the one the primal solver loop runs) and one cone MWU
step on s3, s8 and r2+s3+q4, one criterion-09 exact solve
(planted S3, m = 32, alpha = 0.1), ``generate_feasible_scp`` for the
4,000-row r2+s3+q4 instance (the size of the private-wide benchmark file)
and ``generate_covering_sdp`` for a random S3 one with m = 64 (the
covering-dense size), ``save_instance`` / ``load_instance`` and
``ScpInstance.violations`` on the 4,000-row instance, one scalar-private solve on it (epsilon 1,
delta 1e-5, alpha 0.3, sensitivity 0.05: one solve of the private-wide
benchmark sweep), ``bregman_project`` at m = 64 and 4,096
(s = m - 2 and m - 96, the dense regime of the covering solver),
``exponential_mechanism`` over 80 and 4,000 candidates, one
criterion-10 covering solve (analytic S3, m = 64, s = 62, alpha = opt/2),
one criterion-11 constraint-private solve (S2, m = 8, seed 1100, epsilon 2,
delta 0.05, sensitivity 0.01, alpha from ``constraint_private_alpha_bound``)
and one criterion-12 objective-private solve over 256 candidates (the
analytic S2 instance, epsilon 1, delta 0.05, sensitivity 0.1).
Inputs come from fixed seeds.  The script imports ``conedp`` from the
checkout it sits in, so a copy of it in another checkout times that
checkout.

    python benchmarks/layers.py --label parent --out a.json
    python benchmarks/layers.py --label change --baseline a.json --out b.json
    python benchmarks/layers.py --label parent --baseline b.json --out c.json

With ``--baseline``, the output holds the earlier file's runs and this
one, so alternating runs of two checkouts in fresh interpreters chain into
one file.  It also holds each label's per-case median of its runs'
medians and minimum of its runs' minima and, for two labels, the ratios of
the second label's values to the first's on the cases both labels ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import timeit
from pathlib import Path

# one BLAS thread, pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from conedp import eja  # noqa: E402
from conedp.eja import (  # noqa: E402
    AlgebraDescriptor,
    EjaElement,
    _jacobi_eigh,
    _jacobi_eigvals_stacked,
    _stacked_eigenvalues,
    identity,
    to_coords,
)
from conedp.harness.generators import (  # noqa: E402
    generate_covering_sdp,
    generate_feasible_scp,
    random_element,
)
from conedp.harness.instances import load_instance, save_instance  # noqa: E402
from conedp.mechanisms import (  # noqa: E402
    PrivacyBudget,
    RandomSource,
    Sensitivity,
    exponential_mechanism,
)
from conedp.mwu import (  # noqa: E402
    DenseMeasure,
    _exp_sums,
    bregman_project,
    cone_mwu_init,
    cone_mwu_step,
)
from conedp.oracles import ScpInstance  # noqa: E402
from conedp.solvers import (  # noqa: E402
    SolverConfig,
    constraint_private_alpha_bound,
    objective_private_alpha_bound,
    solve_constraint_private,
    solve_covering_high_sensitivity,
    solve_feasibility,
    solve_objective_private,
    solve_scalar_private,
)

JACOBI_RANKS = tuple(range(2, 11))
KERNEL_RANKS = (3, 8, 10)
STEP_SPECS = ("s3", "s8", "r2+s3+q4")
WARM_STEPS = 50  # cone steps folded in before the timed one
IO_ROWS = 4000
PROJECTIONS = ((64, 62), (4096, 4000))  # (m, s)
CANDIDATES = (80, 4000)


def machine_facts() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def per_call(fn, repeat: int, min_time: float) -> tuple[float, float]:
    """Median and minimum over ``repeat`` timeit runs of the CPU seconds per
    call; each run makes as many calls as one run of ``min_time`` CPU
    seconds needs."""
    timer = timeit.Timer(fn, timer=time.process_time)
    number = 1
    while timer.timeit(number) < min_time:
        number *= 2
    times = [t / number for t in timer.repeat(repeat, number)]
    return statistics.median(times), min(times)


def cases(repeat: int, min_time: float) -> dict[str, tuple[float, float]]:
    out: dict[str, tuple[float, float]] = {}
    for r in JACOBI_RANKS:
        g = np.random.default_rng(r).standard_normal((r, r))
        mat = g + g.T
        out[f"jacobi_eigh/r{r}"] = per_call(lambda: _jacobi_eigh(mat), repeat, min_time)
        kernels = getattr(eja, "_KERNELS", None)
        if kernels is not None and r in KERNEL_RANKS:
            out[f"jacobi_first_call/r{r}"] = per_call(
                lambda: (kernels.pop((r, True), None), _jacobi_eigh(mat)), repeat, min_time
            )
    for spec in STEP_SPECS:
        alg = AlgebraDescriptor.from_spec(spec)
        rng = RandomSource(7)
        state = cone_mwu_init(alg, 0.05)
        for _ in range(WARM_STEPS):
            state = cone_mwu_step(state, random_element(alg, rng, 0.3))
        loss = random_element(alg, rng, 0.3)
        cumulative = state.cumulative_loss.blocks
        out[f"exp_sums/{spec}"] = per_call(
            lambda: _exp_sums(alg.factors, state.eta, cumulative), repeat, min_time
        )
        out[f"cone_mwu_step/{spec}"] = per_call(
            lambda: cone_mwu_step(state, loss), repeat, min_time
        )
    instance, _ = generate_feasible_scp(AlgebraDescriptor.sym(3), 32, 0.0, seed=900)
    out["criterion09_solve"] = per_call(
        lambda: solve_feasibility(instance, 0.1, rng=RandomSource(0)), repeat, min_time
    )
    mixed = AlgebraDescriptor.from_spec("r2+s3+q4")
    out[f"generate_feasible_scp/m{IO_ROWS}"] = per_call(
        lambda: generate_feasible_scp(mixed, IO_ROWS, 0.05, 11), repeat, min_time
    )
    out["generate_covering_sdp/m64"] = per_call(
        lambda: generate_covering_sdp(3, 64, 101), repeat, min_time
    )
    wide, meta = generate_feasible_scp(mixed, IO_ROWS, 0.05, 11)
    for stack in (instance.blocks[0], wide.blocks[1]):
        out[f"jacobi_eigvals_stacked/m{len(stack)}"] = per_call(
            lambda: _jacobi_eigvals_stacked(stack), repeat, min_time
        )
    spin = wide.algebra.factors[2]
    out[f"stacked_eigenvalues/q4-m{IO_ROWS}"] = per_call(
        lambda: _stacked_eigenvalues(spin, wide.blocks[2]), repeat, min_time
    )
    out[f"width/m{IO_ROWS}"] = per_call(
        lambda: ScpInstance.width.func(wide), repeat, min_time
    )
    alg = wide.algebra
    uniform = to_coords(identity(alg) / alg.rank)
    out[f"violations/m{IO_ROWS}"] = per_call(lambda: wide.violations(uniform), repeat, min_time)
    config = SolverConfig(
        0.3, 0.05, PrivacyBudget(1.0, 1e-5), sensitivity=Sensitivity(0.05, "linf")
    )
    out[f"scalar_solve/r2+s3+q4-m{IO_ROWS}"] = per_call(
        lambda: solve_scalar_private(wide, config, RandomSource(0)), repeat, min_time
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.json"
        out[f"save_instance/m{IO_ROWS}"] = per_call(
            lambda: save_instance(path, wide, meta), repeat, min_time
        )
        out[f"load_instance/m{IO_ROWS}"] = per_call(
            lambda: load_instance(path), repeat, min_time
        )
    for m, s in PROJECTIONS:
        # weights u^4 for uniform u: spread over decades, as after many updates
        measure = DenseMeasure(np.random.default_rng(m).uniform(size=m) ** 4)
        out[f"bregman_project/m{m}"] = per_call(
            lambda: bregman_project(measure, s), repeat, min_time
        )
    for n in CANDIDATES:
        scores = np.random.default_rng(n).standard_normal(n)
        rng = RandomSource(n)
        out[f"exponential_mechanism/n{n}"] = per_call(
            lambda: exponential_mechanism(scores, 1.0, 1.0, rng), repeat, min_time
        )
    cover, meta = generate_covering_sdp(3, 64, 0, analytic=True)
    opt = meta["planted_opt"]
    config = SolverConfig(0.5 * opt, 0.1, PrivacyBudget(1.0, 0.01), density=62)
    out["criterion10_solve"] = per_call(
        lambda: solve_covering_high_sensitivity(cover, opt, config, RandomSource(0)),
        repeat,
        min_time,
    )
    s2 = AlgebraDescriptor.sym(2)
    budget, beta = PrivacyBudget(2.0, 0.05), 0.05
    private, _ = generate_feasible_scp(s2, 8, 0.05, seed=1100)
    alpha = constraint_private_alpha_bound(0.01, s2.rank, s2.dim, 2.0, 0.05, beta)
    config = SolverConfig(alpha, beta, budget, sensitivity=Sensitivity(0.01, "linf"))
    out["criterion11_solve"] = per_call(
        lambda: solve_constraint_private(private, config, RandomSource(0)), repeat, min_time
    )
    # criterion 12's instance: maximize <diag(1, 0), x> under the row <0, x> <= 1
    objective = EjaElement(s2, [np.diag([1.0, 0.0])])
    analytic = ScpInstance(s2, (np.zeros((1, 2, 2)),), np.array([1.0]), objective, ("LE",))
    budget = PrivacyBudget(1.0, 0.05)
    alpha = objective_private_alpha_bound(0.1, s2.rank, s2.dim, 1.0, 0.05, beta)
    config = SolverConfig(alpha, beta, budget, sensitivity=Sensitivity(0.1, "linf"))
    out["criterion12_solve"] = per_call(
        lambda: solve_objective_private(analytic, config, RandomSource(0), 256),
        repeat,
        min_time,
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--repeat", type=int, default=7, help="timeit repeats per case")
    parser.add_argument(
        "--min-time", type=float, default=0.2, help="CPU seconds per timeit repeat, at least"
    )
    parser.add_argument("--label", default="change", help="name of this run's side")
    parser.add_argument("--baseline", type=Path, help="an earlier output to extend")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    timings = cases(args.repeat, args.min_time)
    run = {
        "label": args.label,
        "machine": machine_facts(),
        "repeat": args.repeat,
        "unit": "CPU s per call (process_time), median and minimum over repeats",
        "cases": {name: median for name, (median, _) in timings.items()},
        "minima": {name: minimum for name, (_, minimum) in timings.items()},
    }
    runs = json.loads(args.baseline.read_text())["runs"] if args.baseline else []
    runs.append(run)
    labels = list(dict.fromkeys(r["label"] for r in runs))  # first-seen order
    names = list(dict.fromkeys(name for r in runs for name in r["cases"]))
    summaries = {
        "medians": (statistics.median, "cases"),
        "minima": (min, "minima"),
    }
    result = {"runs": runs}
    for key, (combine, field) in summaries.items():
        result[key] = {}
        for label in labels:
            ran = [r[field] for r in runs if r["label"] == label]
            result[key][label] = {
                name: combine(f[name] for f in ran) for name in names if name in ran[0]
            }
    if len(labels) == 2:
        for key, ratio_key in (("medians", "ratio"), ("minima", "ratio_of_minima")):
            base, other = (result[key][label] for label in labels)
            result[ratio_key] = {name: other[name] / base[name] for name in base if name in other}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for name, (median, minimum) in timings.items():
        line = f"{name:36s} {median * 1e6:12.1f} us  min {minimum * 1e6:12.1f} us"
        if name in result.get("ratio", {}):
            line += f"  x{result['ratio'][name]:.3f}  min x{result['ratio_of_minima'][name]:.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
