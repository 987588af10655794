"""Per-layer timings of the cone and covering steps, written as a BENCH_*.json file.

Each case is the median over ``--repeat`` timeit repeats of the time per
call, in seconds: the Jacobi eigensolver at r = 2, 3, 5, 8 and 10, the
spectral recombination and one cone MWU step on s3, s8 and r2+s3+q4, one
criterion-09 exact solve (planted S3, m = 32, alpha = 0.1),
``save_instance`` / ``load_instance`` of a 4,000-row r2+s3+q4 instance,
the size of the private-wide benchmark file, ``bregman_project`` at
m = 64 and 4,096 (s = m - 2 and m - 96, the dense regime of the covering
solver), ``exponential_mechanism`` over 80 and 4,000 candidates, and one
criterion-10 covering solve (analytic S3, m = 64, s = 62, alpha = opt/2).
Inputs come from fixed seeds.  The script imports ``conedp`` from the checkout it sits in, so a
copy of it in another checkout times that checkout.

    python benchmarks/layers.py --label parent --out a.json
    python benchmarks/layers.py --label change --baseline a.json --out b.json
    python benchmarks/layers.py --label parent --baseline b.json --out c.json

With ``--baseline``, the output holds the earlier file's runs and this
one, so alternating runs of two checkouts chain into one file.  It also
holds each label's per-case median over its runs and, for two labels, the
ratio of the second label's medians to the first's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

# one BLAS thread, pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from conedp.eja import AlgebraDescriptor, _jacobi_eigh, _spectral_apply  # noqa: E402
from conedp.harness.generators import (  # noqa: E402
    generate_covering_sdp,
    generate_feasible_scp,
    random_element,
)
from conedp.harness.instances import load_instance, save_instance  # noqa: E402
from conedp.mechanisms import PrivacyBudget, RandomSource, exponential_mechanism  # noqa: E402
from conedp.mwu import (  # noqa: E402
    DenseMeasure,
    _normalized_exp,
    bregman_project,
    cone_mwu_init,
    cone_mwu_step,
)
from conedp.solvers import (  # noqa: E402
    SolverConfig,
    solve_covering_high_sensitivity,
    solve_feasibility,
)

JACOBI_RANKS = (2, 3, 5, 8, 10)
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


def median_per_call(fn, repeat: int, min_time: float) -> float:
    """Median over ``repeat`` timeit runs of the seconds per call; each run
    makes as many calls as one run of ``min_time`` seconds needs."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < min_time:
        number *= 2
    return statistics.median(t / number for t in timer.repeat(repeat, number))


def cases(repeat: int, min_time: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in JACOBI_RANKS:
        g = np.random.default_rng(r).standard_normal((r, r))
        mat = g + g.T
        out[f"jacobi_eigh/r{r}"] = median_per_call(lambda: _jacobi_eigh(mat), repeat, min_time)
    for spec in STEP_SPECS:
        alg = AlgebraDescriptor.from_spec(spec)
        rng = RandomSource(7)
        state = cone_mwu_init(alg, 0.05)
        for _ in range(WARM_STEPS):
            state = cone_mwu_step(state, random_element(alg, rng, 0.3))
        loss = random_element(alg, rng, 0.3)
        x = -state.eta * state.cumulative_loss
        out[f"spectral_apply/{spec}"] = median_per_call(
            lambda: _spectral_apply(x, _normalized_exp), repeat, min_time
        )
        out[f"cone_mwu_step/{spec}"] = median_per_call(
            lambda: cone_mwu_step(state, loss), repeat, min_time
        )
    instance, _ = generate_feasible_scp(AlgebraDescriptor.sym(3), 32, 0.0, seed=900)
    out["criterion09_solve"] = median_per_call(
        lambda: solve_feasibility(instance, 0.1, rng=RandomSource(0)), repeat, min_time
    )
    wide, meta = generate_feasible_scp(AlgebraDescriptor.from_spec("r2+s3+q4"), IO_ROWS, 0.05, 11)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.json"
        out[f"save_instance/m{IO_ROWS}"] = median_per_call(
            lambda: save_instance(path, wide, meta), repeat, min_time
        )
        out[f"load_instance/m{IO_ROWS}"] = median_per_call(
            lambda: load_instance(path), repeat, min_time
        )
    for m, s in PROJECTIONS:
        # weights u^4 for uniform u: spread over decades, as after many updates
        measure = DenseMeasure(np.random.default_rng(m).uniform(size=m) ** 4)
        out[f"bregman_project/m{m}"] = median_per_call(
            lambda: bregman_project(measure, s), repeat, min_time
        )
    for n in CANDIDATES:
        scores = np.random.default_rng(n).standard_normal(n)
        rng = RandomSource(n)
        out[f"exponential_mechanism/n{n}"] = median_per_call(
            lambda: exponential_mechanism(scores, 1.0, 1.0, rng), repeat, min_time
        )
    cover, meta = generate_covering_sdp(3, 64, 0, analytic=True)
    opt = meta["planted_opt"]
    config = SolverConfig(0.5 * opt, 0.1, PrivacyBudget(1.0, 0.01), density=62)
    out["criterion10_solve"] = median_per_call(
        lambda: solve_covering_high_sensitivity(cover, opt, config, RandomSource(0)),
        repeat,
        min_time,
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--repeat", type=int, default=7, help="timeit repeats per case")
    parser.add_argument(
        "--min-time", type=float, default=0.2, help="seconds per timeit repeat, at least"
    )
    parser.add_argument("--label", default="change", help="name of this run's side")
    parser.add_argument("--baseline", type=Path, help="an earlier output to extend")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    run = {
        "label": args.label,
        "machine": machine_facts(),
        "repeat": args.repeat,
        "unit": "s per call, median over repeats",
        "cases": cases(args.repeat, args.min_time),
    }
    runs = json.loads(args.baseline.read_text())["runs"] if args.baseline else []
    runs.append(run)
    labels = list(dict.fromkeys(r["label"] for r in runs))  # first-seen order
    medians = {
        label: {
            name: statistics.median(r["cases"][name] for r in runs if r["label"] == label)
            for name in run["cases"]
        }
        for label in labels
    }
    result = {"runs": runs, "medians": medians}
    if len(labels) == 2:
        base, other = (medians[label] for label in labels)
        result["ratio"] = {name: other[name] / base[name] for name in run["cases"]}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for name, value in run["cases"].items():
        ratio = result.get("ratio", {}).get(name)
        print(f"{name:28s} {value * 1e6:12.1f} us" + (f"  x{ratio:.3f}" if ratio else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
