"""conedp benchmark: one workload, one seed, a timed closed loop through the CLI.

    python3 perfbench/run.py --workload cone-exact --seed 0 --seconds 35 --trace 0

The script finds the checkout from its own path and imports ``conedp`` from
the checkout's ``src``; without it, it exits 1 and prints no result.  One
client in this process calls ``conedp.harness.cli.main`` (``solve`` or
``bench``), and the next call starts only after the last one returns.

``--trace 0`` prints the end-to-end metrics: set-up is timed in fresh
interpreters (import, ``gen``, JSON write), then solves run for
``--seconds``.  The reference computation of ``reference.py`` runs before
every solve, and the solve times are CPU seconds rescaled by it, so that
they do not move with the speed of the shared host; the plain wall times
are printed beside them.  ``--trace 1`` prints the per-layer metrics: it runs the
steps untraced for half the time, then the same steps again with the layer
wrappers of ``tracer.py`` installed, checks that both give the same output
digest and reports the difference in wall time as the tracing overhead.

Informational lines (machine facts, sample counts, ``failed_ratio``, the
output digest) come first; the last line of standard output is the JSON
result.  A results file and, when tracing, a gzip span file are written
under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from importlib import metadata
from pathlib import Path

# pinned before numpy is imported, here and in every set-up child
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
REF_WARMUP = 3  # untimed reference runs before anything is timed
# the per-layer metrics, in the order BENCHMARK.json lists them
TIMED_LAYERS = (
    "eja.spectral_decompose", "eja.eigenvalues", "eja.coords",
    "mwu.cone_step", "mwu.bregman_project", "mwu.dense_step",
    "oracles.violation_scores", "oracles.width", "oracles.covering_private",
    "oracles.net_build", "mechanisms.exponential",
)
SELF_ONLY = (
    "solvers", "harness.load_instance", "harness.write_records", "harness.cli",
)
SETUP_LAYERS = ("harness.gen", "harness.save_instance")
SETUP_CHILD = (
    "import json, sys\n"
    "from conedp.harness.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    main(argv, standalone_mode=False)\n"
)


class Capture:
    """Wraps the runner's solver dispatch to time each solve and keep its report.

    With ``reference`` set, the reference computation is run just before
    each solve; ``refs[i]`` and ``cpu[i]`` belong to ``solves[i]``.
    """

    def __init__(self):
        self.solves: list = []  # (start, end, report)
        self.cpu: list = []  # CPU seconds of each solve
        self.refs: list = []  # CPU seconds of the reference run before each solve
        self.reference = None

    def wrap(self, fn):
        solves, cpu, refs = self.solves, self.cpu, self.refs
        clock, cpu_clock = time.perf_counter, time.process_time

        def dispatch_solver(*args, **kwargs):
            ref = self.reference() if self.reference else None
            start, cpu_start = clock(), cpu_clock()
            report = fn(*args, **kwargs)
            cpu.append(cpu_clock() - cpu_start)
            solves.append((start, clock(), report))
            refs.append(ref)
            return report

        return dispatch_solver


def call_cli(argv, sink):
    """One client call; returns the exit code, or the error text when it raised."""
    from conedp.harness.cli import main

    with redirect_stdout(sink):
        try:
            return main(argv, standalone_mode=False) or 0
        except SystemExit as exc:
            return exc.code or 0
        except Exception as exc:  # a failing call counts as failed solves; the loop goes on
            return f"{type(exc).__name__}: {exc}"


def run_phase(workload, step, capture, sink, tag, work, seconds=None, steps=None, cli=call_cli):
    """Closed loop of client steps, either for ``seconds`` or for ``steps`` steps.

    A timed loop starts a step only while the time so far plus half a mean
    step is short of ``seconds``, so the phase ends within half a step of it.
    """
    done = []
    start = time.perf_counter()
    while True:
        i = len(done)
        elapsed = time.perf_counter() - start
        if steps is not None and i >= steps:
            break
        if steps is None and i >= workload.min_steps and elapsed * (1.0 + 0.5 / i) >= seconds:
            break
        csv_path = work / f"{tag}-{i:05d}.csv"
        first = len(capture.solves)
        code = cli(step(i, csv_path), sink)
        done.append((i, csv_path, code, capture.solves[first:]))
    return done, time.perf_counter() - start


def evaluate(workload, done):
    """Check every solve; returns (solves passed, attempted, failed, digest per step)."""
    from conedp.eja import to_coords
    from workloads import Solve

    passed, attempted, failed, digests = [], 0, 0, []
    for i, csv_path, code, captured in done:
        attempted += workload.solves_per_step
        lines = csv_path.read_text().splitlines() if csv_path.exists() else []
        header = lines[0].split(",") if lines else []
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if code != 0 or len(rows) != workload.solves_per_step or len(captured) != len(rows):
            failed += workload.solves_per_step
            digests.append(f"failed:{code}")
            continue
        h = hashlib.sha256()
        for row, (_, _, report) in zip(rows, captured):
            solve = Solve(i, row, report)
            ok = (
                (row["T"], row["max_violation"], row["num_violated"])
                == (repr(report.iterations), repr(report.max_violation), repr(report.num_violated))
                and workload.check_solve(solve)
            )
            h.update(",".join(v for k, v in row.items() if k != "wall_ms").encode())
            h.update(to_coords(report.solution).tobytes())
            if ok:
                passed.append(solve)
            else:
                failed += 1
        digests.append(h.hexdigest())
    return passed, attempted, failed, digests


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values)


def combined(digests):
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def machine_facts(seed):
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "blas_pins": {var: os.environ[var] for var in BLAS_PINS},
        "workload_seed": seed,
    }


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_setup(workload, reference):
    """SETUP_REPEATS fresh interpreters that import conedp and run gen.

    Returns the median of their CPU seconds, each rescaled like a solve by
    the reference runs just before and after it, and their wall times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    costs, walls = [], []
    before = reference.run()
    for _ in range(SETUP_REPEATS):
        start, cpu_start = time.perf_counter(), children_cpu()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(workload.gens)],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=170,
        )
        cpu, wall = children_cpu() - cpu_start, time.perf_counter() - start
        after = reference.run()
        costs.append(normalized([cpu], [before, after], reference.NOMINAL_S)[0])
        walls.append(wall)
        before = after
    return statistics.median(costs), walls


def normalized(times, refs, nominal):
    """Each time rescaled by the mean of the reference runs just before and after it.

    ``refs`` has one more entry than ``times``: the run before each one and
    a last run after the final one.
    """
    return [t * nominal * 2.0 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def end_to_end(workload, args, sink, capture, work, info):
    import reference

    for _ in range(REF_WARMUP):
        reference.run()
    setup_s, setup_walls = timed_setup(workload, reference)
    step = workload.make_step()
    capture.reference = reference.run
    cpu_start = time.process_time()
    done, wall = run_phase(workload, step, capture, sink, "run", work, seconds=args.seconds)
    phase_cpu = time.process_time() - cpu_start
    capture.reference = None
    refs = capture.refs + [reference.run()]
    passed, attempted, failed, digests = evaluate(workload, done)
    walls = [end - start for start, end, _ in capture.solves]
    norm = normalized(capture.cpu, refs, reference.NOMINAL_S)
    # the phase without the reference runs in it, rescaled by the run's mean reference
    client_cpu = phase_cpu - sum(capture.refs)
    norm_client = client_cpu * reference.NOMINAL_S / statistics.mean(refs)
    info.update(
        setup_walls_s=setup_walls,
        steps=len(done),
        solves=attempted,
        solve_samples=len(walls),
        solve_wall_s_quartiles=quartiles(walls),
        solve_cpu_s_quartiles=quartiles(capture.cpu),
        solve_norm_s_quartiles=quartiles(norm),
        reference_cpu_s_quartiles=quartiles(refs),
        solves_per_wall_s=len(passed) / (wall - sum(capture.refs)),
        timed_wall_s=wall,
        timed_cpu_s=phase_cpu,
        failed_ratio=failed / attempted,
        digest=combined(digests[: workload.min_steps]),
        # results file only
        samples={
            "solve_wall_s": walls,
            "solve_cpu_s": capture.cpu,
            "reference_cpu_s": refs,
            "iterations": [report.iterations for _, _, report in capture.solves],
        },
    )
    metrics = {
        "solve_norm_s.p50": (statistics.median(norm), "s"),
        "solves_per_norm_s": (len(passed) / norm_client, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "solved_ratio": (1.0 - failed / attempted, "ratio"),
    }
    return metrics, passed, attempted, failed, True


def per_layer(workload, args, sink, capture, work, info):
    from tracer import Tracer

    setup_tracer = Tracer()
    start = time.perf_counter()
    with setup_tracer.installed():
        for argv in workload.gens:
            if call_cli(argv, sink) != 0:
                raise RuntimeError(f"set-up failed: {argv}")
    setup_wall = time.perf_counter() - start

    step = workload.make_step()
    plain, plain_wall = run_phase(
        workload, step, capture, sink, "plain", work, seconds=args.seconds / 2.0
    )
    tracer = Tracer()
    with tracer.installed():
        traced_cli = tracer.wrap("harness.cli", call_cli)
        traced, traced_wall = run_phase(
            workload, step, capture, sink, "traced", work, steps=len(plain), cli=traced_cli
        )
    plain_eval = evaluate(workload, plain)
    passed, attempted, failed, digests = evaluate(workload, traced)
    same = plain_eval[3] == digests
    overhead = traced_wall - plain_wall

    spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.csv.gz"
    spans_path.unlink(missing_ok=True)
    setup_tracer.write(spans_path, "setup", start)
    tracer.write(spans_path, "traced", start)
    totals = tracer.layer_totals()
    setup_totals = setup_tracer.layer_totals()
    info.update(
        steps=len(traced),
        solves=attempted,
        failed_ratio=failed / attempted,
        digest=combined(digests[: workload.min_steps]),
        untraced_digest=combined(plain_eval[3][: workload.min_steps]),
        digests_match=same,
        untraced_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        setup_wall_s=setup_wall,
        spans=len(tracer.spans) + len(setup_tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
        missing_targets=tracer.missing,
    )

    def self_s(name, source=totals):
        return source[name][1] if name in source else 0.0

    def calls(name):
        return totals[name][0] if name in totals else 0

    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    draws = calls("mechanisms.exponential")
    candidates = tracer.counts["mechanisms.exponential.candidates"]
    iterations = tracer.counts["solvers.iterations"]
    updates = calls("mwu.cone_step") + calls("mwu.dense_step")
    metrics["mechanisms.exponential.candidates"] = (candidates / draws if draws else 0.0, "count")
    metrics["solvers.iterations"] = (iterations, "count")
    metrics["solvers.update_ratio"] = (updates / iterations if iterations else 0.0, "ratio")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in SETUP_LAYERS:
        metrics[f"{name}.self_s"] = (self_s(name, setup_totals), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / plain_wall, "ratio")
    return metrics, passed, attempted, failed, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "conedp" / "__init__.py").is_file():
        print(f"no conedp sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import conedp
    import conedp.harness.runner as runner

    if Path(conedp.__file__).resolve().parent != SRC / "conedp":
        print(f"conedp imported from {conedp.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, work)
    capture = Capture()
    original = runner.dispatch_solver
    runner.dispatch_solver = capture.wrap(original)
    info = machine_facts(args.seed)
    try:
        sink = io.StringIO()  # the CLI's echo lines; checks read the CSVs and reports
        measure = per_layer if args.trace else end_to_end
        metrics, passed, attempted, failed, same = measure(
            workload, args, sink, capture, work, info
        )
        aggregate_ok = workload.check_all(passed)
    finally:
        runner.dispatch_solver = original
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0 and aggregate_ok and same
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(dict(result, workload=args.workload, info=info), indent=1))
    for key, value in info.items():
        if key != "samples":
            print(f"info {key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"results {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
