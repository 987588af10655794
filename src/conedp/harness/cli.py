"""Command-line interface: gen, solve, audit, and bench subcommands.

Exit codes: 0 on success, 2 when a run completes but a guarantee-void
flag was raised (or an audit fails), 1 on any error.  All randomness is
seeded through the --seed flags; nothing reads the environment.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager

import click

from conedp.eja import AlgebraDescriptor
from conedp.mechanisms import PrivacyBudget, Sensitivity
from conedp.harness.audit import privacy_audit
from conedp.harness.generators import generate_covering_sdp, generate_feasible_scp
from conedp.harness.instances import load_instance, save_instance
from conedp.harness.runner import (
    SOLVER_NAMES,
    run_experiment,
    write_records,
)
from conedp.solvers import SolverConfig

# Usage errors exit 1 like any other error; 2 is reserved for
# guarantee-void completions.
click.UsageError.exit_code = 1


@contextmanager
def _clean_errors(prefix=""):
    """A ValueError inside (a malformed instance file, an out-of-range
    setting, a solver that refuses its instance or schedule, a CSV with
    another header) is a clean exit-1 error: one Error: line."""
    try:
        yield
    except ValueError as exc:
        raise click.ClickException(f"{prefix}{exc}") from exc


def _config(eps, delta, alpha, beta, density, dinf) -> SolverConfig:
    return SolverConfig(
        alpha=alpha,
        beta=beta,
        budget=PrivacyBudget(eps, delta),
        density=density,
        sensitivity=Sensitivity(dinf, "linf"),
    )


def _opt(solver, opt, metadata):
    """The trace budget: --opt, else the instance's planted_opt, which
    covering-hs cannot run without."""
    if solver == "covering-hs" and opt is None:
        opt = metadata.get("planted_opt")
        if opt is None:
            raise click.ClickException("covering-hs needs --opt or planted_opt metadata")
    return opt


@click.group()
def main():
    """Private symmetric-cone-program toolkit."""


@main.command()
@click.option("--kind", type=click.Choice(["covering-sdp", "feasible-scp"]), required=True)
@click.option("--alg", default=None, help="Algebra spec like r2+s3+q4 (feasible-scp).")
@click.option("--r", "rank", type=int, default=None, help="Matrix size (covering-sdp).")
@click.option("--m", type=int, required=True, help="Number of constraints.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--margin", type=float, default=0.05, show_default=True)
@click.option("--analytic", is_flag=True, help="Emit the all-equal covering instance.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen(kind, alg, rank, m, seed, margin, analytic, out):
    """Generate an instance file."""
    if kind == "covering-sdp":
        if rank is None:
            raise click.UsageError("covering-sdp needs --r")
        instance, metadata = generate_covering_sdp(rank, m, seed, analytic=analytic)
    else:
        if alg is None:
            raise click.UsageError("feasible-scp needs --alg")
        descriptor = AlgebraDescriptor.from_spec(alg)
        instance, metadata = generate_feasible_scp(descriptor, m, margin, seed)
    save_instance(out, instance, metadata)
    click.echo(f"wrote {out} ({metadata['generator']}, m={m})")


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--solver", type=click.Choice(SOLVER_NAMES), required=True)
@click.option("--eps", type=float, default=1.0, show_default=True)
@click.option("--delta", type=float, default=1e-5, show_default=True)
@click.option("--alpha", type=float, default=0.1, show_default=True)
@click.option("--beta", type=float, default=0.05, show_default=True)
@click.option("--s", "density", type=int, default=1, show_default=True)
@click.option("--dinf", type=float, default=0.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--opt", type=float, default=None, help="Trace budget for covering-hs.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
def solve(instance_path, solver, eps, delta, alpha, beta, density, dinf, seed, opt, csv_path):
    """Run one solver on one instance with one seed."""
    with _clean_errors(f"{instance_path}: "):
        instance, metadata = load_instance(instance_path)
    opt = _opt(solver, opt, metadata)
    with _clean_errors():
        config = _config(eps, delta, alpha, beta, density, dinf)
        records = run_experiment(instance, solver, config, [seed], opt=opt)
        if csv_path:
            write_records(csv_path, records, include_wall=False)
    report = records[0].report
    click.echo(
        f"{solver}: T={report.iterations} max_violation={report.max_violation:.6g} "
        f"violated={report.num_violated} flags={list(report.guarantee_flags)}"
    )
    if report.guarantee_flags:
        sys.exit(2)


@main.command()
@click.option("--mech", type=click.Choice(["exponential", "dual-oracle", "gaussian"]), required=True)
@click.option("--eps", type=float, default=1.0, show_default=True)
@click.option("--delta", type=float, default=1e-5, show_default=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--negative-control", is_flag=True, help="Mis-calibrate on purpose.")
def audit(mech, eps, delta, trials, seed, negative_control):
    """Audit a mechanism against its declared privacy level."""
    report = privacy_audit(
        mech, eps, trials, seed, delta=delta, negative_control=negative_control
    )
    click.echo(json.dumps(dataclasses.asdict(report), indent=1, default=float))
    if not report.passed:
        sys.exit(2)


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--solver", type=click.Choice(SOLVER_NAMES), required=True)
@click.option("--eps-grid", default="0.5,1,2,4", show_default=True)
@click.option("--seeds", type=int, default=5, show_default=True)
@click.option("--delta", type=float, default=1e-5, show_default=True)
@click.option("--alpha", type=float, default=0.1, show_default=True)
@click.option("--beta", type=float, default=0.05, show_default=True)
@click.option("--s", "density", type=int, default=1, show_default=True)
@click.option("--dinf", type=float, default=0.0, show_default=True)
@click.option("--opt", type=float, default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), required=True)
def bench(instance_path, solver, eps_grid, seeds, delta, alpha, beta, density, dinf, opt, csv_path):
    """Sweep epsilon values and seeds, appending timed rows to a CSV."""
    with _clean_errors(f"{instance_path}: "):
        instance, metadata = load_instance(instance_path)
    opt = _opt(solver, opt, metadata)
    # every setting is checked before the first solve writes a row
    try:
        grid = [float(tok) for tok in eps_grid.split(",")]
    except ValueError as exc:
        raise click.BadParameter(
            f"{eps_grid!r} is not a comma-separated list of numbers", param_hint="'--eps-grid'"
        ) from exc
    with _clean_errors():
        configs = [_config(eps, delta, alpha, beta, density, dinf) for eps in grid]
        # the whole grid runs before the one write, so an epsilon that fails
        # in its solver (an overspending composition) leaves no row behind
        runs = [run_experiment(instance, solver, c, range(seeds), opt=opt) for c in configs]
        rows = [r for records in runs for r in records]
        write_records(csv_path, rows, include_wall=True)
    for eps, records in zip(grid, runs):
        click.echo(f"eps={eps}: wrote {len(records)} rows")
    if any(r.report.guarantee_flags for r in rows):
        sys.exit(2)


if __name__ == "__main__":
    main()
