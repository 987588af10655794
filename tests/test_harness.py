"""Unit tests for instance I/O, generators, runner, audits, and the CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conedp.eja import (
    AlgebraDescriptor,
    EjaElement,
    identity,
    inner,
    min_eigenvalue,
    norm,
    to_coords,
    trace,
    zero,
)
import conedp
from conedp.eja import _jacobi_eigh
from conedp.harness import generators
from conedp.harness.audit import (
    audit_exponential_mechanism,
    audit_gaussian,
    gaussian_tradeoff_delta,
    privacy_audit,
)
from conedp.harness import runner as runner_module
from conedp.harness.cli import main as cli_main
from conedp.harness.generators import (
    generate_covering_sdp,
    generate_feasible_scp,
    random_cone_distribution,
    random_element,
)
from conedp.harness.instances import (
    SCHEMA_VERSION,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from conedp.harness.runner import (
    CSV_COLUMNS,
    SOLVE_CSV_COLUMNS,
    run_experiment,
    write_records,
)
from conedp.mechanisms import PrivacyBudget, RandomSource, Sensitivity, gaussian_sigma
from conedp.oracles import ScpInstance
from conedp.solvers import SolverConfig, scalar_private_alpha_bound

from conftest import instance_from_rows

MIXED = AlgebraDescriptor.from_spec("r2+s3+q4")


def rows_of(inst):
    return [inst.row(i) for i in range(inst.num_constraints)]


class TestInstanceIO:
    def test_roundtrip_exact(self, tmp_path):
        inst, meta = generate_feasible_scp(MIXED, 5, 0.03, seed=9)
        path = tmp_path / "inst.json"
        save_instance(path, inst, meta)
        loaded, loaded_meta = load_instance(path)
        assert loaded.algebra == inst.algebra
        assert loaded.senses == inst.senses
        assert np.array_equal(loaded.scalars, inst.scalars)
        for a, b in zip(rows_of(loaded), rows_of(inst)):
            assert np.array_equal(to_coords(a), to_coords(b))
        assert loaded_meta == meta

    @pytest.mark.parametrize("spec", ["r1", "s1", "q2", "s3", "r2+s3+q4"])
    def test_save_writes_the_json_indent_one_text(self, tmp_path, spec):
        alg = AlgebraDescriptor.from_spec(spec)
        inst, meta = generate_feasible_scp(alg, 4, 0.05, seed=2)
        # floats whose reprs take signed zeros, subnormals and exponents
        scale = np.array([-0.0, 1e-310, 1e300, 1.0])
        blocks = tuple(s * scale.reshape((-1,) + (1,) * (s.ndim - 1)) for s in inst.blocks)
        objective = identity(alg) * -1e-7
        scalars = [5e-324, -0.0, 1e22, 0.1]
        inst = ScpInstance(alg, blocks, scalars, objective, ("GE", "LE") * 2)
        nested = {"l": [1, 2.5, [True, None]], "e": [], "d": {}}
        meta = dict(meta, note='a\nb "q" \u00e9', nested=nested)
        path = tmp_path / "inst.json"
        save_instance(path, inst, meta)
        assert path.read_text() == json.dumps(instance_to_dict(inst, meta), indent=1) + "\n"

    def test_schema_version_checked(self):
        inst, meta = generate_feasible_scp(MIXED, 2, 0.0, seed=1)
        payload = instance_to_dict(inst, meta)
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            instance_from_dict(payload)

    @pytest.mark.parametrize("field", ["algebra", "constraints", "b", "c", "sense"])
    def test_missing_field_is_named(self, tmp_path, field):
        inst, meta = generate_feasible_scp(MIXED, 2, 0.0, seed=1)
        payload = instance_to_dict(inst, meta)
        del payload[field]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"missing field\\(s\\): {field}$"):
            load_instance(path)

    @pytest.mark.parametrize(
        "field, message",
        [("b", "scalars"), ("constraints", "constraints .* row 2"), ("c", "objective")],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, tmp_path, field, message, bad):
        inst, meta = generate_feasible_scp(MIXED, 3, 0.0, seed=1)
        payload = instance_to_dict(inst, meta)
        if field == "b":
            payload["b"][1] = bad
        elif field == "constraints":
            payload["constraints"][2][1][0] = bad
        else:
            payload["c"][0][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))  # json writes NaN and Infinity
        with pytest.raises(ValueError, match=message):
            load_instance(path)

    @pytest.mark.parametrize("spec", ["r2+s3+q4", "s1", "s5", "s2+s4"])
    def test_loaded_rows_match_payload(self, spec):
        inst, meta = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), 7, 0.0, seed=2)
        payload = json.loads(json.dumps(instance_to_dict(inst, meta)))
        loaded, _ = instance_from_dict(payload)
        for i, packed in enumerate(payload["constraints"]):
            row = loaded.row(i)
            assert len(row.blocks) == len(packed)
            for factor, block, want in zip(loaded.algebra.factors, row.blocks, packed):
                assert not block.flags.writeable
                if block.ndim == 2:
                    iu, ju = np.triu_indices(factor.r)
                    assert block[ju, iu].tobytes() == block[iu, ju].tobytes()
                    block = block[iu, ju]
                assert block.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize(
        "field, mutate, message",
        [
            ("constraints", lambda rows: 5, "constraints must be a list of rows, got int$"),
            ("constraints", lambda rows: [], "at least one constraint"),
            ("constraints", lambda rows: rows[:1] + [7] + rows[2:],
             "constraint row 1: expected a list of 3 blocks, got int$"),
            ("constraints", lambda rows: rows[:2] + [rows[2][:2]],
             "constraint row 2: expected a list of 3 blocks, got 2$"),
            ("constraints",
             lambda rows: rows[:1] + [[rows[1][0], rows[1][1][:5], rows[1][2]]] + rows[2:],
             "constraint row 1: packed s3 block needs 6 entries, got 5$"),
            ("constraints", lambda rows: rows[:2] + [[rows[2][0], rows[2][1], 0.5]],
             "constraint row 2: packed q4 block needs 4 entries, got float$"),
            ("constraints", lambda rows: [[["a", 1.0], rows[0][1], rows[0][2]]] + rows[1:],
             "constraint r2 blocks must hold numbers"),
            ("constraints", lambda rows: [[[[1.0], [2.0]], rows[0][1], rows[0][2]]] + rows[1:],
             "constraint r2 blocks must hold numbers"),
            ("c", lambda c: 5, "objective: expected a list of 3 blocks, got int$"),
            ("c", lambda c: c[:2], "objective: expected a list of 3 blocks, got 2$"),
            ("c", lambda c: [c[0], c[1][:5], c[2]],
             "objective: packed s3 block needs 6 entries, got 5$"),
            ("c", lambda c: [c[0], c[1], 0.5],
             "objective: packed q4 block needs 4 entries, got float$"),
            ("c", lambda c: [["a", 1.0], c[1], c[2]], "objective r2 blocks must hold numbers"),
            ("c", lambda c: [[[1.0], [2.0]], c[1], c[2]], "objective r2 blocks must hold numbers"),
        ],
        ids=["not-a-list", "empty", "row-not-a-list", "block-count", "packed-length",
             "block-not-a-list", "non-number", "nested", "c-not-a-list", "c-block-count",
             "c-packed-length", "c-block-not-a-list", "c-non-number", "c-nested"],
    )
    def test_malformed_constraints_are_named(self, field, mutate, message):
        inst, meta = generate_feasible_scp(MIXED, 3, 0.0, seed=1)
        payload = instance_to_dict(inst, meta)
        payload[field] = mutate(payload[field])
        with pytest.raises(ValueError, match=message):
            instance_from_dict(payload)

    def test_file_is_json_with_spec_string(self, tmp_path):
        inst, meta = generate_feasible_scp(MIXED, 2, 0.0, seed=1)
        path = tmp_path / "i.json"
        save_instance(path, inst, meta)
        raw = json.loads(path.read_text())
        assert raw["algebra"] == "r2+s3+q4"
        assert len(raw["constraints"][0]) == 3  # one packed block per factor


class TestGenerators:
    def test_covering_normalization(self):
        inst, meta = generate_covering_sdp(3, 10, seed=4)
        for a in rows_of(inst):
            assert norm(a, math.inf) == pytest.approx(1.0, abs=1e-9)
            assert min_eigenvalue(a) >= -1e-9
        assert set(inst.senses) == {"GE"}

    def test_covering_planted_witness(self):
        from conedp.eja import from_coords
        from conedp.oracles import violation_scores

        inst, meta = generate_covering_sdp(3, 10, seed=4)
        witness = from_coords(inst.algebra, np.array(meta["witness_coords"]))
        assert trace(witness) == pytest.approx(meta["planted_opt"])
        assert np.all(violation_scores(inst, witness) <= 1e-9)

    def test_covering_analytic(self):
        inst, meta = generate_covering_sdp(3, 6, seed=0, analytic=True)
        assert meta["planted_opt"] == 3.0
        for a in rows_of(inst):
            assert np.allclose(a.blocks[0], np.eye(3) / 3)

    def test_single_identity_constraint_opt_is_one(self):
        # <I, X> >= 1 with Tr X minimized: X = e1 e1^T attains trace 1
        inst, _ = generate_covering_sdp(3, 1, seed=2)
        one = generate_covering_sdp(1, 1, seed=2, analytic=True)[0]
        assert one.row(0).blocks[0][0, 0] == 1.0

    def test_feasible_planted(self):
        from conedp.eja import from_coords

        inst, meta = generate_feasible_scp(MIXED, 12, 0.0, seed=3)
        witness = from_coords(inst.algebra, np.array(meta["witness_coords"]))
        assert trace(witness) == pytest.approx(1.0, abs=1e-10)
        assert min_eigenvalue(witness) >= -1e-9
        from conedp.oracles import violation_scores

        assert not (violation_scores(inst, witness) > 0.0).any()
        for a in rows_of(inst):
            assert norm(a, math.inf) <= 1.0 + 1e-9

    def test_margin_slack(self):
        from conedp.eja import from_coords
        from conedp.oracles import violation_scores

        inst, meta = generate_feasible_scp(MIXED, 6, 0.2, seed=5)
        witness = from_coords(inst.algebra, np.array(meta["witness_coords"]))
        assert np.all(violation_scores(inst, witness) <= -0.2 + 1e-9)

    def test_cone_distribution_helper(self):
        x = random_cone_distribution(MIXED, RandomSource(0))
        assert trace(x) == pytest.approx(1.0)
        assert min_eigenvalue(x) >= -1e-12


def _reference_feasible_scp(alg, m, margin, rng):
    """The per-row feasibility generator: one element per row, rescaled by
    one uniform over its spectral inf-norm (a zero element takes none),
    then stacked."""
    witness = random_cone_distribution(alg, rng)
    rows = []
    for _ in range(m):
        x = random_element(alg, rng)
        top = norm(x, math.inf)
        rows.append(x if top == 0.0 else x * (1.0 * rng.uniform() / top))
    draft = instance_from_rows(alg, rows, np.zeros(m), zero(alg), ("LE",) * m)
    values = draft.constraint_coords @ to_coords(witness)
    return replace(draft, scalars=values + margin), to_coords(witness).tolist()


def _reference_covering_sdp(r, m, rng):
    """The per-row covering generator: one Gram square per row over its top
    eigenvalue, and the witness slack from ``inner`` row by row."""
    alg = AlgebraDescriptor.sym(r)
    rows = []
    for _ in range(m):
        g = np.asarray(rng.standard_normal(r * r)).reshape(r, r)
        gram = g.T @ g
        vals, _ = _jacobi_eigh(gram)
        rows.append(EjaElement(alg, [gram / vals[0]]))
    v = np.asarray(rng.standard_normal(r))
    v /= np.linalg.norm(v)
    witness = EjaElement(alg, [np.outer(v, v)])
    witness = witness / min(inner(a, witness) for a in rows)
    instance = instance_from_rows(alg, rows, np.ones(m), identity(alg), ("GE",) * m)
    return instance, trace(witness), to_coords(witness).tolist()


class _ScriptedBits:
    """A bit generator that replays a fixed list of raw words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.pos = 0

    def random_raw(self, size=None):
        n = 1 if size is None else size
        out = self.words[self.pos : self.pos + n]
        assert len(out) == n, "script exhausted"
        self.pos += n
        return int(out[0]) if size is None else out

    def advance(self, delta):
        self.pos += delta


def _scripted_source(words) -> RandomSource:
    rng = RandomSource(0)
    rng._bitgen = _ScriptedBits(words)
    return rng


def _same_stacks(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks, strict=True))


class TestGeneratorReference:
    @pytest.mark.parametrize("spec", ["s1", "s3", "s8", "r5", "q3", "s2+s5", "r2+s3+q4"])
    @pytest.mark.parametrize("m", [1, 2, 50])
    def test_feasible_stacks_match_per_row_generator(self, spec, m):
        alg = AlgebraDescriptor.from_spec(spec)
        for seed in (0, 900):
            inst, meta = generate_feasible_scp(alg, m, 0.05, seed)
            rng = RandomSource(seed)
            ref, witness = _reference_feasible_scp(alg, m, 0.05, rng)
            assert _same_stacks(inst, ref)
            assert inst.scalars.tobytes() == ref.scalars.tobytes()
            assert meta["witness_coords"] == witness

    @pytest.mark.parametrize("zero_rows", [(0,), (3, 4), (8,), (0, 2, 5, 8)])
    def test_zero_rows_take_no_uniform(self, monkeypatch, zero_rows):
        # a row whose radius words are all below 2**11 draws u1 = 0, so its
        # normals are all zero: the per-row generator keeps it as drawn and
        # takes no uniform, which shifts the stream for every later row
        alg, m = MIXED, 9
        pairs = (alg.dim + 1) // 2
        fill = np.random.PCG64(5)
        words = list(fill.random_raw(2 * pairs))  # the witness
        for i in range(m):
            if i in zero_rows:
                words += [7] * pairs + list(fill.random_raw(pairs))
            else:
                words += list(fill.random_raw(2 * pairs + 1))
        words += list(fill.random_raw(64))  # what the stacked draw reads ahead
        ref_rng = _scripted_source(words)
        ref, witness = _reference_feasible_scp(alg, m, 0.0, ref_rng)
        rng = _scripted_source(words)
        monkeypatch.setattr(generators, "RandomSource", lambda seed: rng)
        inst, meta = generate_feasible_scp(alg, m, 0.0, 0)
        assert _same_stacks(inst, ref)
        assert inst.scalars.tobytes() == ref.scalars.tobytes()
        assert meta["witness_coords"] == witness
        assert rng._bitgen.pos == ref_rng._bitgen.pos
        for i in zero_rows:
            assert not any(np.any(b[i]) for b in inst.blocks)

    @pytest.mark.parametrize("r", range(1, 11))
    @pytest.mark.parametrize("m", [1, 40])
    def test_covering_stacks_match_per_row_generator(self, r, m):
        for seed in (0, 101):
            inst, meta = generate_covering_sdp(r, m, seed)
            ref, opt, witness = _reference_covering_sdp(r, m, RandomSource(seed))
            assert _same_stacks(inst, ref)
            assert meta["planted_opt"] == opt
            assert meta["witness_coords"] == witness
            analytic, _ = generate_covering_sdp(r, m, seed, analytic=True)
            e = identity(analytic.algebra)
            ref = instance_from_rows(analytic.algebra, [e / r] * m, np.ones(m), e, ("GE",))
            assert _same_stacks(analytic, ref)


class TestRunner:
    def config(self):
        return SolverConfig(
            0.3, 0.05, PrivacyBudget(2.0, 0.01), sensitivity=Sensitivity(0.05, "linf")
        )

    def test_records_and_csv(self, tmp_path):
        inst, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 6, 0.05, seed=1)
        records = run_experiment(inst, "scalar", self.config(), seeds=[0, 1])
        assert [r.seed for r in records] == [0, 1]
        path = tmp_path / "out.csv"
        write_records(path, records, include_wall=True)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_solve_rows_deterministic(self, tmp_path):
        inst, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 6, 0.05, seed=1)
        rows = []
        for i in range(2):
            records = run_experiment(inst, "scalar", self.config(), seeds=[7])
            path = tmp_path / f"d{i}.csv"
            write_records(path, records, include_wall=False)
            rows.append(path.read_bytes())
        assert rows[0] == rows[1]
        header = rows[0].splitlines()[0].decode()
        assert header == ",".join(SOLVE_CSV_COLUMNS)
        assert "wall_ms" not in header

    def test_append_mode_single_header(self, tmp_path):
        inst, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 4, 0.05, seed=1)
        path = tmp_path / "a.csv"
        records = run_experiment(inst, "nonprivate", self.config(), seeds=[0])
        write_records(path, records, include_wall=False)
        write_records(path, records, include_wall=False)
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("seed")) == 1
        assert len(lines) == 3

    def test_other_header_is_refused(self, tmp_path):
        inst, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 4, 0.05, seed=1)
        path = tmp_path / "a.csv"
        records = run_experiment(inst, "nonprivate", self.config(), seeds=[0])
        write_records(path, records, include_wall=False)
        blob = path.read_bytes()
        with pytest.raises(ValueError, match="has the header"):
            write_records(path, records, include_wall=True)
        assert path.read_bytes() == blob

    def test_unknown_solver(self):
        inst, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 4, 0.05, seed=1)
        with pytest.raises(ValueError):
            run_experiment(inst, "magic", self.config(), seeds=[0])

    def counted_dispatch(self, monkeypatch):
        """Patch the module global the benchmark wraps to time each solve;
        each call records whether the instance's width was already known,
        then the report."""
        calls, reports = [], []
        solve = runner_module.dispatch_solver

        def dispatch_solver(solver, instance, *args, **kwargs):
            calls.append("width" in vars(instance))
            reports.append(solve(solver, instance, *args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(runner_module, "dispatch_solver", dispatch_solver)
        return calls, reports

    def test_one_dispatch_per_seed_after_the_bound(self, monkeypatch):
        inst, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 6, 0.05, seed=1)
        calls, reports = self.counted_dispatch(monkeypatch)
        records = run_experiment(inst, "scalar", self.config(), seeds=[0, 1, 2])
        # the scalar bound reads the width, before the first solve
        assert calls == [True, True, True]
        assert len(records) == 3 and all(r.report is x for r, x in zip(records, reports))
        bound = scalar_private_alpha_bound(0.05, inst.width, 2, 6, 2.0, 0.01, 0.05)
        assert [r.alpha_bound for r in records] == [bound] * 3

    @pytest.mark.parametrize(
        "solver, delta, message",
        [
            ("magic", 0.01, "unknown solver 'magic'"),
            ("covering-hs", 0.01, "the covering solver needs a trace budget"),
            ("covering-hs", 0.0, "the covering-hs solver requires delta > 0"),
            ("constraint", 0.0, "the constraint solver requires delta > 0"),
        ],
    )
    def test_checks_come_before_the_first_solve(self, monkeypatch, solver, delta, message):
        inst, _ = generate_covering_sdp(2, 4, 0)
        calls, _ = self.counted_dispatch(monkeypatch)
        config = replace(self.config(), budget=PrivacyBudget(2.0, delta))
        with pytest.raises(ValueError, match=message):
            run_experiment(inst, solver, config, seeds=[0, 1])
        assert calls == []


class TestAudit:
    def test_exponential_within_budget(self):
        report = privacy_audit("exponential", 1.0, 200_000, seed=0, sensitivity=0.2)
        assert report.passed
        assert report.epsilon_measured <= 1.0 + report.slack

    def test_identical_neighbors_measure_zero(self):
        scores = np.array([0.5, 0.1, 0.9])
        report = audit_exponential_mechanism(scores, scores, 0.2, 1.0, 100_000, seed=1)
        assert report.passed
        assert report.epsilon_measured <= 0.05

    def test_negative_control_detected(self):
        report = privacy_audit(
            "exponential", 0.5, 400_000, seed=2, sensitivity=0.5, negative_control=True
        )
        assert not report.passed

    def test_dual_oracle_audit(self):
        report = privacy_audit("dual-oracle", 1.0, 200_000, seed=3, sensitivity=0.2)
        assert report.passed

    def test_gaussian_analytic(self):
        budget = PrivacyBudget(1.0, 1e-4)
        report = audit_gaussian(0.3, budget)
        assert report.passed
        assert report.details["delta_achieved"] <= 1e-4

    def test_gaussian_negative_control(self):
        report = privacy_audit("gaussian", 1.0, 0, seed=0, delta=1e-4, negative_control=True)
        assert not report.passed

    def test_tradeoff_function_calibration(self):
        # the classical sigma always satisfies its declared (eps, delta)
        for eps in (0.3, 1.0, 2.0):
            for delta in (1e-3, 1e-5):
                sigma = gaussian_sigma(1.0, PrivacyBudget(eps, delta))
                assert gaussian_tradeoff_delta(1.0, sigma, eps) <= delta


class TestCli:
    def test_gen_solve_roundtrip(self, tmp_path):
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        result = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "6",
             "--seed", "3", "--out", str(inst_path)],
        )
        assert result.exit_code == 0, result.output
        csv_path = tmp_path / "rows.csv"
        args = ["solve", "--instance", str(inst_path), "--solver", "scalar",
                "--eps", "2", "--alpha", "0.3", "--dinf", "0.05",
                "--seed", "1", "--csv", str(csv_path)]
        first = runner.invoke(cli_main, args)
        assert first.exit_code == 0, first.output
        blob = csv_path.read_bytes()
        second = runner.invoke(cli_main, args)
        assert second.exit_code == 0
        # appended row is byte-identical to the first
        lines = csv_path.read_bytes().splitlines()
        assert lines[1] == lines[2]
        assert blob.splitlines()[1] == lines[1]

    def test_guarantee_void_exit_code(self, tmp_path):
        runner = CliRunner()
        inst_path = tmp_path / "cov.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "covering-sdp", "--r", "2", "--m", "8",
             "--seed", "1", "--analytic", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        result = runner.invoke(
            cli_main,
            ["solve", "--instance", str(inst_path), "--solver", "covering-hs",
             "--eps", "1", "--delta", "0.01", "--alpha", "1.0", "--s", "2",
             "--seed", "0"],
        )
        assert result.exit_code == 2  # density below the theory floor

    def test_non_finite_instance_is_exit_one(self, tmp_path):
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        payload = json.loads(inst_path.read_text())
        payload["b"][0] = math.nan
        inst_path.write_text(json.dumps(payload))
        for solver in ("nonprivate", "scalar"):
            result = runner.invoke(
                cli_main,
                ["solve", "--instance", str(inst_path), "--solver", solver,
                 "--alpha", "0.5", "--dinf", "0.05"],
            )
            assert result.exit_code == 1
            assert "scalars contain non-finite values" in result.output

    def test_missing_field_is_exit_one(self, tmp_path):
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        payload = json.loads(inst_path.read_text())
        del payload["b"]
        inst_path.write_text(json.dumps(payload))
        result = runner.invoke(
            cli_main,
            ["solve", "--instance", str(inst_path), "--solver", "nonprivate",
             "--alpha", "0.5"],
        )
        assert result.exit_code == 1
        assert not isinstance(result.exception, KeyError)
        assert "Error:" in result.output and "missing field(s): b" in result.output

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda rows: 5, "constraints must be a list of rows, got int"),
            (lambda rows: rows[:3] + [2.0], "constraint row 3: expected a list of 1 blocks"),
            (lambda rows: rows[:1] + [[rows[1][0][:2]]] + rows[2:],
             "constraint row 1: packed s2 block needs 3 entries, got 2"),
        ],
        ids=["not-a-list", "row-not-a-list", "packed-length"],
    )
    def test_malformed_constraints_is_exit_one(self, tmp_path, mutate, message):
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        payload = json.loads(inst_path.read_text())
        payload["constraints"] = mutate(payload["constraints"])
        inst_path.write_text(json.dumps(payload))
        result = runner.invoke(
            cli_main,
            ["solve", "--instance", str(inst_path), "--solver", "nonprivate",
             "--alpha", "0.5"],
        )
        assert result.exit_code == 1
        assert not isinstance(result.exception, TypeError)
        assert "Error:" in result.output and message in result.output

    @pytest.mark.parametrize(
        "setting, message",
        [
            (["--eps", "inf"], "Error: epsilon must be positive and finite, got inf"),
            (["--alpha", "1e300"], "Error: alpha = 1e+300 is too large: alpha^2 overflows"),
            (["--alpha", "inf"], "Error: alpha must be positive and finite, got inf"),
            (["--dinf", "inf"], "Error: sensitivity must be nonnegative and finite, got inf"),
        ],
        ids=["eps-inf", "alpha-1e300", "alpha-inf", "dinf-inf"],
    )
    def test_non_finite_setting_is_exit_one(self, tmp_path, setting, message):
        # the criterion-09 instance: planted S3, m = 32, zero margin
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s3", "--m", "32", "--margin", "0",
             "--seed", "900", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        args = ["solve", "--instance", str(inst_path), "--solver", "scalar",
                "--alpha", "0.1", "--dinf", "0.05"] + setting
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output.strip().splitlines() == [message]

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_overspending_budget_is_exit_one(self, tmp_path, command):
        # eps = 20 > 4 log(1/0.05): the closed-form step epsilon overspends
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        args = [command, "--instance", str(inst_path), "--solver", "scalar",
                "--delta", "0.05", "--alpha", "0.3", "--dinf", "0.05"]
        if command == "bench":
            args += ["--seeds", "1", "--eps-grid", "20", "--csv", str(tmp_path / "b.csv")]
        else:
            args += ["--eps", "20"]
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: advanced composition of")

    def test_failing_epsilon_leaves_no_bench_row(self, tmp_path):
        # eps = 1 runs, then eps = 20 overspends its composition: no row of
        # the grid may reach the CSV
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        csv_path = tmp_path / "b.csv"
        result = runner.invoke(
            cli_main,
            ["bench", "--instance", str(inst_path), "--solver", "scalar", "--delta", "0.05",
             "--alpha", "0.3", "--dinf", "0.05", "--seeds", "1", "--eps-grid", "1,20",
             "--csv", str(csv_path)],
        )
        assert result.exit_code == 1
        assert result.output.startswith("Error: advanced composition of")
        assert not csv_path.exists()

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_iteration_cap_is_exit_one(self, tmp_path, command):
        # planted opt 26.8: the default alpha 0.1 plans about 7.9e7 steps
        runner = CliRunner()
        inst_path = tmp_path / "cov.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "covering-sdp", "--r", "3", "--m", "32",
             "--seed", "8", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        args = [command, "--instance", str(inst_path), "--solver", "covering-hs"]
        if command == "bench":
            args += ["--seeds", "1", "--eps-grid", "1", "--csv", str(tmp_path / "b.csv")]
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "Error: alpha = 0.1 plans T = 7.85e+07 iterations" in result.output

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_constraint_spectrum_check_is_exit_one(self, tmp_path, command):
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        payload = json.loads(inst_path.read_text())
        payload["constraints"] = [
            [[5.0 * v for v in block] for block in row] for row in payload["constraints"]
        ]
        inst_path.write_text(json.dumps(payload))
        args = [command, "--instance", str(inst_path), "--solver", "constraint",
                "--dinf", "0.01", "--alpha", "0.5"]
        if command == "bench":
            args += ["--seeds", "1", "--eps-grid", "1", "--csv", str(tmp_path / "b.csv")]
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: constraint spectra must lie in [-1, 1]" in result.output

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("solver", ["scalar", "constraint", "objective", "covering-hs"])
    def test_zero_delta_is_exit_one(self, tmp_path, command, solver):
        # the closed-form bounds take log(1/delta): no traceback, no row
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        if solver == "covering-hs":
            kind = ["--kind", "covering-sdp", "--r", "2"]
        else:
            kind = ["--kind", "feasible-scp", "--alg", "s2"]
        gen = runner.invoke(
            cli_main, ["gen", *kind, "--m", "4", "--seed", "0", "--out", str(inst_path)]
        )
        assert gen.exit_code == 0, gen.output
        csv_path = tmp_path / "rows.csv"
        args = [command, "--instance", str(inst_path), "--solver", solver, "--delta", "0",
                "--dinf", "0.05", "--alpha", "0.5", "--csv", str(csv_path)]
        if command == "bench":
            args += ["--seeds", "1", "--eps-grid", "1"]
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output.strip().splitlines() == [
            f"Error: the {solver} solver requires delta > 0"
        ]
        assert not csv_path.exists()

    @pytest.mark.parametrize("first, second", [("solve", "bench"), ("bench", "solve")])
    def test_csv_of_other_command_is_refused(self, tmp_path, first, second):
        # solve rows have 7 fields and bench rows 8: one file never mixes them
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        csv_path = tmp_path / "rows.csv"
        extra = {"solve": [], "bench": ["--seeds", "1", "--eps-grid", "1"]}

        def invoke(command):
            return runner.invoke(
                cli_main,
                [command, "--instance", str(inst_path), "--solver", "nonprivate",
                 "--alpha", "0.5", "--csv", str(csv_path)] + extra[command],
            )

        assert invoke(first).exit_code == 0
        blob = csv_path.read_bytes()
        result = invoke(second)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {csv_path} has the header")
        assert csv_path.read_bytes() == blob

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_missing_opt_is_one_error(self, tmp_path, command):
        runner = CliRunner()
        inst_path = tmp_path / "cov.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "covering-sdp", "--r", "2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        payload = json.loads(inst_path.read_text())
        del payload["metadata"]["planted_opt"]
        inst_path.write_text(json.dumps(payload))
        csv_path = tmp_path / "rows.csv"
        args = [command, "--instance", str(inst_path), "--solver", "covering-hs",
                "--csv", str(csv_path)]
        if command == "bench":
            args += ["--seeds", "1", "--eps-grid", "1"]
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip().splitlines() == [
            "Error: covering-hs needs --opt or planted_opt metadata"
        ]
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "opt, message",
        [
            ("nan", "opt must be positive and finite, got nan"),
            ("inf", "opt must be positive and finite, got inf"),
            # finite, but 3 * opt overflows, and with it the planned T
            ("1e308", "alpha = 0.1 plans T = inf iterations, over the cap of 1e+07; "
                      "no finite alpha fits"),
        ],
    )
    def test_non_finite_opt_is_one_error(self, tmp_path, opt, message):
        runner = CliRunner()
        inst_path = tmp_path / "cov.json"
        gen = runner.invoke(
            cli_main,
            ["gen", "--kind", "covering-sdp", "--r", "2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        assert gen.exit_code == 0, gen.output
        result = runner.invoke(
            cli_main,
            ["solve", "--instance", str(inst_path), "--solver", "covering-hs", "--opt", opt],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip().splitlines() == [f"Error: {message}"]

    def test_out_of_range_setting_is_exit_one(self, tmp_path):
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        result = runner.invoke(
            cli_main,
            ["solve", "--instance", str(inst_path), "--solver", "scalar", "--alpha", "-1"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: alpha must be positive" in result.output

    @pytest.mark.parametrize(
        "grid, message", [("1,abc", "is not a comma-separated list"), ("1,-1", "epsilon must")]
    )
    def test_bad_eps_grid_fails_before_any_row(self, tmp_path, grid, message):
        runner = CliRunner()
        inst_path = tmp_path / "inst.json"
        runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        csv_path = tmp_path / "bench.csv"
        result = runner.invoke(
            cli_main,
            ["bench", "--instance", str(inst_path), "--solver", "scalar", "--dinf", "0.05",
             "--eps-grid", grid, "--seeds", "1", "--alpha", "0.5", "--csv", str(csv_path)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert not csv_path.exists()

    def test_usage_error_is_exit_one(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["gen", "--kind", "covering-sdp", "--m", "4",
                                          "--out", "/tmp/x.json"])
        assert result.exit_code == 1  # missing --r

    def test_audit_command(self):
        runner = CliRunner()
        result = runner.invoke(
            cli_main, ["audit", "--mech", "gaussian", "--eps", "1", "--delta", "1e-4"]
        )
        assert result.exit_code == 0, result.output
        assert '"passed": true' in result.output

    def test_bench_writes_timed_rows(self, tmp_path):
        runner = CliRunner()
        inst_path = tmp_path / "i.json"
        runner.invoke(
            cli_main,
            ["gen", "--kind", "feasible-scp", "--alg", "s2", "--m", "4",
             "--seed", "0", "--out", str(inst_path)],
        )
        csv_path = tmp_path / "bench.csv"
        result = runner.invoke(
            cli_main,
            ["bench", "--instance", str(inst_path), "--solver", "nonprivate",
             "--eps-grid", "1,2", "--seeds", "2", "--alpha", "0.5",
             "--csv", str(csv_path)],
        )
        assert result.exit_code == 0, result.output
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5  # header + 2 eps * 2 seeds


# Every solver through `solve` and `bench`, on small fixed files: the
# feasible S2 file (m = 6, seed 4) and the analytic covering S2 file for
# covering-hs.  Each setting is (eps values, other options); `solve` runs
# the first eps at seed 3, `bench` the whole grid over seeds 0 and 1.
# `objective` runs at dinf 0, so its released objective carries no noise.
CLI_RUNS = {
    "nonprivate": ("feasible", ("1",), ["--alpha", "0.3"]),
    "scalar": ("feasible", ("2", "4"), ["--delta", "0.01", "--alpha", "0.3", "--dinf", "0.05"]),
    "constraint": ("feasible", ("2", "4"), ["--delta", "0.05", "--alpha", "0.3", "--dinf", "0.01"]),
    "covering-hs": ("covering", ("1", "2"), ["--delta", "0.01", "--alpha", "1.0", "--s", "2"]),
    "objective": ("feasible", ("1", "2"), ["--delta", "0.05", "--dinf", "0"]),
}

# (exit code, SHA-256 of the CSV text, of stdout); bench rows without wall_ms
CLI_PINS = {
    "bench-constraint": (
        2,
        "1eeeacfa6c17fcf9f61a90d044b2a63769b0f93df2296abc02e336fbc5bdb1a2",
        "69cfec7e1dc41c075cd1a208efa6b9b64a943ab2eda66e1c4b03071dfab47c90",
    ),
    "bench-covering-hs": (
        2,
        "c497c4544d61504ba165048828c709451b7c53f1d4f53f8af27b0b3993b9fb8d",
        "ea804dd337fc9829ff153090d612be9a1008f9db41485cf6985d698f2d55f5bf",
    ),
    "bench-nonprivate": (
        0,
        "3f171aa731c3b32ce474bd22b90faf0b9229507201eca5e77dadcd05b3462e14",
        "aadc788ed5a4e0bc68ad3fe64e4acc6ac7a1ef81d7492913329411fc14e3c100",
    ),
    "bench-objective": (
        0,
        "39a9396b46fd6d4a18d542dc0aef8cc937d186d383b4c06ef368af22e7d191f5",
        "ea804dd337fc9829ff153090d612be9a1008f9db41485cf6985d698f2d55f5bf",
    ),
    "bench-scalar": (
        0,
        "d7ab6f688e9508e7e28885ad0b7d91ca1bd7f0b5d4c81c11375c99ebe049ccad",
        "69cfec7e1dc41c075cd1a208efa6b9b64a943ab2eda66e1c4b03071dfab47c90",
    ),
    "solve-constraint": (
        2,
        "44a0ef6d170e31b445435522a4c683d34fc7190310f3f693139db4d0819b63c3",
        "f0ce70ce0e1de618c74e34a996d4b18d8051dff651ca8b24482d3988fb76586e",
    ),
    "solve-covering-hs": (
        2,
        "c680281426410dfb6b0138f3426bb03657a4ad295c04c01206ddd87426923327",
        "39f6e1857831274d459567d7c80ad8eab674160202c156dc0335f1d5e60f3f07",
    ),
    "solve-nonprivate": (
        0,
        "ee9dde5d29d72c4363a75c88801dd4cc1fe7ff983863de4f2cc860bb1190ee3b",
        "a2f46df27bc91f424efa8431638cbd9477edbd83b41cab1ea266dbba8d8b1f43",
    ),
    "solve-objective": (
        0,
        "dcdbac1d90cf27a90278c68797cec7f96181dfd46b21dd12f257c084fe102a52",
        "bd9c98f600cab88ae8d61ab7a88ac9cafb11ebbac919bcf06c9b1ed6280be7fd",
    ),
    "solve-scalar": (
        0,
        "f42021d06a1ecc5a29dc4616f2f5f4efc885af56edf601d63e7d73dd0f5e7dba",
        "baf30ca1a84f083f111339a950a4ef202f1aa4fa37b58c82d1876d5346f09c05",
    ),
}


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    files = {"feasible": root / "s2.json", "covering": root / "cov.json"}
    runner = CliRunner()
    for args in (
        ["--kind", "feasible-scp", "--alg", "s2", "--m", "6", "--seed", "4"],
        ["--kind", "covering-sdp", "--r", "2", "--m", "8", "--seed", "1", "--analytic"],
    ):
        out = files["feasible" if "feasible-scp" in args else "covering"]
        assert runner.invoke(cli_main, ["gen", *args, "--out", str(out)]).exit_code == 0
    return files


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("solver", sorted(CLI_RUNS))
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_cli_bytes_are_pinned(pinned_files, tmp_path, command, solver):
    kind, grid, options = CLI_RUNS[solver]
    csv_path = tmp_path / "rows.csv"
    args = [command, "--instance", str(pinned_files[kind]), "--solver", solver,
            "--csv", str(csv_path), *options]
    if command == "solve":
        args += ["--eps", grid[0], "--seed", "3"]
    else:
        args += ["--eps-grid", ",".join(grid), "--seeds", "2"]
    result = CliRunner().invoke(cli_main, args)
    lines = csv_path.read_text().splitlines()
    if command == "bench":
        assert lines[0].endswith(",wall_ms")
        lines = [line.rsplit(",", 1)[0] for line in lines]
    got = (result.exit_code, _sha("\n".join(lines)), _sha(result.output))
    assert got == CLI_PINS[f"{command}-{solver}"]


_KERNEL_SCRIPT = """
import json, sys
import conedp.harness.cli
from click.testing import CliRunner
from conedp import eja

def run(*args):
    result = CliRunner().invoke(conedp.harness.cli.main, list(args))
    assert result.exit_code == 0, result.output

out, solves = sys.argv[1], []
after_import = sorted(eja._KERNELS)
run("gen", "--kind", "feasible-scp", "--alg", "r2+s3", "--m", "8", "--seed", "3",
    "--out", out + "/f.json")
run("gen", "--kind", "covering-sdp", "--r", "3", "--m", "8", "--seed", "1",
    "--out", out + "/c.json")
after_gen = sorted(eja._KERNELS)
for seed in (0, 1):
    run("solve", "--instance", out + "/f.json", "--solver", "nonprivate", "--seed", str(seed))
    solves.append(dict(eja._KERNELS))
print(json.dumps({
    "after_import": after_import,
    "after_gen": after_gen,
    "after_solves": [sorted(kernels) for kernels in solves],
    "reused": all(solves[1][key] is kernel for key, kernel in solves[0].items()),
}))
"""


def test_set_up_builds_no_kernel_and_solves_reuse_them(tmp_path):
    # a fresh interpreter, so that no other test has filled the kernel cache
    env = dict(os.environ, PYTHONPATH=str(Path(conedp.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["after_import"] == got["after_gen"] == []
    first, second = got["after_solves"]
    assert first == second == [3]  # the s3 factor's cone step
    assert got["reused"]
