"""Unit tests for instance I/O, generators, runner, audits, and the CLI."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from conedp.eja import (
    AlgebraDescriptor,
    identity,
    inner,
    min_eigenvalue,
    norm,
    to_coords,
    trace,
)
from conedp.harness.audit import (
    audit_exponential_mechanism,
    audit_gaussian,
    gaussian_tradeoff_delta,
    privacy_audit,
)
from conedp.harness.cli import main as cli_main
from conedp.harness.generators import (
    generate_covering_sdp,
    generate_feasible_scp,
    random_cone_distribution,
)
from conedp.harness.instances import (
    SCHEMA_VERSION,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    unpack_element,
)
from conedp.harness.runner import (
    CSV_COLUMNS,
    SOLVE_CSV_COLUMNS,
    run_experiment,
    write_records,
)
from conedp.mechanisms import PrivacyBudget, RandomSource, Sensitivity, gaussian_sigma
from conedp.solvers import SolverConfig

MIXED = AlgebraDescriptor.from_spec("r2+s3+q4")


class TestInstanceIO:
    def test_roundtrip_exact(self, tmp_path):
        inst, meta = generate_feasible_scp(MIXED, 5, 0.03, seed=9)
        path = tmp_path / "inst.json"
        save_instance(path, inst, meta)
        loaded, loaded_meta = load_instance(path)
        assert loaded.algebra == inst.algebra
        assert loaded.senses == inst.senses
        assert np.array_equal(loaded.scalars, inst.scalars)
        for a, b in zip(loaded.constraints, inst.constraints):
            assert np.array_equal(to_coords(a), to_coords(b))
        assert loaded_meta == meta

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
    def test_loaded_blocks_match_unpack_element(self, spec):
        inst, meta = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), 7, 0.0, seed=2)
        payload = json.loads(json.dumps(instance_to_dict(inst, meta)))
        loaded, _ = instance_from_dict(payload)
        for a, packed in zip(loaded.constraints, payload["constraints"]):
            want = unpack_element(loaded.algebra, packed)
            assert len(a.blocks) == len(want.blocks)
            for got_block, want_block in zip(a.blocks, want.blocks):
                assert got_block.shape == want_block.shape
                assert got_block.tobytes() == want_block.tobytes()
                assert not got_block.flags.writeable

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda rows: 5, "constraints must be a list of rows, got int$"),
            (lambda rows: [], "at least one constraint"),
            (lambda rows: rows[:1] + [7] + rows[2:],
             "constraint row 1: expected a list of 3 blocks, got int$"),
            (lambda rows: rows[:2] + [rows[2][:2]],
             "constraint row 2: expected a list of 3 blocks, got 2$"),
            (lambda rows: rows[:1] + [[rows[1][0], rows[1][1][:5], rows[1][2]]] + rows[2:],
             "constraint row 1: packed s3 block needs 6 entries, got 5$"),
            (lambda rows: rows[:2] + [[rows[2][0], rows[2][1], 0.5]],
             "constraint row 2: packed q4 block needs 4 entries, got float$"),
            (lambda rows: [[["a", 1.0], rows[0][1], rows[0][2]]] + rows[1:],
             "constraint r2 blocks must hold numbers"),
            (lambda rows: [[[[1.0], [2.0]], rows[0][1], rows[0][2]]] + rows[1:],
             "constraint r2 blocks must hold numbers"),
        ],
        ids=["not-a-list", "empty", "row-not-a-list", "block-count", "packed-length",
             "block-not-a-list", "non-number", "nested"],
    )
    def test_malformed_constraints_are_named(self, mutate, message):
        inst, meta = generate_feasible_scp(MIXED, 3, 0.0, seed=1)
        payload = instance_to_dict(inst, meta)
        payload["constraints"] = mutate(payload["constraints"])
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
        for a in inst.constraints:
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
        for a in inst.constraints:
            assert np.allclose(a.blocks[0], np.eye(3) / 3)

    def test_single_identity_constraint_opt_is_one(self):
        # <I, X> >= 1 with Tr X minimized: X = e1 e1^T attains trace 1
        inst, _ = generate_covering_sdp(3, 1, seed=2)
        one = generate_covering_sdp(1, 1, seed=2, analytic=True)[0]
        assert one.constraints[0].blocks[0][0, 0] == 1.0

    def test_feasible_planted(self):
        from conedp.eja import from_coords

        inst, meta = generate_feasible_scp(MIXED, 12, 0.0, seed=3)
        witness = from_coords(inst.algebra, np.array(meta["witness_coords"]))
        assert trace(witness) == pytest.approx(1.0, abs=1e-10)
        assert min_eigenvalue(witness) >= -1e-9
        from conedp.solvers import check_violations

        assert check_violations(witness, inst, 0.0) == {}
        for a in inst.constraints:
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
        for _ in range(2):
            records = run_experiment(inst, "scalar", self.config(), seeds=[7])
            path = tmp_path / "d.csv"
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
        write_records(path, records, include_wall=False, append=True)
        write_records(path, records, include_wall=False, append=True)
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("seed")) == 1
        assert len(lines) == 3

    def test_unknown_solver(self):
        inst, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 4, 0.05, seed=1)
        with pytest.raises(ValueError):
            run_experiment(inst, "magic", self.config(), seeds=[0])


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
