import json
import subprocess
import sys
from pathlib import Path

import pytest

import nctheta
from nctheta.cli import main
from nctheta.config import load_config, parse_config, require_seed
from nctheta.errors import ConfigInvalid, ConfigSyntax
from nctheta.export import export_coefficients, load_series
from nctheta.qtheta import quantum_theta_series
from nctheta.report import run_suite, write_report


def minimal_lattice(**overrides):
    cfg = {
        "embedding": {"kind": "lattice", "theta1": 0.5,
                      "m": [[1, 0], [0, 1]],
                      "delta_hat": [[0.0, 0.7], [0.3, 0.0]]},
        "structure": {"tau": [0.0, 1.0]},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


class TestLoadConfig:
    def test_canonical_fixture(self, lattice_config):
        assert lattice_config.radius == 4
        assert lattice_config.seed == 42
        emb = lattice_config.build_embedding()
        assert emb.theta34 == pytest.approx(0.4)

    def test_defaults_filled(self):
        cfg = parse_config(minimal_lattice())
        assert cfg.radius == 4
        assert cfg.tolerances["oracle_rel"] == 1e-8
        assert cfg.tolerances["identity_abs"] == 1e-12
        assert cfg.tolerances["phase_abs"] == 1e-9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(tmp_path / "nope.json")

    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigSyntax):
            load_config(bad)

    def test_schema_violation_carries_path(self):
        raw = minimal_lattice()
        raw["radius"] = "four"
        with pytest.raises(ConfigInvalid) as err:
            parse_config(raw)
        assert "radius" in err.value.json_path

    def test_embedding_violation_surfaces(self):
        raw = minimal_lattice()
        raw["embedding"]["delta_hat"] = [[0.1, 0.7], [0.3, 0.0]]
        with pytest.raises(ConfigInvalid) as err:
            parse_config(raw)
        assert "column 3" in str(err.value)

    def test_structure_violation_carries_path(self):
        raw = minimal_lattice()
        raw["structure"] = {"tau": [0.0, -1.0]}
        with pytest.raises(ConfigInvalid) as err:
            parse_config(raw)
        assert err.value.json_path == "$.structure.tau"
        assert "NotPositive" in str(err.value)

    def test_structure_kind_shape(self):
        raw = minimal_lattice()
        raw["structure"] = {"tau": [[[0.0, 0.5], [0.0, 0.0]],
                                    [[0.0, 0.0], [0.0, 0.4]]]}
        with pytest.raises(ConfigInvalid):
            parse_config(raw)

    def test_seed_mandatory_for_random_suites(self):
        cfg = parse_config({k: v for k, v in minimal_lattice().items()
                            if k != "seed"})
        with pytest.raises(ConfigInvalid):
            require_seed(cfg, "additivity")
        assert require_seed(cfg, "commutation") == 0

    def test_content_hash_stable(self):
        a = parse_config(minimal_lattice())
        b = parse_config(minimal_lattice())
        assert a.content_hash() == b.content_hash()
        c = parse_config(minimal_lattice(radius=5))
        assert c.content_hash() != a.content_hash()


class TestExport:
    def test_csv_row_count_and_header(self, lattice_emb, lattice_structure, tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        out = export_coefficients(series, "csv", tmp_path / "coeff.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "k1,k2,k3,k4,w1,w2,m1,m2,t1,t2,re,im"
        assert len(lines) == 1 + 81

    def test_csv_zero_row(self, lattice_emb, lattice_structure, tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        out = export_coefficients(series, "csv", tmp_path / "coeff.csv")
        first = out.read_text().splitlines()[1].split(",")
        assert first[:4] == ["0", "0", "0", "0"]
        assert float(first[10]) == pytest.approx(1.000000602807, rel=1e-9)
        assert float(first[11]) == 0.0

    def test_json_roundtrip_byte_identical(self, lattice_emb, lattice_structure,
                                           tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        j1 = export_coefficients(series, "json", tmp_path / "a.json")
        reloaded = load_series(j1)
        j2 = export_coefficients(reloaded, "json", tmp_path / "b.json")
        assert j1.read_bytes() == j2.read_bytes()
        c1 = export_coefficients(series, "csv", tmp_path / "a.csv")
        c2 = export_coefficients(reloaded, "csv", tmp_path / "b.csv")
        assert c1.read_bytes() == c2.read_bytes()

    def test_reload_rejects_table_that_misses_its_parameters(
            self, lattice_emb, lattice_structure, tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        path = export_coefficients(series, "json", tmp_path / "a.json")
        data = json.loads(path.read_text())
        data["coefficients"][1]["re"] *= 2.0
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="coefficient at -1,-1,-1,-1"):
            load_series(path)

    def test_vector_export(self, vector_emb, vector_structure, tmp_path):
        series = quantum_theta_series(vector_emb, vector_structure, radius=1)
        out = export_coefficients(series, "csv", tmp_path / "v.csv")
        rows = out.read_text().splitlines()
        assert len(rows) == 82
        # integer slots stay zero for the plane kind
        assert all(r.split(",")[6] == "0" and r.split(",")[7] == "0"
                   for r in rows[1:])


class TestRunSuite:
    def test_unknown_suite(self, lattice_config):
        with pytest.raises(ConfigInvalid):
            run_suite(lattice_config, "everything")

    def test_commutation_report(self, lattice_config):
        report = run_suite(lattice_config, "commutation")
        assert report.passed
        assert report.checks[0].name == "commutation-phases"
        assert len(report.checks[0].residuals) == 16

    def test_error_captured_not_raised(self, vector_config):
        report = run_suite(vector_config, "nogo")
        assert not report.passed
        assert "errored" in report.checks[0].name

    def test_report_roundtrip(self, lattice_config, tmp_path):
        report = run_suite(lattice_config, "validate")
        p = write_report(report, tmp_path / "r.json")
        data = json.loads(p.read_text())
        assert data["summary"]["ok"] is True
        assert data["rng"]["algorithm"] == "philox4x64"
        assert "elapsed" not in json.dumps(data)

    def test_csv_report(self, lattice_config, tmp_path):
        report = run_suite(lattice_config, "commutation")
        p = write_report(report, tmp_path / "r.csv", fmt="csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "check,label,residual,tolerance,passed"
        assert lines[-1].startswith("summary")


class TestSuiteCoverage:
    def test_every_suite_produces_checks(self, tmp_path):
        cfg = parse_config(minimal_lattice(radius=2))
        from nctheta.report import SUITE_NAMES

        for suite in SUITE_NAMES:
            report = run_suite(cfg, suite)
            assert report.checks, suite
            assert report.passed, (suite, report.summary())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("raw", [
        minimal_lattice(embedding={"kind": "lattice", "theta1": 0.5,
                                   "m": [[2, 1], [1, 1]],
                                   "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]},
                        structure={"tau": [0.3, 0.2]}),
        minimal_lattice(structure={"tau": [0.0, 1.0], "lattice_decay": 20}),
        {"embedding": {"kind": "vector_space", "theta1": 5, "theta2": 4},
         "structure": {"tau": [[[0.0, 5.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 4.0]]]},
         "seed": 7},
    ], ids=["lattice-m2111", "lattice-decay20", "vector-theta54"])
    def test_quantum_theta_with_underflowed_coefficients(self, raw):
        # coefficients that underflow to 0 count as infinite decay: no crash,
        # no numpy warning
        report = run_suite(parse_config(raw), "quantum-theta")
        assert [c.name for c in report.checks] == [
            "coefficient-at-zero", "coefficient-symmetry", "coefficient-decay",
            "series-tail-bound"]
        assert report.passed, report.summary()

    def test_vector_additivity_suite(self, vector_config):
        report = run_suite(vector_config, "additivity")
        assert report.passed
        assert report.checks[0].max_residual <= 1e-12


class TestCli:
    def test_exit_zero_and_report(self, lattice_config_path, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["commutation", "--config", str(lattice_config_path),
                     "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2

    def test_seed_requirement_exit_two(self, tmp_path):
        raw = minimal_lattice()
        del raw["seed"]
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(raw))
        assert main(["additivity", "--config", str(p)]) == 2

    def test_check_failure_exit_one(self, tmp_path):
        # an invalid embedding kept alive by --allow-invalid fails validation
        raw = minimal_lattice()
        raw["embedding"]["delta_hat"] = [[0.1, 0.7], [0.3, 0.0]]
        p = tmp_path / "invalid.json"
        p.write_text(json.dumps(raw))
        code = main(["validate", "--config", str(p), "--allow-invalid",
                     "--output", str(tmp_path / "r.json")])
        assert code == 1

    def test_flag_overrides(self, lattice_config_path, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["quantum-theta", "--config", str(lattice_config_path),
                     "--radius", "2", "--seed", "7",
                     "--output", str(out), "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["radius"] == 2
        assert data["rng"]["seed"] == 7
        coeff = out.with_name("rep.coefficients.json")
        assert coeff.exists()
        assert len(json.loads(coeff.read_text())["coefficients"]) == 625

    def test_io_error_exit_three(self, lattice_config_path, tmp_path):
        target = tmp_path / "dir_as_file"
        target.mkdir()
        code = main(["commutation", "--config", str(lattice_config_path),
                     "--output", str(target)])
        assert code == 3

    def test_module_entry_point(self, lattice_config_path, tmp_path, cli_env):
        which = subprocess.run(
            [sys.executable, "-c", "import nctheta; print(nctheta.__file__)"],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env)
        assert which.returncode == 0, which.stderr + which.stdout
        assert (Path(which.stdout.strip()).resolve()
                == Path(nctheta.__file__).resolve())
        out = tmp_path / "rep.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nctheta", "validate",
             "--config", str(lattice_config_path), "--output", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert out.exists()
