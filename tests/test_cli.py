import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import read_csv
from hypothesis import given, settings, strategies as st

from wasslip.cli import _SCHEMA, ConfigError, main, validate_config
from wasslip.datasets import dataset_fingerprint, gen_data, load_dataset_csv, save_dataset_csv, two_moons


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_bytes(path):
    return Path(path).read_bytes()


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"config\.extra"):
            validate_config({"seed": 1, "extra": 2})

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigError, match=r"robust\.rh0"):
            validate_config({"seed": 1, "robust": {"rho": 0.1, "rh0": 5}})

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match=r"robust\.rho"):
            validate_config({"seed": 1, "robust": {}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": "zero"})
        with pytest.raises(ConfigError, match=r"train\.learning_rate"):
            validate_config({"seed": 1, "train": {"objective": "spectral", "rho": 0.0, "learning_rate": "fast"}})

    def test_kappa_inf_string(self):
        cfg = validate_config({"seed": 1, "robust": {"rho": 0.1, "kappa": "inf"}})
        assert math.isinf(cfg["robust"]["kappa"])

    def test_path_and_generator_exclusive(self):
        with pytest.raises(ConfigError, match="dataset"):
            validate_config({"seed": 1, "dataset": {"path": "x.csv", "n": 5}})

    def test_epsilons_validated(self):
        with pytest.raises(ConfigError, match=r"attack\.epsilons"):
            validate_config({"seed": 1, "attack": {"epsilons": [-0.1]}})

    def test_readme_config_block_validates(self):
        """The README's config block, without its comments and its two
        `path` alternatives, is a valid config, and it names every key."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads(re.sub(r"//.*", "", block))
        for section, table in _SCHEMA.items():
            keys = doc if section == "config" else doc[section]
            assert set(table) <= set(keys), section
        del doc["dataset"]["path"], doc["model"]["path"]
        cfg = validate_config(doc)
        assert "step_size" not in cfg["attack"] and "batch_size" not in cfg["train"] and "layer_cap" not in cfg["train"]

    @pytest.mark.parametrize(
        "section, key",
        [(section, key) for section, table in _SCHEMA.items() for key, rule in table.items() if not rule.required],
    )
    def test_null_means_absent(self, section, key):
        doc = {
            "seed": 1,
            "dataset": {"generator": "grid", "n": 9, "k": 2, "dim": 2},
            "model": {"dims": [2, 2]},
            "robust": {"rho": 0.1},
            "attack": {"epsilons": [0.1]},
            "train": {"objective": "spectral", "rho": 0.1},
            "verify": {},
        }
        with_null = json.loads(json.dumps(doc))
        (with_null if section == "config" else with_null[section])[key] = None
        assert validate_config(with_null) == validate_config(doc)

    @pytest.mark.parametrize("where", ["config", "dataset", "model"])
    def test_seeds_are_64_bit(self, where):
        def config(seed):
            doc = {"seed": 1, "dataset": {"generator": "grid", "n": 9, "k": 2, "dim": 2}, "model": {"dims": [2, 2]}}
            (doc if where == "config" else doc[where])["seed"] = seed
            return doc

        assert validate_config(config(2**64 - 1))
        with pytest.raises(ConfigError, match=rf"{where}\.seed: must be <= 18446744073709551615"):
            validate_config(config(2**64 + 1))
        with pytest.raises(ConfigError, match=rf"{where}\.seed: must be >= 0"):
            validate_config(config(-5))

    @pytest.mark.parametrize("seed, message", [("-5", "must be >= 0"), (str(2**64 + 1), "must be <= 18446744073709551615")])
    def test_seed_flag_has_the_seed_key_rule(self, tmp_path, capsys, seed, message):
        cfg = write_config(tmp_path, {"seed": 1, "dataset": {"generator": "grid", "n": 9, "k": 2, "dim": 2}})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", seed]) == 2
        assert capsys.readouterr().err == f"config error at --seed: {message}\n"
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_sizes_are_int64(self):
        """Every integer size key, and each model.dims entry, stops at
        2**63 - 1; seeds are the only keys that go further."""
        base = {
            "seed": 1,
            "dataset": {"generator": "grid", "n": 9, "k": 2, "dim": 2},
            "model": {"dims": [2, 2]},
            "robust": {"rho": 0.1},
            "attack": {"epsilons": [0.1]},
            "train": {"objective": "spectral", "rho": 0.1},
            "verify": {},
        }
        sizes = [(name, key) for name, table in _SCHEMA.items() for key, rule in table.items() if rule.kind is int and key != "seed"]
        assert len(sizes) == 15
        for name, key in sizes + [("model", "dims")]:
            for value in (2**63 - 1, 2**63):
                doc = json.loads(json.dumps(base))
                doc[name][key] = [2, value, 2] if key == "dims" else value
                if value < 2**63:
                    validate_config(doc)
                    continue
                with pytest.raises(ConfigError, match=rf"{name}\.{key}: .*9223372036854775807"):
                    validate_config(doc)

    def test_numbers_beyond_the_float_range_are_not_finite(self):
        with pytest.raises(ConfigError, match=r"robust\.rho: must be finite"):
            validate_config({"seed": 1, "robust": {"rho": 10**400}})
        with pytest.raises(ConfigError, match=r"attack\.epsilons"):
            validate_config({"seed": 1, "attack": {"epsilons": [10**400]}})


class TestGenerators:
    def test_blobs_reproducible_byte_for_byte(self, tmp_path):
        a = gen_data("gaussian-blobs", 4, 2, 2, seed=7)
        b = gen_data("gaussian-blobs", 4, 2, 2, seed=7)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(a, pa)
        save_dataset_csv(b, pb)
        assert read_bytes(pa) == read_bytes(pb)
        assert len(a) == 4 and a.label_count == 2

    def test_grid_25_rows(self):
        points = gen_data("grid", 25, 2, 2, seed=0)
        assert len(points) == 25
        xs = points.xs
        assert xs.min() == -1.0 and xs.max() == 1.0

    def test_grid_rejects_non_power(self):
        with pytest.raises(ValueError):
            gen_data("grid", 24, 2, 2, seed=0)

    def test_two_moons_balanced(self):
        points = two_moons(200, seed=3)
        labels = points.ys
        assert int(np.sum(labels == 0)) == 100
        assert int(np.sum(labels == 1)) == 100

    def test_dataset_round_trip(self, tmp_path):
        points = gen_data("gaussian-blobs", 6, 3, 2, seed=5)
        path = tmp_path / "d.csv"
        save_dataset_csv(points, path)
        back, _ = load_dataset_csv(path)
        assert np.array_equal(back.xs, points.xs)
        assert np.array_equal(back.ys, points.ys)

    def test_fingerprint_hashes_the_saved_csv(self, tmp_path):
        points = gen_data("gaussian-blobs", 12, 3, 2, seed=0)
        path = tmp_path / "d.csv"
        save_dataset_csv(points, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and not text.endswith("\n\n")
        digest = dataset_fingerprint(points)
        assert digest == hashlib.sha256(text[:-1].encode("utf-8")).hexdigest()
        assert digest == "c2794e93d178cf794a65497b68e21602320b3550e54cc53c6e1d27a92763be97"


class TestCommands:
    def _dataset_section(self):
        return {"generator": "gaussian-blobs", "n": 6, "k": 2, "dim": 2, "seed": 9}

    def test_gen_data_command(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "dataset": self._dataset_section()})
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        points, _ = load_dataset_csv(out / "dataset.csv")
        assert len(points) == 6

    def test_certify_rho_zero_matches_empirical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 2,
                "dataset": self._dataset_section(),
                "model": {"dims": [2, 2], "seed": 4},
                "robust": {"rho": 0.0, "kappa": 1.0},
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        assert doc["robust_value"] == pytest.approx(doc["empirical_risk"], abs=1e-9)
        assert all(v["passed"] for v in doc["verdicts"])

    def test_certify_with_oracle_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 3,
                "dataset": self._dataset_section(),
                "model": {"dims": [2, 2], "seed": 4, "init_scale": 0.5},
                "robust": {"rho": 0.2, "kappa": 1.0, "oracle_grid_side": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        assert doc["oracle_value"] is not None
        assert doc["oracle_gap"] >= -1e-9

    @pytest.mark.parametrize(
        "robust, names",
        [
            ({"rho": 0.2}, ["robust_value_ge_empirical_risk"]),
            ({"rho": 0.2, "oracle_grid_side": 5}, ["robust_value_ge_empirical_risk", "dual_dominates_lp_oracle"]),
        ],
        ids=["no-oracle", "oracle"],
    )
    def test_certificate_verdict_names(self, tmp_path, robust, names):
        cfg = write_config(tmp_path, {"seed": 3, "dataset": self._dataset_section(), "model": {"dims": [2, 2], "seed": 4}, "robust": robust})
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        assert [v["check"] for v in doc["verdicts"]] == names

    def test_fingerprints_carry_only_live_keys(self, tmp_path):
        base = {"seed": 2, "dataset": self._dataset_section(), "model": {"dims": [2, 3, 2], "seed": 4}}
        runs = {
            "certify": ({"robust": {"rho": 0.1}}, "certificate.json"),
            "attack": ({"attack": {"epsilons": [0.1], "steps": 2, "restarts": 1}}, "attack_report.json"),
            "train": ({"train": {"objective": "spectral", "rho": 0.1, "epochs": 2}}, "train_report.json"),
        }
        for command, (section, report) in runs.items():
            cfg = write_config(tmp_path, {**base, **section}, name=f"{command}.json")
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            doc = json.loads((tmp_path / command / report).read_text(encoding="utf-8"))
            assert list(doc["fingerprint"]) == ["dataset_sha256", "seed", "rho", "kappa", "norm"], command

    def test_certify_value_below_empirical_risk_exits_3(self, tmp_path, monkeypatch, capsys):
        import wasslip.robust

        real = wasslip.robust.minimize_dual

        def below(instance, table, lam_lo):
            support = instance.empirical.support
            emp = float(np.dot(instance.empirical.weights, table[np.arange(len(support)), support.ys]))
            return real(instance, table, lam_lo)._replace(value=emp - 1e-6)

        monkeypatch.setattr(wasslip.robust, "minimize_dual", below)
        doc = {"dataset": self._dataset_section(), "model": {"dims": [2, 2]}, "robust": {"rho": 0.1}}
        TestOverflowingConfigs._assert_exits_3(tmp_path, capsys, "certify", doc, "fell below the empirical risk")
        assert not (tmp_path / "out" / "certificate.json").exists()

    def test_oracle_lp_at_benchmark_scale_is_two_constraint_matrices(self, tmp_path, monkeypatch):
        """The oracle LP of CI's benchmark-scale certify: 40 atoms to 378
        targets (the 169 grid points with each of 2 labels and the 40 atoms;
        a finite kappa lets every target be reached) give 15,120 finite
        couplings, of which 872 are undominated.  The LP is 40 source
        marginal rows and the budget row over those 872 variables, sized as
        the benchmark's tracer reads an LPProblem."""
        import wasslip.robust

        problems, tables = [], []

        def spy(problem):
            problems.append(problem)
            return solve_lp(problem)

        def undominated(values, C):
            tables.append(C)
            return prune(values, C)

        solve_lp, prune = wasslip.robust.solve_lp, wasslip.robust._undominated
        monkeypatch.setattr(wasslip.robust, "solve_lp", spy)
        monkeypatch.setattr(wasslip.robust, "_undominated", undominated)
        doc = {
            "seed": 1,
            "dataset": {"generator": "gaussian-blobs", "n": 40, "k": 2, "dim": 2, "seed": 7},
            "model": {"dims": [2, 2], "init_scale": 0.6},
            "robust": {"rho": 0.1, "kappa": 1.0, "oracle_grid_side": 13},
        }
        assert main(["certify", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0
        (problem,), (C,) = problems, tables
        assert C.shape == (40, 378) and np.isfinite(C).all()
        assert len(problem.objective) == 872
        assert len(problem.eq_constraints) + len(problem.ineq_constraints) == 41
        assert problem.eq_constraints.shape == (40, 872) and problem.ineq_constraints.shape == (1, 872)

    def test_attack_sweep_bound_holds_row_wise(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 4,
                "dataset": self._dataset_section(),
                "model": {"dims": [2, 4, 2], "seed": 6, "init_scale": 0.8},
                "attack": {"epsilons": [0.01, 0.1, 0.5], "norm": "L2", "steps": 15, "restarts": 1},
            },
        )
        out = tmp_path / "out"
        assert main(["attack", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "bound_curve.csv")
        assert header == ["epsilon", "adversarial_risk", "robust_value"]
        values = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
        for eps, adv, robust in values:
            assert adv <= robust + 1e-8
        risks = [v[1] for v in values]
        assert all(b >= a - 1e-9 for a, b in zip(risks, risks[1:]))

    def test_train_command_and_curve_consistency(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "dataset": {"generator": "gaussian-blobs", "n": 30, "k": 2, "dim": 2, "seed": 11},
                "model": {"dims": [2, 4, 2], "seed": 12, "init_scale": 0.8},
                "train": {"objective": "spectral", "rho": 0.3, "epochs": 5, "learning_rate": 0.05},
            },
        )
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "train_curves.csv")
        assert header == ["epoch", "erm", "penalty", "objective", "product_bound", "young_bound"]
        for row in rows:
            assert float(row[3]) == pytest.approx(float(row[1]) + float(row[2]), abs=1e-9)
        doc = json.loads((out / "train_report.json").read_text(encoding="utf-8"))
        assert "wall_clock" not in doc
        assert doc["certificate"]["robust_value"] >= doc["certificate"]["empirical_risk"] - 1e-9
        assert (out / "model.txt").exists()

    @pytest.mark.parametrize("model_norm, train_norm", [("LINF", None), ("L2", "LINF")])
    def test_train_fingerprint_names_the_training_norm(self, tmp_path, model_norm, train_norm):
        """The fingerprint names the norm the penalty, the certificate and
        model.txt use: train.norm (default L2), not model.norm."""
        train = {"objective": "spectral", "rho": 0.0, "epochs": 2}
        if train_norm is not None:
            train["norm"] = train_norm
        cfg = write_config(
            tmp_path,
            {"seed": 5, "dataset": {**BLOBS, "n": 12}, "model": {"dims": [2, 3, 2], "norm": model_norm}, "train": train},
        )
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        used = train_norm or "L2"
        assert json.loads((out / "train_report.json").read_text(encoding="utf-8"))["fingerprint"]["norm"] == used
        assert f"norm {used}" in (out / "model.txt").read_text(encoding="utf-8").splitlines()

    def test_verify_default_suite_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 20240811,
                "verify": {
                    "strong_duality_instances": 10,
                    "envelope_points_per_dim": 17,
                    "pushforward_triples": 4,
                    "pushforward_cases": 2,
                    "adversarial_tuples": 2,
                    "chain_nets": 4,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
        assert doc["all_passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "strong_duality",
            "envelope_collapse",
            "pushforward_containment",
            "pushforward_bound",
            "adversarial_bound",
            "lipschitz_chain",
        }

    def test_verify_failure_exits_one(self, tmp_path, monkeypatch):
        from wasslip import cli as cli_module
        from wasslip.suite import VerdictRecord

        monkeypatch.setattr(
            cli_module,
            "run_verification_suite",
            lambda seed, sizes: [VerdictRecord("strong_duality", False, {"forced": True})],
        )
        cfg = write_config(tmp_path, {"seed": 1, "verify": {}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
        assert doc["all_passed"] is False

    def test_certify_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        from wasslip import cli as cli_module
        from wasslip.robust import RobustCertificate

        forced = RobustCertificate(
            0.5, 0.5, 0.0, 0.1, 1.0, 0.0, verdicts=(("robust_value_ge_empirical_risk", True), ("dual_dominates_lp_oracle", False))
        )
        monkeypatch.setattr(cli_module, "robust_certificate_for", lambda model, instance: forced)
        cfg = write_config(
            tmp_path,
            {"seed": 2, "dataset": self._dataset_section(), "model": {"dims": [2, 2]}, "robust": {"rho": 0.1, "kappa": 1.0}},
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        assert "dual_dominates_lp_oracle" in capsys.readouterr().err
        doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        assert [v["passed"] for v in doc["verdicts"]] == [True, False]

    def test_certify_constant_feature_map_is_sound(self, tmp_path):
        """Zero hidden weights with biases: lip(phi) = 0.  The certificate
        once reported the empirical risk, below its own LP oracle."""
        cfg = write_config(
            tmp_path,
            {
                "seed": 3,
                "dataset": {"generator": "gaussian-blobs", "n": 12, "k": 2, "dim": 2, "seed": 3},
                "model": {"dims": [2, 4, 2], "init_scale": 0.0},
                "robust": {"rho": 0.3, "kappa": 1.0, "oracle_grid_side": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
        assert all(v["passed"] for v in doc["verdicts"])
        assert doc["robust_value"] >= doc["oracle_value"] > doc["empirical_risk"]

    def test_certify_head_where_operator_norm_is_too_small(self, tmp_path):
        """W = [[1, 0], [-1, 0]] has ||W||_2 = sqrt(2) while its loss slopes
        reach 2: the grid LP oracle exceeds a dual floored at sqrt(2), so the
        certificate must use the floor 2."""
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,-2,0\n0,-1.5,0.3\n1,2,0\n")
        model = tmp_path / "model.txt"
        model.write_text("\n".join(["wasslip-model v1", "kind mlp", "norm L2", "layers 1", "layer 2 2 IDENTITY 0", "1,0", "-1,0"]) + "\n")
        cfg = write_config(
            tmp_path,
            {
                "seed": 0,
                "dataset": {"path": str(data)},
                "model": {"path": str(model)},
                "robust": {"rho": 0.3, "kappa": 1.0, "oracle_grid_side": 41},
            },
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "certificate.json").read_text(encoding="utf-8"))
        assert doc["lipschitz_bound_used"] >= 2.0 - 1e-12
        assert doc["robust_value"] >= doc["oracle_value"]

    def test_exit_code_2_on_bad_config(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["certify", "--config", missing]) == 2
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert main(["certify", "--config", str(bad_json)]) == 2
        unknown = write_config(tmp_path, {"seed": 1, "robust": {"rho": 0.1, "bogus": 1}})
        assert main(["certify", "--config", unknown, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda path: path.write_bytes(b"\xff\xfe{}"), "config file is not UTF-8 text: {path} (invalid start byte at byte 0)"),
            (lambda path: path.mkdir(), "config file cannot be read: {path} (Is a directory)"),
        ],
        ids=["not-utf8", "directory"],
    )
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, make, message):
        config = tmp_path / "bad.json"
        make(config)
        assert main(["certify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == message.format(path=config) + "\n"

    @pytest.mark.parametrize(
        "out, reason",
        [("taken", "File exists"), ("taken/sub", "Not a directory")],
        ids=["existing-file", "under-a-file"],
    )
    def test_out_that_is_not_a_directory_exits_2(self, tmp_path, capsys, out, reason):
        (tmp_path / "taken").write_text("a file\n", encoding="utf-8")
        cfg = write_config(tmp_path, {"seed": 1, "dataset": self._dataset_section()})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"--out cannot be used as the output directory: {tmp_path / out} ({reason})\n"

    @pytest.mark.parametrize(
        "command, section, blocked",
        [
            ("gen-data", {}, "dataset.csv"),
            ("certify", {"model": {"dims": [2, 2]}, "robust": {"rho": 0.1}}, "certificate.json"),
            ("attack", {"model": {"dims": [2, 2]}, "attack": {"epsilons": [0.1], "steps": 2, "restarts": 1}}, "bound_curve.csv"),
            ("train", {"model": {"dims": [2, 2]}, "train": {"objective": "spectral", "rho": 0.1, "epochs": 1}}, "model.txt"),
            ("gen-data", {}, "metadata.json"),
        ],
        ids=["gen-data", "certify", "attack", "train", "metadata"],
    )
    def test_unwritable_report_exits_2_naming_it(self, tmp_path, capsys, command, section, blocked):
        """A directory where a report goes is a report-write error: exit 2
        and one line, not a traceback with the exit code of a failed check."""
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        cfg = write_config(tmp_path, {"seed": 1, "dataset": self._dataset_section(), **section})
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"cannot write report: {out / blocked} (Is a directory)\n"

    def test_seed_override_changes_outputs(self, tmp_path):
        base = {"seed": 1, "dataset": self._dataset_section()}
        del base["dataset"]["seed"]  # let the master seed drive generation
        cfg = write_config(tmp_path, base)
        out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
        assert main(["gen-data", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(out3), "--seed", "99"]) == 0
        assert read_bytes(out1 / "dataset.csv") != read_bytes(out2 / "dataset.csv")
        assert read_bytes(out2 / "dataset.csv") == read_bytes(out3 / "dataset.csv")

    def test_model_file_reuse(self, tmp_path):
        train_cfg = write_config(
            tmp_path,
            {
                "seed": 6,
                "dataset": {"generator": "gaussian-blobs", "n": 20, "k": 2, "dim": 2, "seed": 13},
                "model": {"dims": [2, 2], "seed": 14},
                "train": {"objective": "product", "rho": 0.1, "epochs": 3, "learning_rate": 0.1},
            },
            name="train.json",
        )
        out = tmp_path / "trained"
        assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
        cert_cfg = write_config(
            tmp_path,
            {
                "seed": 6,
                "dataset": {"generator": "gaussian-blobs", "n": 20, "k": 2, "dim": 2, "seed": 13},
                "model": {"path": str(out / "model.txt")},
                "robust": {"rho": 0.1, "kappa": "inf"},
            },
            name="cert.json",
        )
        out2 = tmp_path / "cert"
        assert main(["certify", "--config", cert_cfg, "--out", str(out2)]) == 0
        doc = json.loads((out2 / "certificate.json").read_text(encoding="utf-8"))
        assert doc["kappa"] == "inf"


BLOBS = {"generator": "gaussian-blobs", "n": 6, "k": 2, "dim": 2, "seed": 9}


class TestBadConfigs:
    """Bad configs, including those whose fault shows only against the model
    or the data: exit 2 naming the field, never a traceback."""

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("attack", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "attack": {"epsilons": [0.1], "kappa": 0}}, "attack.kappa"),
            ("attack", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "attack": {"epsilons": [math.inf]}}, "attack.epsilons"),
            ("train", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "train": {"objective": "product", "rho": 0.1, "epochs": 1, "kappa": 0}}, "train.kappa"),
            ("gen-data", {"dataset": {**BLOBS, "n": 3, "k": 4}}, "dataset.n"),
            ("gen-data", {"dataset": {"generator": "grid", "n": 24, "k": 2, "dim": 2}}, "dataset.n"),
            ("gen-data", {"dataset": {"generator": "two-moons", "n": 10, "k": 2, "dim": 3}}, "dataset.dim"),
            ("gen-data", {"dataset": {"generator": "two-moons", "n": 10, "k": 3, "dim": 2}}, "dataset.k"),
            ("certify", {"dataset": {"generator": "grid", "n": 7, "k": 2, "dim": 3}, "model": {"dims": [3, 2]}, "robust": {"rho": 0.1}}, "dataset.n"),
            ("train", {"dataset": BLOBS, "model": {"dims": [2, 3, 2]}, "train": {"objective": "dual_linear", "rho": 0.1, "epochs": 1}}, "train.objective"),
            ("train", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "train": {"objective": "dual_linear", "rho": 0.1, "epochs": 1}}, "train.objective"),
            ("attack", {"dataset": {**BLOBS, "dim": 3}, "model": {"dims": [3, 2]}, "attack": {"epsilons": [0.1], "method": "GRID"}}, "attack.method"),
            ("train", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "train": {"objective": "spectral", "rho": 0.1, "norm": "L1"}}, "train.norm"),
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "robust": {"rho": 0.3, "bound_mode": "operator"}}, "robust.bound_mode"),
            ("attack", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "attack": {"epsilons": [0.1], "bound_mode": "certified"}}, "attack.bound_mode"),
            ("train", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "train": {"objective": "product", "rho": 0.1, "bound_mode": "operator"}}, "train.bound_mode"),
            ("verify", {"verify": {"envelope_points_per_dim": 1}}, "verify.envelope_points_per_dim"),
            ("gen-data", {"dataset": {**BLOBS, "n": 10**19}}, "dataset.n"),
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 10**19, 2]}, "robust": {"rho": 0.1}}, "model.dims"),
            ("verify", {"verify": {"strong_duality_instances": 10**19}}, "verify.strong_duality_instances"),
        ],
        ids=[
            "attack-kappa-0",
            "attack-epsilon-inf",
            "train-kappa-0",
            "n-below-k",
            "grid-not-a-power",
            "two-moons-dim-3",
            "two-moons-k-3",
            "certify-grid-not-a-power",
            "dual-linear-two-layers",
            "dual-linear-one-layer",
            "grid-attack-3d",
            "train-norm-l1",
            "robust-bound-mode",
            "attack-bound-mode",
            "train-bound-mode",
            "envelope-one-point",
            "n-past-int64",
            "dims-past-int64",
            "verify-size-past-int64",
        ],
    )
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, doc, field):
        cfg = write_config(tmp_path, {"seed": 1, **doc})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"config error at {field}:" in err

    def test_envelope_points_per_dim_two_is_accepted(self):
        assert validate_config({"seed": 1, "verify": {"envelope_points_per_dim": 2}})["verify"] == {"envelope_points_per_dim": 2}


class TestOverflowingConfigs:
    """Finite config values whose arithmetic overflows: exit 3 with one
    `numerical failure:` line, no traceback and no numpy warning."""

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "robust": {"rho": 1e308}}, "the robust value overflows at rho 1e+308"),
            ("attack", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "attack": {"epsilons": [1e308]}}, "the attack at epsilon 1e+308 leaves the floating-point range"),
            ("attack", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "attack": {"epsilons": [1e160], "norm": "L2"}}, "the attack at epsilon 1e+160 leaves the floating-point range"),
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 2], "init_scale": 1e308}, "robust": {"rho": 0.1}}, "loss is non-finite at support index 0"),
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 1024, 2], "init_scale": 1e308}, "robust": {"rho": 0.1}}, "scale 1e+308 overflows the weights of layer 0"),
            ("train", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "train": {"objective": "spectral", "rho": 0.1, "learning_rate": 1e308, "epochs": 3}}, "training overflowed"),
            ("gen-data", {"dataset": {**BLOBS, "n": 40, "std": 1e308}}, "gaussian-blobs coordinates overflow"),
            ("gen-data", {"dataset": {"generator": "grid", "n": 9, "k": 2, "dim": 2, "lo": 1e308, "hi": -1e308}}, "grid coordinates overflow"),
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "robust": {"rho": 1e308, "oracle_grid_side": 3}}, "the oracle grid overflows at rho 1e+308"),
            # label costs of 1e100 and 1e308 break the oracle LP's simplex; over
            # every finite coupling these LPs reach the guards inside the simplex
            # (test_numerics' TestSimplexGuards), over the undominated ones the
            # primal check of the point it returns
            ("certify", {"dataset": {**BLOBS, "seed": 2}, "model": {"dims": [2, 2]}, "robust": {"rho": 0.5, "kappa": 1e100, "oracle_grid_side": 2}}, "inequality constraint violated beyond tolerance"),
            ("certify", {"dataset": {**BLOBS, "n": 12, "seed": 1}, "model": {"dims": [2, 2]}, "robust": {"rho": 0.5, "kappa": 1e100, "oracle_grid_side": 2}}, "inequality constraint violated beyond tolerance"),
            ("certify", {"dataset": {**BLOBS, "std": 0}, "model": {"dims": [2, 2]}, "robust": {"rho": 0.1, "kappa": 1e308, "oracle_grid_side": 2}}, "inequality constraint violated beyond tolerance"),
            # more bytes than any address space: the allocation fails at once
            ("gen-data", {"dataset": {**BLOBS, "n": 10**17}}, "out of memory"),
            # grid sizes whose axis alone needs more bytes than any address space
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "robust": {"rho": 0.1, "oracle_grid_side": 2**63 - 1}}, "out of memory"),
            ("attack", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "attack": {"epsilons": [0.1], "method": "GRID", "grid_points": 2**63 - 1}}, "out of memory"),
            ("verify", {"verify": {"envelope_points_per_dim": 2**63 - 1}}, "out of memory"),
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "robust": {"rho": 0.1, "oracle_grid_side": 2**60 - 1}}, "out of memory"),
            # sizes whose arrays need more bytes than any address space: the
            # check before the allocation raises, where numpy's is a ValueError
            ("gen-data", {"dataset": {**BLOBS, "n": 2**63 - 1}}, "out of memory (Unable to allocate the coordinates"),
            ("gen-data", {"dataset": {**BLOBS, "n": 2**63 - 1, "k": 2**63 - 1}}, "out of memory (Unable to allocate the coordinates"),
            ("gen-data", {"dataset": {**BLOBS, "dim": 2**63 - 1}}, "out of memory (Unable to allocate the coordinates"),
            ("certify", {"dataset": BLOBS, "model": {"dims": [2, 2**63 - 1, 2]}, "robust": {"rho": 0.1}}, "out of memory (Unable to allocate the weights of layer 0"),
            ("attack", {"dataset": BLOBS, "model": {"dims": [2, 2]}, "attack": {"epsilons": [0.1], "restarts": 2**63 - 1}}, "out of memory (Unable to allocate the restart draws"),
        ],
        ids=[
            "certify-rho",
            "attack-epsilon",
            "attack-l2-norm-squares",
            "certify-init-scale",
            "init-scale-weights",
            "train-learning-rate",
            "blobs-std",
            "grid-extent",
            "oracle-grid-rho",
            "oracle-kappa-1e100-refactorization",
            "oracle-kappa-1e100-phase-2",
            "oracle-kappa-1e308",
            "out-of-memory",
            "oracle-grid-side-out-of-memory",
            "grid-points-out-of-memory",
            "envelope-points-out-of-memory",
            "oracle-grid-side-2-60-out-of-memory",
            "dataset-n-out-of-memory",
            "dataset-k-out-of-memory",
            "dataset-dim-out-of-memory",
            "model-dims-out-of-memory",
            "attack-restarts-out-of-memory",
        ],
    )
    def test_exits_3_with_one_line(self, tmp_path, capsys, command, doc, message):
        self._assert_exits_3(tmp_path, capsys, command, doc, message)

    def test_oracle_distance_overflow_exits_3(self, tmp_path, capsys):
        # L2 distances between points at +-1e200 overflow; the model's small
        # weights keep the losses and the spectral norm finite
        data = tmp_path / "far.csv"
        data.write_text("label,x0,x1\n0,1e200,1e200\n1,-1e200,-1e200\n0,1e200,-1e200\n1,-1e200,1e200\n")
        doc = {"dataset": {"path": str(data)}, "model": {"dims": [2, 2], "init_scale": 1e-60}, "robust": {"rho": 0.1, "oracle_grid_side": 3}}
        self._assert_exits_3(tmp_path, capsys, "certify", doc, "the L2 distance from source 0 to target 0 overflows")

    @staticmethod
    def _assert_exits_3(tmp_path, capsys, command, doc, message):
        cfg = write_config(tmp_path, {"seed": 1, **doc})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert message in lines[0]


@pytest.mark.parametrize("scale", [1e80, 1e-155], ids=["certify-init-scale-1e80", "certify-init-scale-1e-155"])
def test_huge_and_tiny_weights_certify(tmp_path, capsys, scale):
    """Weights whose squares leave the double range still get a finite
    certificate, with the lambda floor of the same weights at scale 1 times
    the scale."""
    certs = []
    for s in (1.0, scale):
        cfg = write_config(tmp_path, {"seed": 1, "dataset": BLOBS, "model": {"dims": [2, 2], "init_scale": s}, "robust": {"rho": 0.1}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", "--config", cfg, "--out", str(tmp_path / str(s))]) == 0
        assert capsys.readouterr().err == ""
        certs.append(json.loads((tmp_path / str(s) / "certificate.json").read_text(encoding="utf-8")))
    for key in ("empirical_risk", "robust_value", "lambda_star", "lipschitz_bound_used"):
        assert math.isfinite(certs[1][key])
    assert certs[1]["lipschitz_bound_used"] == pytest.approx(scale * certs[0]["lipschitz_bound_used"], rel=1e-12)


FUZZ_MODEL = {"dims": [2, 3, 2], "activation": "RELU", "bias": True, "init_scale": 1.0, "norm": "L2", "seed": 5}
FUZZ_BASES = {
    "gen-data": {"seed": 1, "output_dir": "unused", "dataset": {**BLOBS, "std": 0.6}},
    "certify": {"seed": 1, "dataset": BLOBS, "model": FUZZ_MODEL, "robust": {"rho": 0.1, "kappa": 1.0, "oracle_grid_side": 2}},
    "attack": {
        "seed": 1,
        "dataset": BLOBS,
        "model": FUZZ_MODEL,
        "attack": {"epsilons": [0.1, 0.5], "norm": "L2", "method": "PGD", "steps": 3, "step_size": 0.05, "restarts": 1, "grid_points": 5, "kappa": 1.0},
    },
    "train": {
        "seed": 1,
        "dataset": BLOBS,
        "model": FUZZ_MODEL,
        "train": {"objective": "spectral", "rho": 0.1, "kappa": 1.0, "learning_rate": 0.1, "epochs": 3, "batch_size": 4, "momentum": 0.5, "layer_cap": 2.0, "norm": "L2"},
    },
}
# keys a base leaves out that a replacement may still add
FUZZ_EXTRA_KEYS = {"dataset": ("noise", "lo", "hi", "path"), "model": ("path",)}
FUZZ_NAMES = ("gaussian-blobs", "two-moons", "grid", "L1", "L2", "LINF", "PGD", "FGSM", "GRID", "RELU", "TANH", "product", "spectral", "nope")
FUZZ_VALUES = (None, True, False, -1, 0, 1, 2, 3, 10**19, 0.0, 0.5, -0.5, 1e-300, 1e-12, 1e12, 1e154, 1e200, 1e308, -1e308)
FUZZ_VALUES += ("inf", math.nan, math.inf, *FUZZ_NAMES, [], [0.1], [2, 2], {})


@st.composite
def fuzzed_configs(draw):
    """A small valid config of one command with one or two keys replaced."""
    command = draw(st.sampled_from(sorted(FUZZ_BASES)))
    doc = json.loads(json.dumps(FUZZ_BASES[command]))
    paths = [(key,) for key in doc]
    paths += [(key, sub) for key, section in doc.items() if isinstance(section, dict) for sub in (*section, *FUZZ_EXTRA_KEYS.get(key, ()))]
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
        parent = doc if len(path) == 1 else doc.get(path[0])
        if isinstance(parent, dict):  # the first replacement may have replaced the section
            parent[path[-1]] = json.loads(json.dumps(draw(st.sampled_from(FUZZ_VALUES))))
    return command, doc


FUZZ_DATASET = b"label,x0,x1\n0,0.5,1.0\n1,1.5,-1.0\n0,0.25,0.75\n1,1.25,-0.5\n0,-0.5,0.5\n1,2.0,-1.5\n"
FUZZ_MODEL_FILE = "\n".join(
    [
        "wasslip-model v1",
        "kind mlp",
        "norm L2",
        "layers 2",
        "layer 3 2 RELU 1",
        "0.5,-0.5",
        "-0.25,0.75",
        "0.125,-0.2",
        "0.05,0.1,-0.05",
        "layer 2 3 IDENTITY 1",
        "-0.9,0.1,0.4",
        "0.25,0.3,-0.1",
        "0.2,-0.1",
        "",
    ]
).encode()
FUZZ_INSERTS = tuple(t.encode() for t in ("0", "7", ",", "\n", "nan", "1e999", "_", "\u0660", "layers 3", "kind linear"))
FUZZ_FILE_COMMANDS = {
    "certify": {"robust": {"rho": 0.1}},
    "certify-oracle": {"robust": {"rho": 0.1, "oracle_grid_side": 3}},
    "attack": {"attack": {"epsilons": [0.1], "steps": 2, "restarts": 1}},
    "train": {"train": {"objective": "spectral", "rho": 0.1, "epochs": 2}},
}


@st.composite
def mutated_input_files(draw):
    """A command, and the valid dataset CSV and model file with one of them
    cut or spliced: byte deletions, a truncation or inserted tokens."""
    command = draw(st.sampled_from(sorted(FUZZ_FILE_COMMANDS)))
    files = {"dataset": FUZZ_DATASET, "model": FUZZ_MODEL_FILE}
    target = draw(st.sampled_from(sorted(files)))
    data = files[target]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("delete", "truncate", "insert")))
        if edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 3)) :]
        elif edit == "truncate":
            data = data[:at]
        else:
            data = data[:at] + draw(st.sampled_from(FUZZ_INSERTS)) + data[at:]
    files[target] = data
    return command, files


class TestFailureContract:
    """Whatever a config or an input file holds, a command succeeds, or
    exits 2 (config or input error) or 3 (numerical failure); it never
    raises and never warns."""

    @given(fuzzed_configs())
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_replaced_keys_exit_0_2_or_3(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), doc)
            with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)

    @given(mutated_input_files())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mutated_input_files_exit_0_2_or_3(self, case):
        """A non-zero exit prints exactly one line on stderr."""
        command, files = case
        with tempfile.TemporaryDirectory() as tmp:
            data, model = Path(tmp) / "data.csv", Path(tmp) / "model.txt"
            data.write_bytes(files["dataset"])
            model.write_bytes(files["model"])
            doc = {"seed": 1, "dataset": {"path": str(data)}, "model": {"path": str(model)}, **FUZZ_FILE_COMMANDS[command]}
            cfg = write_config(Path(tmp), doc)
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([command.split("-")[0], "--config", cfg, "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        assert code == 0 or len(err.getvalue().splitlines()) == 1, err.getvalue()


class TestBadInputFiles:
    """A malformed dataset CSV or model file is an input error: exit code 2
    and a message naming the file and line, never a traceback."""

    def _certify(self, tmp_path, capsys, dataset, model=None):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "dataset": {"path": str(dataset)},
                "model": {"path": str(model)} if model else {"dims": [2, 2], "seed": 4},
                "robust": {"rho": 0.1},
            },
        )
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize(
        "row, what",
        [
            ("1,nan,0.5", "non-finite"),
            ("1,0.5,inf", "non-finite"),
            ("1,0.5", "expected 3 fields"),
            ("1,0.5,0.5,2.0", "expected 3 fields"),
            ("1.5,0.5,0.5", "not an integer"),
            ("-1,0.5,0.5", "outside"),
            ("99999999999999999999,1.5,-1.0", "outside"),
            ("0,abc,0.5", "not a number"),
            ("1_0,0.5,0.5", "no '_'"),
            ("0,0.5,١٢", "ASCII characters only"),
        ],
    )
    def test_bad_dataset_row_exits_2_naming_file_and_line(self, tmp_path, capsys, row, what):
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,0.5,1.0\n\n" + row + "\n1,1.5,-1.0\n")
        code, err = self._certify(tmp_path, capsys, data)
        assert code == 2
        assert f"{data}:4:" in err and what in err

    @pytest.mark.parametrize(
        "text, what",
        [
            ("label,x0\n0,1\u20280,2\n", "expected 2 fields, got 3"),
            ("label,x0\n0,1\x0cabc,2\n", "expected 2 fields, got 3"),
        ],
        ids=["line-separator", "form-feed"],
    )
    def test_line_breaks_only_at_newline(self, tmp_path, capsys, text, what):
        """A U+2028 or a form feed inside a row does not end the line: the
        row keeps its extra field and the error names line 2, as an editor
        counts it."""
        data = tmp_path / "data.csv"
        data.write_text(text, encoding="utf-8")
        code, err = self._certify(tmp_path, capsys, data)
        assert code == 2
        assert f"{data}:2: {what}" in err

    @pytest.mark.parametrize("brk", ["\u2028", "\x0c"], ids=["line-separator", "form-feed"])
    def test_model_line_breaks_only_at_newline(self, tmp_path, capsys, brk):
        """A U+2028 or a form feed inside a weight row does not split it into
        two rows: the 7-line `kind linear` file fails at line 6."""
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,0.5,1.0\n1,1.5,-1.0\n")
        model = tmp_path / "model.txt"
        lines = ["wasslip-model v1", "kind linear", "norm L2", "layers 1", "layer 2 2 IDENTITY 1"]
        model.write_text("\n".join(lines + [f"0.75,-0.5{brk}-0.25,1.125", "0.125,-0.0625"]) + "\n", encoding="utf-8")
        code, err = self._certify(tmp_path, capsys, data, model)
        assert code == 2
        assert f"{model}:6: expected 2 finite comma-separated numbers" in err

    @pytest.mark.parametrize(
        "index, text, line, what",
        [
            (5, "0.75,1_0", 6, "a number may hold ASCII characters only and no '_'"),
            (5, "0.75,\u0661\u0662", 6, "a number may hold ASCII characters only and no '_'"),
            (3, "layers 1\u0660", 4, "expected 'layers' and a positive count"),
            (4, "layer 2 2\u0660 IDENTITY 0", 5, "expected 'layer ROWS COLS ACTIVATION 0|1'"),
        ],
        ids=["underscore", "arabic-indic-weight", "arabic-indic-layers", "arabic-indic-layer"],
    )
    def test_model_numbers_follow_the_dataset_grammar(self, tmp_path, capsys, index, text, line, what):
        """int() and float() read '1_0' and Arabic-Indic digits, and the
        regex \\d matches the latter; a model file holds neither."""
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,0.5,1.0\n1,1.5,-1.0\n")
        model = tmp_path / "model.txt"
        lines = ["wasslip-model v1", "kind mlp", "norm L2", "layers 1", "layer 2 2 IDENTITY 0", "0.75,-0.5", "-0.25,1.125"]
        lines[index] = text
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = self._certify(tmp_path, capsys, data, model)
        assert code == 2
        assert f"{model}:{line}: {what}" in err

    @pytest.mark.parametrize("text", ["", "x0,label\n0.5,1\n", "label,x0,x1\n"])
    def test_empty_or_headless_dataset_exits_2(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code, err = self._certify(tmp_path, capsys, data)
        assert code == 2 and str(data) in err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code, err = self._certify(tmp_path, capsys, tmp_path / "nope.csv")
        assert code == 2 and "nope.csv" in err

    def test_bad_model_file_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,0.5,1.0\n1,1.5,-1.0\n")
        model = tmp_path / "model.txt"
        model.write_text("wasslip-model v1\nkind linear\nnorm L2\nlayers 1\nlayer 2 2 IDENTITY 0\n1.0,0.0\n")
        code, err = self._certify(tmp_path, capsys, data, model)
        assert code == 2
        assert f"{model}:7: unexpected end of file" in err

    @pytest.mark.parametrize("command", ["certify", "attack"])
    @pytest.mark.parametrize(
        "layer, rows, what",
        [
            ("layer 2 3 IDENTITY 0", ["1.0,0.0,0.5", "0.0,1.0,0.5"], "input dimension 3 must equal the data dimension 2"),
            ("layer 3 2 IDENTITY 0", ["1.0,0.0", "0.0,1.0", "0.5,0.5"], "label count 3 must equal the data's label count 2"),
        ],
        ids=["input-dim", "label-count"],
    )
    def test_model_shape_off_the_dataset_exits_2(self, tmp_path, capsys, command, layer, rows, what):
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,0.5,1.0\n1,1.5,-1.0\n")
        model = tmp_path / "model.txt"
        model.write_text("\n".join(["wasslip-model v1", "kind linear", "norm L2", "layers 1", layer, *rows]) + "\n")
        section = {"robust": {"rho": 0.1}} if command == "certify" else {"attack": {"epsilons": [0.1], "steps": 2}}
        cfg = write_config(tmp_path, {"seed": 1, "dataset": {"path": str(data)}, "model": {"path": str(model)}, **section})
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"config error at model.path: {what}" in err

    def test_two_layer_kind_linear_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,0.5,1.0\n1,1.5,-1.0\n")
        model = tmp_path / "model.txt"
        layers = ["layer 2 2 RELU 0", "1.0,0.0", "0.0,1.0", "layer 2 2 IDENTITY 0", "1.0,0.0", "0.0,1.0"]
        model.write_text("\n".join(["wasslip-model v1", "kind linear", "norm L2", "layers 2", *layers]) + "\n")
        code, err = self._certify(tmp_path, capsys, data, model)
        assert code == 2
        assert f"{model}:4: kind linear needs exactly one layer, got 2" in err


class TestLinearModelFiles:
    """A `kind linear` file is read as the one-layer MLP: it certifies to the
    same bytes as the `kind mlp` file with the same weights."""

    LINEAR = [
        "wasslip-model v1",
        "kind linear",
        "norm L2",
        "layers 1",
        "layer 2 2 IDENTITY 1",
        "0.75,-0.5",
        "-0.25,1.125",
        "0.125,-0.0625",
    ]

    def _certificate(self, tmp_path, kind, doc):
        model = tmp_path / f"{kind}.txt"
        model.write_text("\n".join([self.LINEAR[0], f"kind {kind}", *self.LINEAR[2:]]) + "\n")
        cfg = write_config(tmp_path, {**doc, "model": {"path": str(model)}}, name=f"{kind}.json")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / kind)]) == 0
        return read_bytes(tmp_path / kind / "certificate.json")

    # sha256 of certificate.json, recorded when linear models still had a
    # model type and a certificate route of their own (kappa-inf: recorded on
    # the last commit that offered a second loss constant, with the default);
    # re-recorded when the certificate dropped its objective_decomposition
    # verdict and its fingerprint the constant bound_mode, with no number moved;
    # and when the L2 operator norm became an upper bound from one SVD, which
    # raised the certificate's floor in its last bits
    @pytest.mark.parametrize(
        "robust, digest",
        [
            ({"rho": 0.2, "kappa": 1.0, "oracle_grid_side": 5}, "b546cf1eb15b86af1bb68fdcd4f81748c6910a091feeb089dc42b777db1526d3"),
            ({"rho": 0.3}, "13b4023af994bb84ad23f8d8ec877cae457916cabb7582293c8eda558b9d253c"),
        ],
        ids=["oracle", "kappa-inf"],
    )
    def test_kind_linear_and_one_layer_mlp_certify_identically(self, tmp_path, robust, digest):
        doc = {"seed": 2, "dataset": {"generator": "gaussian-blobs", "n": 12, "k": 2, "dim": 2, "seed": 5}, "robust": robust}
        linear = self._certificate(tmp_path, "linear", doc)
        assert linear == self._certificate(tmp_path, "mlp", doc)
        assert hashlib.sha256(linear).hexdigest() == digest


class TestDeterminism:
    def _run_twice(self, tmp_path, command, doc):
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main([command, "--config", cfg, "--out", str(out1)]) == 0
        assert main([command, "--config", cfg, "--out", str(out2)]) == 0
        names1 = sorted(p.name for p in out1.iterdir() if p.name != "metadata.json")
        names2 = sorted(p.name for p in out2.iterdir() if p.name != "metadata.json")
        assert names1 == names2
        for name in names1:
            assert read_bytes(out1 / name) == read_bytes(out2 / name), name

    def test_certify_byte_identical(self, tmp_path):
        self._run_twice(
            tmp_path,
            "certify",
            {
                "seed": 7,
                "dataset": {"generator": "two-moons", "n": 10, "k": 2, "dim": 2, "seed": 3},
                "model": {"dims": [2, 2], "seed": 8, "init_scale": 0.6},
                "robust": {"rho": 0.15, "kappa": 2.0, "oracle_grid_side": 5},
            },
        )

    def test_attack_byte_identical(self, tmp_path):
        self._run_twice(
            tmp_path,
            "attack",
            {
                "seed": 8,
                "dataset": {"generator": "gaussian-blobs", "n": 5, "k": 2, "dim": 2, "seed": 2},
                "model": {"dims": [2, 2], "seed": 1},
                "attack": {"epsilons": [0.05, 0.2], "norm": "LINF", "steps": 10, "restarts": 1},
            },
        )

    def test_train_byte_identical(self, tmp_path):
        self._run_twice(
            tmp_path,
            "train",
            {
                "seed": 9,
                "dataset": {"generator": "gaussian-blobs", "n": 16, "k": 2, "dim": 2, "seed": 4},
                "model": {"dims": [2, 3, 2], "seed": 5},
                "train": {"objective": "product", "rho": 0.2, "epochs": 3, "learning_rate": 0.05},
            },
        )
