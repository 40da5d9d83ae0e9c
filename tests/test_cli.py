import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from capfed import dp, synth
from capfed.cli import (
    EMBEDDINGS_MAGIC,
    load_unit_embeddings,
    main,
    parse_config,
    read_embeddings,
)
from capfed.errors import ValidationError
from capfed.geometry import normalize_rows, occupancy_ratio, sample_uniform_directions


def write_embeddings_csv(path, arr: np.ndarray) -> None:
    """CSV embeddings: first line 'n,d', then one row of decimals per vector.

    Values are stored at float32 precision with shortest round-trip decimals.
    """
    arr32 = np.asarray(arr, dtype=np.float32)
    lines = [f"{arr32.shape[0]},{arr32.shape[1]}"]
    for row in arr32:
        lines.append(",".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_embeddings_binary(path, arr: np.ndarray) -> None:
    """Binary embeddings: magic 'DPLC', n and d as uint32 LE, float32 LE rows."""
    arr32 = np.ascontiguousarray(np.asarray(arr, dtype="<f4"))
    header = EMBEDDINGS_MAGIC + struct.pack("<II", arr32.shape[0], arr32.shape[1])
    Path(path).write_bytes(header + arr32.tobytes())


class TestParseConfig:
    def test_all_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg.seed == 0
        assert cfg.fed_config.clustering_params.rho == 1.3
        assert cfg.fed_config.clustering_params.min_cluster_size == 512
        assert cfg.fed_config.clustering_params.max_queries == 1
        assert cfg.fed_config.clustering_params.budget.epsilon == 1.0
        assert cfg.fed_config.clustering_params.budget.delta == 5e-5
        assert cfg.fed_config.rounds == 10
        assert cfg.fed_config.loss.scale == 64.0

    def test_default_echo(self):
        # Every key with its exact default and type: the echo is part of every output file.
        expected = {
            "seed": 0,
            "synth.clients": 4,
            "synth.ids_per_client": 64,
            "synth.samples_per_identity": 8,
            "synth.embed_dim": 32,
            "synth.input_dim": 48,
            "synth.concentration": 64.0,
            "dplc.rho": 1.3,
            "dplc.min_cluster_size": 512,
            "dplc.max_queries": 1,
            "dp.epsilon": 1.0,
            "dp.delta": 5e-5,
            "loss.scale": 64.0,
            "loss.margin": 0.35,
            "fed.rounds": 10,
            "fed.mode": "phi-hat",
            "fed.learning_rate": 0.1,
            "fed.weight_decay": 5e-4,
            "fed.batch_size": 64,
            "fed.local_epochs": 1,
            "fed.offline_probability": 0.0,
            "eval.positives": 1000,
            "eval.negatives": 1000,
            "eval.far_targets": [0.01],
        }
        resolved = parse_config(None).resolved
        assert resolved == expected
        assert {k: type(v) for k, v in resolved.items()} == {
            k: type(v) for k, v in expected.items()
        }

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n\n")
        cfg = parse_config(str(path))
        assert cfg.resolved == parse_config(None).resolved

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dplc.rho = 1.4\nseed = 9\n")
        cfg = parse_config(str(path), {"dplc.rho": "1.2"})
        assert cfg.fed_config.clustering_params.rho == 1.2
        assert cfg.seed == 9

    def test_rho_validation_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dplc.rho = 2.0\n")
        with pytest.raises(ValidationError) as err:
            parse_config(str(path))
        assert "dplc" in str(err.value)

    def test_first_bad_section_in_build_order(self, tmp_path):
        path = tmp_path / "bad.cfg"
        lines = ["fed.rounds = 0", "synth.clients = 0", "loss.scale = 0", "dplc.rho = 2.0",
                 "dp.epsilon = 0"]
        for prefix in ("dp", "dplc", "loss", "synth", "fed"):
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValidationError, match=f"^{prefix}: "):
                parse_config(str(path))
            lines.pop()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dplc.rhoo = 1.0\n")
        with pytest.raises(ValidationError) as err:
            parse_config(str(path))
        assert "dplc.rhoo" in str(err.value)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValidationError, match="bad.cfg:1: expected 'key = value', got 'just"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="^config file not found: /nonexistent/path"):
            parse_config("/nonexistent/path.cfg")

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("fed.rounds = many\n")
        with pytest.raises(ValidationError) as err:
            parse_config(str(path))
        assert "fed.rounds" in str(err.value)

    def test_key_set_twice_names_both_lines(self, tmp_path, capsys):
        # the later line would change the budget unannounced; a flag for the key does not hide it
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(SIM_CONFIG + "dp.epsilon = 1.0\n# a later edit\ndp.epsilon = 8.0\n")
        twice = r"twice\.cfg: dp\.epsilon is set twice, on lines 11 and 13$"
        with pytest.raises(ValidationError, match=twice):
            parse_config(str(cfg), {"dp.epsilon": "2.0"})
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        assert "dp.epsilon is set twice" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_far_target_list(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eval.far_targets = 0.01,0.001\n")
        cfg = parse_config(str(path))
        assert cfg.fed_config.far_targets == (0.01, 0.001)


SIM_CONFIG = (
    "synth.clients = 2\nsynth.ids_per_client = 8\nsynth.samples_per_identity = 4\n"
    "synth.embed_dim = 8\nsynth.input_dim = 10\ndplc.min_cluster_size = 1\n"
    "fed.batch_size = 16\neval.positives = 30\neval.negatives = 30\neval.far_targets = 0.1\n"
)


class TestFlagsEcho:
    """Each flag sets its config key; an output flag sets only where the output goes."""

    def test_simulate(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        flags = [
            "--config", str(cfg), "--mode", "phi-p", "--seed", "3", "--rounds", "1",
            "--rho", "1.2", "--eps", "2", "--offline-probability", "0.25",
        ]
        expected = parse_config(
            str(cfg),
            {"fed.mode": "phi-p", "seed": 3, "fed.rounds": 1, "dplc.rho": 1.2,
             "dp.epsilon": 2.0, "fed.offline_probability": 0.25},
        ).resolved
        assert "out_dir" not in expected
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        # an absolute --out-dir, a relative one, and the default: the working directory
        written = []
        for out_flag, out_dir in (
            (["--out-dir", str(tmp_path / "a")], tmp_path / "a"),
            (["--out-dir", "b"], tmp_path / "cwd" / "b"),
            ([], tmp_path / "cwd"),
        ):
            assert main(["simulate"] + flags + out_flag) == 0
            assert json.loads(capsys.readouterr().out)["out_dir"] == str(out_dir)
            files = [out_dir / "phi_p_rounds.jsonl", out_dir / "phi_p_summary.json"]
            header = json.loads(files[0].read_text().splitlines()[0])
            assert header["config"] == expected
            assert json.loads(files[1].read_text())["config"] == expected
            written.append([f.read_bytes() for f in files])
        # where the files go is not part of them
        assert written[0] == written[1] == written[2]

    def test_cluster(self, tmp_path, capsys):
        emb = tmp_path / "centers.csv"
        write_embeddings_csv(emb, sample_uniform_directions(30, 4, np.random.default_rng(7)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fed.rounds = 2\ndplc.rho = 1.0\n")
        out = tmp_path / "clusters.json"
        argv = [
            "cluster", "--config", str(cfg), "--embeddings", str(emb), "--out", str(out),
            "--rho", "1.1", "--min-size", "3", "--max-queries", "2", "--eps", "0.5",
            "--delta", "1e-6", "--seed", "8", "--mode", "noise_free",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()
        payload = json.loads(out.read_text())
        expected = parse_config(
            str(cfg),
            {"dplc.rho": 1.1, "dplc.min_cluster_size": 3, "dplc.max_queries": 2,
             "dp.epsilon": 0.5, "dp.delta": 1e-6, "seed": 8},
        ).resolved
        assert (expected["fed.rounds"], expected["dplc.rho"]) == (2, 1.1)  # the flag wins
        assert payload["config"] == expected
        assert (payload["mode"], payload["seed"]) == ("noise_free", 8)

    def test_calibrate(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dplc.rho = 1.0\n")
        out = tmp_path / "calibrate.json"
        argv = [
            "calibrate", "--config", str(cfg), "--out", str(out),
            "--size", "16", "--rho", "0.9", "--eps", "3", "--delta", "1e-7",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()
        payload = json.loads(out.read_text())
        expected = parse_config(
            str(cfg), {"dplc.rho": 0.9, "dp.epsilon": 3.0, "dp.delta": 1e-7}
        ).resolved
        assert expected["dplc.rho"] == 0.9  # the flag wins over the file
        assert payload["config"] == expected
        assert payload["inputs"] == {"size": 16, "rho": 0.9, "epsilon": 3.0, "delta": 1e-7}


class TestEmbeddingsFiles:
    def test_csv_round_trip_float32_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((17, 5)) * np.logspace(-6, 3, 5)
        path = tmp_path / "emb.csv"
        write_embeddings_csv(path, arr)
        back = read_embeddings(path)
        np.testing.assert_array_equal(back, arr.astype(np.float32).astype(float))
        header = path.read_text().splitlines()[0]
        assert header == "17,5"

    def test_load_unit_embeddings_warns_and_normalizes(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((12, 6))
        unit_path, raw_path = tmp_path / "unit.dplc", tmp_path / "raw.dplc"
        write_embeddings_binary(unit_path, normalize_rows(arr))
        write_embeddings_binary(raw_path, 3.0 * arr)
        back = load_unit_embeddings(unit_path)
        assert "warning" not in capsys.readouterr().err
        np.testing.assert_allclose(np.linalg.norm(back, axis=1), 1.0, atol=1e-12)
        raw = read_embeddings(raw_path)
        assert load_unit_embeddings(raw_path).tobytes() == normalize_rows(raw).tobytes()
        assert "rows are not unit norm" in capsys.readouterr().err
        arr[4] = 0.0
        write_embeddings_binary(raw_path, arr)
        with pytest.raises(ValidationError, match="row 4 has norm 0"):
            load_unit_embeddings(raw_path)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((9, 16))
        path = tmp_path / "emb.dplc"
        write_embeddings_binary(path, arr)
        assert path.read_bytes()[:4] == b"DPLC"
        back = read_embeddings(path)
        np.testing.assert_array_equal(back, arr.astype(np.float32).astype(float))

    def test_csv_binary_agree(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((6, 4))
        write_embeddings_csv(tmp_path / "a.csv", arr)
        write_embeddings_binary(tmp_path / "a.bin", arr)
        np.testing.assert_array_equal(
            read_embeddings(tmp_path / "a.csv"), read_embeddings(tmp_path / "a.bin")
        )

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"DPLC" + b"\x05\x00\x00\x00\x03\x00\x00\x00" + b"\x00" * 7)
        with pytest.raises(ValidationError, match="expected 72 bytes for 5x3, got 19$"):
            read_embeddings(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1,-2\n1.0,0.0\n", "1: header sizes must be >= 0"),
            ("-1,2\n1.0,0.0\n", "1: header sizes must be >= 0"),
            ("2,2\n1,0\nabc,1\n", "3: could not convert string to float: 'abc'"),
        ],
        ids=["negative-d", "negative-n", "non-numeric"],
    )
    def test_malformed_csv_rejected(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=where.partition(": ")[2]):
            read_embeddings(path)
        out = tmp_path / "out.json"
        for argv in (
            ["cluster", "--embeddings", str(path), "--min-size", "1"],
            ["attack", "--exposed", str(path), "--gallery", str(path)],
        ):
            assert main(argv + ["--out", str(out)]) == 2
            assert f"validation error: {path}:{where}" in capsys.readouterr().err
        assert not out.exists()

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,2\n1.0,0.0\n0.0,1.0\n")
        with pytest.raises(ValidationError, match="header says 3 rows, found 2"):
            read_embeddings(path)


class TestCommands:
    def test_calibrate_matches_library(self, capsys):
        code = main(
            ["calibrate", "--size", "512", "--rho", "1.3", "--eps", "1", "--delta", "5e-5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        budget = dp.PrivacyBudget(1.0, 5e-5)
        sensitivity = {"tight": dp.tight_sensitivity(512, 1.3),
                       "weak": dp.weak_sensitivity(512, 1.3),
                       "naive": dp.NAIVE_SENSITIVITY}
        assert payload["sensitivity"] == sensitivity
        sigma = {bound: dp.gaussian_sigma(s, budget) for bound, s in sensitivity.items()}
        assert payload["sigma"] == sigma
        assert "config" in payload

    def test_calibrate_byte_identical(self, tmp_path, capsys):
        args = ["calibrate", "--size", "128", "--rho", "1.1"]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_occupancy_curve(self, tmp_path, capsys):
        out = tmp_path / "occ.csv"
        code = main(
            [
                "occupancy",
                "--d",
                "512",
                "--rho-min",
                "0.8",
                "--rho-max",
                "1.57",
                "--steps",
                "50",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "rho,ratio"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 50
        for rho_s, ratio_s in rows[::7]:
            assert float(ratio_s) == occupancy_ratio(float(rho_s), 512)
        ratios = [float(r) for _, r in rows]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("mode", ["sanitized", "noise_free", "naive_per_center"])
    def test_cluster_command(self, tmp_path, capsys, mode):
        rng = np.random.default_rng(3)
        centers = sample_uniform_directions(120, 8, rng) * 2.0  # non-unit on disk
        emb = tmp_path / "centers.csv"
        write_embeddings_csv(emb, centers)
        out = tmp_path / "clusters.json"
        code = main(
            [
                "cluster",
                "--embeddings",
                str(emb),
                "--rho",
                "1.2",
                "--min-size",
                "5",
                "--max-queries",
                "3",
                "--seed",
                "4",
                "--mode",
                mode,
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "normalizing on load" in captured.err
        payload = json.loads(out.read_text())
        naive = mode == "naive_per_center"
        q = payload["queries_used"]
        assert (q == 120) if naive else (q >= 1)
        assert [c["query_index"] for c in payload["clusters"]] == list(range(1, q + 1))
        budget = dp.PrivacyBudget()
        charged = 0 if mode == "noise_free" else q
        assert payload["ledger_delta"] == [charged * budget.epsilon, charged * budget.delta]
        for cluster in payload["clusters"]:
            assert cluster["margin"] == (0.0 if naive else 1.2)
            assert (cluster["size"] == 1) if naive else (cluster["size"] >= 5)
            if not naive:
                assert np.linalg.norm(cluster["center"]) == pytest.approx(1.0, abs=1e-6)

    def test_simulate_byte_identical_and_mode_isolation(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "synth.clients = 2",
                    "synth.ids_per_client = 8",
                    "synth.samples_per_identity = 4",
                    "synth.embed_dim = 8",
                    "synth.input_dim = 10",
                    "dplc.min_cluster_size = 1",
                    "fed.rounds = 2",
                    "fed.batch_size = 16",
                    "eval.positives = 30",
                    "eval.negatives = 30",
                    "eval.far_targets = 0.1",
                ]
            )
            + "\n"
        )
        base = ["simulate", "--config", str(cfg), "--seed", "5",
                "--out-dir", str(tmp_path / "run")]
        assert main(base + ["--mode", "phi-hat"]) == 0
        first = (tmp_path / "run" / "phi_hat_rounds.jsonl").read_bytes()
        summary_first = (tmp_path / "run" / "phi_hat_summary.json").read_bytes()
        assert main(base + ["--mode", "phi-hat"]) == 0
        assert (tmp_path / "run" / "phi_hat_rounds.jsonl").read_bytes() == first
        assert (tmp_path / "run" / "phi_hat_summary.json").read_bytes() == summary_first

        # Every round line has exactly these keys.
        round_keys = {
            "record", "mode", "round", "online_clients", "queries_by_client", "loss_by_client",
            "tar_by_far", "cross_client_margin", "ledger_totals",
        }
        file_rounds = [json.loads(line) for line in first.decode().splitlines()[1:]]
        assert len(file_rounds) == 2
        for rec in file_rounds:
            assert set(rec) == round_keys
            assert (rec["record"], rec["mode"]) == ("round", "phi-hat")

        assert main(base + ["--parallel"]) == 1
        assert "usage error" in capsys.readouterr().err

        assert main(base + ["--mode", "phi"]) == 0
        capsys.readouterr()
        phi_lines = (tmp_path / "run" / "phi_rounds.jsonl").read_text().splitlines()
        hat_lines = first.decode().splitlines()
        assert len(phi_lines) == len(hat_lines) == 3  # header + 2 rounds
        for p, h in zip(phi_lines[1:], hat_lines[1:]):
            rec_p, rec_h = json.loads(p), json.loads(h)
            assert rec_p["round"] == rec_h["round"]
            assert rec_p["online_clients"] == rec_h["online_clients"]
            assert all(q == 0 for q in rec_p["queries_by_client"].values())
            assert any(q > 0 for q in rec_h["queries_by_client"].values())
            assert rec_p["ledger_totals"] == {}

    @pytest.mark.parametrize("mode", ["phi-hat", "phi-p", "phi"])
    def test_summary_totals_and_fidelities_come_from_the_rounds(self, tmp_path, capsys, mode):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG + "fed.rounds = 4\nfed.offline_probability = 0.5\n")
        argv = ["simulate", "--config", str(cfg), "--mode", mode, "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        prefix = mode.replace("-", "_")
        lines = (tmp_path / f"{prefix}_rounds.jsonl").read_text().splitlines()
        rounds = [json.loads(line) for line in lines[1:]]
        summary = json.loads((tmp_path / f"{prefix}_summary.json").read_text())
        assert summary["final_ledger_totals"] == rounds[-1]["ledger_totals"]
        queries = sum(q for r in rounds for q in r["queries_by_client"].values())
        assert len(summary["cosine_fidelity_samples"]) == queries
        assert (queries > 0) == (mode != "phi")
        assert bool(summary["final_ledger_totals"]) == (mode == "phi-hat")  # phi-p charges nothing

    def test_unreachable_min_size_warns(self, tmp_path, capsys):
        emb = tmp_path / "centers.csv"
        write_embeddings_csv(emb, sample_uniform_directions(20, 4, np.random.default_rng(5)))
        cluster = ["cluster", "--embeddings", str(emb), "--out", str(tmp_path / "c.json")]
        assert main(cluster + ["--min-size", "21"]) == 0
        captured = capsys.readouterr()
        assert "min cluster size 21 exceeds the 20 centers" in captured.err
        assert json.loads(captured.out)["queries_used"] == 0
        assert main(cluster + ["--min-size", "20"]) == 0
        assert "warning" not in capsys.readouterr().err

        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "synth.clients = 2\nsynth.ids_per_client = 8\nsynth.samples_per_identity = 4\n"
            "synth.embed_dim = 8\nsynth.input_dim = 10\nfed.rounds = 1\n"
            "eval.positives = 30\neval.negatives = 30\neval.far_targets = 0.1\n"
        )
        simulate = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]
        assert main(simulate + ["--mode", "phi-p"]) == 0  # default min size 512 > 8 classes
        assert "min_cluster_size=512 exceeds the 8 classes" in capsys.readouterr().err
        assert main(simulate + ["--mode", "phi"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_attack_command(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        directions = sample_uniform_directions(40, 8, rng)
        gallery = tmp_path / "gallery.csv"
        exposed = tmp_path / "exposed.csv"
        write_embeddings_csv(gallery, directions)
        write_embeddings_csv(exposed, directions[:10])
        code = main(["attack", "--exposed", str(exposed), "--gallery", str(gallery), "--k", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success_rate"] == 1.0

    def test_outdir_env_var_changes_nothing(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG + "fed.rounds = 1\n")
        runs = [
            ["occupancy", "--d", "8", "--steps", "5"],
            ["calibrate", "--size", "8"],
            ["simulate", "--config", str(cfg)],
        ]
        written = {}
        for env in (None, str(tmp_path / "env")):
            if env is not None:
                monkeypatch.setenv("CAPFED_OUTDIR", env)
            cwd = tmp_path / f"cwd_{len(written)}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            printed = []
            for argv in runs:
                assert main(argv) == 0
                printed.append(capsys.readouterr().out.replace(str(cwd), "<cwd>"))
            written[env] = printed, {f.name: f.read_bytes() for f in cwd.iterdir()}
        assert not (tmp_path / "env").exists()
        assert sorted(written[None][1]) == ["occupancy_d8.csv", "phi_hat_rounds.jsonl",
                                            "phi_hat_summary.json"]
        assert written[None] == written[str(tmp_path / "env")]


class TestExitCodes:
    @pytest.mark.parametrize(
        "case, code, err",
        [
            ("usage", 1, "usage error: the following arguments are required: --size\n"),
            ("parse", 2, "validation error: {tmp}/bad.cfg:1: "
                         "expected 'key = value', got 'words'\n"),
            ("zero-row", 2, "validation error: {tmp}/zero.bin: row 1 has norm 0.000e+00; "
                            "a zero vector has no direction\n"),
            ("domain", 3, "runtime error: sigma=inf must be finite\n"),
        ],
    )
    def test_error_kinds_map_to_exit_codes(self, tmp_path, capsys, case, code, err):
        (tmp_path / "bad.cfg").write_text("words\n")
        write_embeddings_binary(tmp_path / "zero.bin", np.array([[1.0, 0.0], [0.0, 0.0]]))
        argv = {
            "usage": ["calibrate"],
            "parse": ["calibrate", "--size", "8", "--config", str(tmp_path / "bad.cfg")],
            "zero-row": ["cluster", "--embeddings", str(tmp_path / "zero.bin")],
            "domain": ["calibrate", "--size", "8", "--eps", "1e-320"],
        }[case]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == err.format(tmp=tmp_path)
        assert captured.out == ""

    def test_usage_error_is_one(self, capsys):
        assert main(["calibrate"]) == 1  # missing required --size
        assert main(["unknown-subcommand"]) == 1
        capsys.readouterr()

    def test_simulate_rejects_output_flags_it_never_read(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG + "fed.rounds = 1\n")
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]
        out = tmp_path / "x.json"
        for extra in (["--out", str(out)], ["--save"], ["--out", str(out), "--save"]):
            assert main(argv + extra) == 1
            assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not out.exists()

    def test_removed_output_flags_are_one_without_output(self, tmp_path, capsys, monkeypatch):
        emb = tmp_path / "rows.csv"
        write_embeddings_csv(emb, sample_uniform_directions(12, 4, np.random.default_rng(1)))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        runs = [
            ["calibrate", "--size", "8"],
            ["cluster", "--embeddings", str(emb), "--min-size", "2"],
            ["attack", "--exposed", str(emb), "--gallery", str(emb)],
            ["occupancy", "--d", "8"],
        ]
        for argv in runs:
            for extra in (["--save"], ["--out-dir", str(tmp_path / "dir")],
                          ["--save", "--out-dir", str(tmp_path / "dir")]):
                assert main(argv + extra) == 1, argv + extra
                captured = capsys.readouterr()
                assert captured.err.startswith("usage error: unrecognized arguments: ")
                assert captured.out == ""
        assert list(cwd.iterdir()) == [] and not (tmp_path / "dir").exists()

    def test_out_dir_key_is_two_without_output(self, tmp_path, capsys, monkeypatch):
        emb = tmp_path / "rows.csv"
        write_embeddings_csv(emb, sample_uniform_directions(12, 4, np.random.default_rng(1)))
        cfg = tmp_path / "old.cfg"
        cfg.write_text(SIM_CONFIG + f"fed.rounds = 1\nout_dir = {tmp_path / 'x'}\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        runs = [
            ["calibrate", "--size", "8"],
            ["cluster", "--embeddings", str(emb), "--min-size", "2"],
            ["simulate"],
        ]
        for argv in runs:
            assert main(argv + ["--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.err == "validation error: out_dir: unknown configuration key\n"
            assert captured.out == ""
        assert list(cwd.iterdir()) == [] and not (tmp_path / "x").exists()

    def test_attack_rejects_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value line\n")
        gallery = tmp_path / "gallery.csv"
        write_embeddings_csv(gallery, np.eye(4))
        argv = ["attack", "--exposed", str(gallery), "--gallery", str(gallery)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("writer", [write_embeddings_csv, write_embeddings_binary])
    def test_non_finite_embeddings_are_two_without_output(self, tmp_path, capsys, bad, writer):
        rows = sample_uniform_directions(12, 4, np.random.default_rng(3))
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        writer(clean, rows)
        rows[5, 2] = bad
        writer(dirty, rows)
        out = tmp_path / "out.json"
        runs = [
            ["attack", "--exposed", str(dirty), "--gallery", str(clean)],
            ["attack", "--exposed", str(clean), "--gallery", str(dirty)],
            ["cluster", "--embeddings", str(dirty), "--min-size", "2"],
        ]
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"validation error: {dirty}: row 5 holds a non-finite value" in err
        assert not out.exists()

    @pytest.mark.parametrize("writer", [write_embeddings_csv, write_embeddings_binary])
    def test_embeddings_without_rows_are_two_without_output(self, tmp_path, capsys, writer):
        empty, rows = tmp_path / "empty", tmp_path / "rows"
        writer(empty, np.zeros((0, 4)))
        writer(rows, np.eye(4))
        out = tmp_path / "out.json"
        runs = [
            ["attack", "--exposed", str(empty), "--gallery", str(rows)],
            ["attack", "--exposed", str(rows), "--gallery", str(empty)],
            ["cluster", "--embeddings", str(empty), "--min-size", "1"],
        ]
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"validation error: {empty}: no embedding rows" in err
            assert "warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("writer", [write_embeddings_csv, write_embeddings_binary])
    def test_zero_embedding_rows_are_two_without_output(self, tmp_path, capsys, writer):
        rows = sample_uniform_directions(6, 4, np.random.default_rng(4))
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        writer(clean, rows)
        rows[3] = 0.0
        writer(dirty, rows)
        out = tmp_path / "out.json"
        runs = [
            ["attack", "--exposed", str(dirty), "--gallery", str(clean)],
            ["attack", "--exposed", str(clean), "--gallery", str(dirty)],
            ["cluster", "--embeddings", str(dirty), "--min-size", "2"],
        ]
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 2
            assert f"validation error: {dirty}: row 3 has norm 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_width_embeddings_are_two_without_output(self, tmp_path, capsys):
        # rows of no values have norm 0: a (2, 0) file is rejected like a zero row
        path = tmp_path / "zero_width.bin"
        write_embeddings_binary(path, np.zeros((2, 0)))
        out = tmp_path / "out.json"
        runs = [
            ["attack", "--exposed", str(path), "--gallery", str(path)],
            ["cluster", "--embeddings", str(path), "--min-size", "1"],
        ]
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 2
            assert f"validation error: {path}: row 0 has norm 0" in capsys.readouterr().err
        assert not out.exists()

    def test_attack_k_below_one_is_two_without_output(self, tmp_path, capsys):
        gallery = tmp_path / "gallery.csv"
        write_embeddings_csv(gallery, np.eye(4))
        out = tmp_path / "attack.json"
        for k in ("0", "-1"):
            argv = ["attack", "--exposed", str(gallery), "--gallery", str(gallery), "--k", k]
            assert main(argv + ["--out", str(out)]) == 2
            assert "validation error: k: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["5", '[["a"], [1], [2]]', "[[], [1], [2]]", "[true, 1, 2]", "[1.0, 1, 2]", '{"0": 1}',
         "[0, 1]", "not json", None],
    )
    def test_attack_bad_targets_are_two_without_output(self, tmp_path, capsys, text):
        gallery, exposed = tmp_path / "gallery.csv", tmp_path / "exposed.csv"
        write_embeddings_csv(gallery, np.eye(4))
        write_embeddings_csv(exposed, np.eye(4)[:3])
        targets = tmp_path / "targets.json"
        if text is not None:  # None: the file is missing
            targets.write_text(text)
        out = tmp_path / "attack.json"
        argv = ["attack", "--exposed", str(exposed), "--gallery", str(gallery),
                "--targets", str(targets), "--out", str(out)]
        assert main(argv) == 2
        assert "validation error: targets: " in capsys.readouterr().err
        assert not out.exists()
        targets.write_text("[[0, 3], 1, [2]]")
        assert main(argv) == 0
        assert json.loads(out.read_text())["per_exposed"] == [0.5, 1.0, 1.0]

    def test_attack_dim_mismatch_is_two_naming_both_files(self, tmp_path, capsys):
        gallery, exposed = tmp_path / "gallery.csv", tmp_path / "exposed.csv"
        write_embeddings_csv(gallery, np.eye(4))
        write_embeddings_csv(exposed, np.eye(3))
        out = tmp_path / "attack.json"
        argv = ["attack", "--exposed", str(exposed), "--gallery", str(gallery), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"validation error: {exposed} has dim 3 but {gallery} has dim 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[0, 99, 2]", "[0, -1, 2]", "[0, [1, 4], 2]"])
    def test_attack_targets_outside_the_gallery_are_two(self, tmp_path, capsys, text):
        gallery, exposed = tmp_path / "gallery.csv", tmp_path / "exposed.csv"
        write_embeddings_csv(gallery, np.eye(4))
        write_embeddings_csv(exposed, np.eye(4)[:3])
        targets = tmp_path / "targets.json"
        targets.write_text(text)
        out = tmp_path / "attack.json"
        argv = ["attack", "--exposed", str(exposed), "--gallery", str(gallery),
                "--targets", str(targets), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "validation error: targets: entry 1 is not a gallery row in [0, 4)" in err
        assert not out.exists()

    def test_removed_gradcheck_is_a_usage_error(self, capsys):
        assert main(["gradcheck"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("fed.aggregation = fedavg", id="fedavg"),
            pytest.param("fed.aggregation = fedsgd", id="fedsgd"),
            pytest.param("fed.center_init = uniform", id="center_init"),
            pytest.param("fed.init_scale = 2.0", id="init_scale"),
            pytest.param("loss.kind = cosface", id="loss_kind"),
            pytest.param("synth.public_identities = 3", id="public_identities"),
            pytest.param("synth.public_samples_per_identity = 2", id="public_samples"),
            pytest.param("fed.shared_public_shard = true", id="shared_public_shard"),
        ],
    )
    def test_removed_aggregation_key_is_two(self, tmp_path, capsys, line):
        # FedAvg is the only aggregation, class means the only center init,
        # CosFace the only margin form, and every identity private to one
        # client; the keys that chose otherwise are gone.
        cfg = tmp_path / "old.cfg"
        cfg.write_text(SIM_CONFIG + f"fed.rounds = 1\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        key = line.partition(" =")[0]
        assert f"validation error: {key}: unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_one_client_is_two_before_anything_is_generated(self, tmp_path, capsys, monkeypatch):
        # Every negative verification pair spans two clients, so one client cannot be evaluated.
        def generate(*args):
            raise AssertionError("generated a federation for a rejected config")

        monkeypatch.setattr(synth, "generate_federation", generate)
        cfg = tmp_path / "one.cfg"
        one_client = SIM_CONFIG.replace("synth.clients = 2", "synth.clients = 1")
        cfg.write_text(one_client + "fed.rounds = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        assert "validation error: synth.clients: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            # 4 clients x 2 identities x 2 samples hold 8 distinct positive pairs
            ("", "eval.positives: 1000 pairs requested, but the federation holds only 8 "),
            ("eval.positives = 8", "eval.negatives: 1000 pairs requested, but the federation "
                                   "holds only 96 "),
        ],
    )
    def test_impossible_eval_pairs_are_two_before_generation(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        def generate(*args):
            raise AssertionError("generated a federation for a rejected config")

        monkeypatch.setattr(synth, "generate_federation", generate)
        cfg = tmp_path / "small.cfg"
        cfg.write_text("synth.ids_per_client = 2\nsynth.samples_per_identity = 2\n"
                       f"dplc.min_cluster_size = 1\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_every_distinct_eval_pair_can_be_requested(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("synth.ids_per_client = 2\nsynth.samples_per_identity = 2\n"
                       "dplc.min_cluster_size = 1\nfed.rounds = 1\n"
                       "eval.positives = 8\neval.negatives = 96\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "phi_hat_summary.json").is_file()
        capsys.readouterr()

    @pytest.mark.parametrize("rho", ["1e-9", "8e-9"])
    def test_calibrate_at_rho_whose_cosine_is_one_is_two_without_output(
        self, tmp_path, capsys, rho
    ):
        # cos(rho) rounds to 1: the weak sensitivity is 0, so no sigma can be positive
        out = tmp_path / "calibrate.json"
        assert main(["calibrate", "--size", "8", "--rho", rho, "--out", str(out)]) == 2
        assert "validation error: dplc: rho=" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_at_rho_whose_cosine_is_one_is_two_without_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # a duplicated row would form a cluster of 2 even at rho = 1e-9
        rows = sample_uniform_directions(20, 8, np.random.default_rng(0))
        emb = tmp_path / "dup.bin"
        write_embeddings_binary(emb, np.vstack([rows, rows[:1]]))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("dplc.rho = 1e-9\n")
        out = tmp_path / "clusters.json"
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for mode in ("sanitized", "noise_free", "naive_per_center"):
            argv = ["cluster", "--config", str(cfg), "--embeddings", str(emb), "--mode", mode,
                    "--min-size", "2", "--max-queries", "2"]
            assert main(argv + ["--out", str(out)]) == 2
            assert main(argv) == 2
            assert "validation error: dplc: rho=" in capsys.readouterr().err
        assert not out.exists()
        assert list(cwd.iterdir()) == []

    def test_simulate_at_rho_whose_cosine_is_one_is_two_before_generation(
        self, tmp_path, capsys, monkeypatch
    ):
        def generate(*args):
            raise AssertionError("generated a federation for a rejected config")

        monkeypatch.setattr(synth, "generate_federation", generate)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SIM_CONFIG + "dplc.rho = 8e-9\nfed.rounds = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        assert "validation error: dplc: rho=" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "fed.learning_rate = nan",
            "fed.learning_rate = inf",
            "fed.learning_rate = -0.1",
            "fed.learning_rate = 0",
            "fed.local_epochs = 0",
            "fed.weight_decay = -1",
            "fed.weight_decay = nan",
            "dp.epsilon = inf",
            "loss.scale = inf",
            "loss.margin = nan",
            "loss.margin = inf",
            "eval.positives = 0",
            "eval.negatives = 0",
            "eval.far_targets =",
            "eval.far_targets = 2.0",
            "eval.far_targets = 0.01,nan",
            "eval.far_targets = -0.5",
        ],
    )
    def test_bad_training_and_eval_values_are_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"fed.rounds = 1\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        prefix = line.partition(".")[0]
        section = "fed" if prefix == "eval" else prefix
        assert f"validation error: {section}: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv",
        [["calibrate", "--size", "0"], ["occupancy", "--d", "0"], ["occupancy", "--d", "1"],
         ["calibrate", "--size", "8", "--eps", "inf"]],  # an infinite budget would calibrate sigma 0
    )
    def test_bad_sizes_are_two(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mode", ["sanitized", "naive_per_center"])
    def test_cluster_at_subnormal_epsilon_is_three_without_output(self, tmp_path, capsys, mode):
        # sigma = sensitivity / 1e-320 overflows to inf: the releases would be NaN
        emb = tmp_path / "centers.bin"
        write_embeddings_binary(emb, sample_uniform_directions(40, 4, np.random.default_rng(0)))
        out = tmp_path / "clusters.json"
        argv = ["cluster", "--embeddings", str(emb), "--eps", "1e-320", "--min-size", "2",
                "--mode", mode, "--out", str(out)]
        assert main(argv) == 3
        assert "runtime error: sigma=inf must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_whose_noised_mean_overflows_is_three_without_output(self, tmp_path, capsys):
        # sigma ~ 1e199 is finite, but the noised mean's squared norm overflows: dividing
        # by that inf norm would release a zero vector as a unit center
        emb = tmp_path / "centers.bin"
        write_embeddings_binary(emb, sample_uniform_directions(40, 4, np.random.default_rng(0)))
        out = tmp_path / "clusters.json"
        argv = ["cluster", "--embeddings", str(emb), "--eps", "1e-200", "--min-size", "2",
                "--out", str(out)]
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(argv) == 3
        assert "runtime error: cannot normalize vector with norm inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(("mode", "queries"), [("sanitized", 4), ("naive_per_center", 40)])
    def test_cluster_whose_spend_overflows_is_three_without_output(
        self, tmp_path, capsys, mode, queries
    ):
        # queries releases at epsilon 1e308 spend more than the largest float
        emb = tmp_path / "centers.bin"
        write_embeddings_binary(emb, sample_uniform_directions(40, 4, np.random.default_rng(0)))
        out = tmp_path / "clusters.json"
        argv = ["cluster", "--embeddings", str(emb), "--min-size", "2", "--max-queries", "4",
                "--mode", mode, "--out", str(out)]
        assert main(argv + ["--eps", "1e308"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"runtime error: client {str(emb)!r}: privacy charge inf is not a finite float\n"
        )
        assert captured.out == ""
        assert not out.exists()
        eps = 1.6e308 / queries
        assert main(argv + ["--eps", repr(eps)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["queries_used"] == queries
        assert payload["ledger_delta"] == [queries * eps, queries * 5e-5]

    @pytest.mark.parametrize(
        ("extra", "charged", "message"),
        [
            # one round of 3 releases: the charge 3 x 1e308 is not a float
            ("dplc.max_queries = 3\nfed.rounds = 1\n", [3],
             "client 0: privacy charge inf is not a finite float"),
            # two rounds of 1 release: each charge is a float, their sum is not
            ("dplc.max_queries = 1\nfed.rounds = 2\n", [1, 1],
             "client 0: composed privacy total overflows a float"),
        ],
    )
    def test_simulate_whose_spend_overflows_is_three_without_output(
        self, tmp_path, capsys, extra, charged, message
    ):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG + extra)
        argv = ["simulate", "--config", str(cfg), "--mode", "phi-hat",
                "--out-dir", str(tmp_path / "run")]
        assert main(argv + ["--eps", "1e308"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"runtime error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()
        assert main(argv + ["--eps", "4e307"]) == 0
        capsys.readouterr()
        lines = (tmp_path / "run" / "phi_hat_rounds.jsonl").read_text().splitlines()
        assert [json.loads(line)["queries_by_client"]["0"] for line in lines[1:]] == charged
        summary = json.loads((tmp_path / "run" / "phi_hat_summary.json").read_text())
        expected = [math.fsum(q * x for q in charged) for x in (4e307, 5e-5)]
        assert summary["final_ledger_totals"]["0"] == expected

    def test_calibrate_at_subnormal_epsilon_is_three_without_output(self, tmp_path, capsys):
        out = tmp_path / "calibrate.json"
        assert main(["calibrate", "--size", "8", "--eps", "1e-320", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "runtime error: sigma=inf must be finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_validation_error_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dplc.rho = 2.0\n")
        assert main(["calibrate", "--size", "8", "--config", str(cfg)]) == 2
        assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
        capsys.readouterr()

    def test_runtime_error_is_three(self, tmp_path, capsys):
        # the outputs' directory is an existing regular file: writing them fails
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SIM_CONFIG + "fed.rounds = 1\n")
        blocker = tmp_path / "run"
        blocker.write_text("not a directory\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(blocker)]) == 3
        assert "runtime error: " in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"
