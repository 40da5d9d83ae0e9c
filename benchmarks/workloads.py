"""The benchmark's workloads: inputs made from a seed, the CLI call, and the output checks.

Each workload writes its inputs (a config file, or an embeddings file) into
a work directory; the program receives only those files and CLI flags. `check` reads what one `capfed` invocation wrote and returns an
`Outcome`, whose `failures` are the output checks that did not hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EMBEDDINGS_MAGIC = b"DPLC"  # binary embeddings: magic, n and d as uint32 LE, float32 LE rows
UNIT_NORM_TOL = 1e-9


@dataclass
class Outcome:
    """What one invocation produced, as far as the benchmark checks it."""

    failures: list[str] = field(default_factory=list)
    digest: str = ""  # sha256 over the output files, for the replay check
    rows: int = 0  # input rows the run consumed
    tar: float | None = None  # final-round TAR at FAR 1e-2; simulations only


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _write_config(path: Path, config: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))


def _ledger_failures(who: str, queries: int, total, eps: float, delta: float) -> list[str]:
    expected = (queries * eps, queries * delta)
    if all(math.isclose(t, e, rel_tol=1e-12, abs_tol=0.0) for t, e in zip(total, expected)):
        return []
    return [f"{who}: ledger total {list(total)} != {queries} queries x (eps, delta) = {list(expected)}"]


class SimWorkload:
    """`capfed simulate` on a generated config file."""

    def __init__(self, name: str, config: dict, tiny: dict) -> None:
        self.name, self.config, self.tiny = name, config, tiny

    def prepare(self, work: Path, seed: int, tiny: bool, overrides: dict) -> "SimInputs":
        config = {"seed": seed, **self.config, **(self.tiny if tiny else {}), **overrides}
        path = work / "config.txt"
        _write_config(path, config)
        return SimInputs(path)


class SimInputs:
    def __init__(self, config_path: Path) -> None:
        self.config_path = config_path

    def argv(self, out_dir: Path) -> list[str]:
        return ["simulate", "--config", str(self.config_path), "--out-dir", str(out_dir)]

    def setup(self) -> None:
        """The pre-round work of a simulation: federation, clients and eval pairs."""
        from capfed import cli, federation, synth

        cfg = cli.parse_config(str(self.config_path))
        fed = synth.generate_federation(cfg.synth_params, federation.derive_rng(cfg.seed, "synth"))
        federation.initialize_clients(fed, cfg.fed_config, cfg.seed)
        synth.make_verification_pairs(
            fed,
            cfg.fed_config.eval_positives,
            cfg.fed_config.eval_negatives,
            federation.derive_rng(cfg.seed, "eval"),
        )

    def check(self, out_dir: Path) -> Outcome:
        out = Outcome()
        rounds_files = sorted(out_dir.glob("*_rounds.jsonl"))
        summary_files = sorted(out_dir.glob("*_summary.json"))
        if len(rounds_files) != 1 or len(summary_files) != 1:
            out.failures.append(f"expected one rounds and one summary file in {out_dir.name}")
            return out
        out.digest = _digest(rounds_files + summary_files)
        records = [json.loads(line) for line in rounds_files[0].read_text().splitlines()]
        rounds = [r for r in records if r.get("record") == "round"]
        summary = json.loads(summary_files[0].read_text())
        config = summary["config"]
        if len(rounds) != config["fed.rounds"]:
            out.failures.append(f"{len(rounds)} round records, config asks for {config['fed.rounds']}")

        queries = {c: 0 for c in range(config["synth.clients"])}
        for r in rounds:
            for c, q in r["queries_by_client"].items():
                queries[int(c)] += q
        if sum(queries.values()) < 1:
            out.failures.append("no cluster released in any round")
        charged = config["fed.mode"] == "phi-hat"
        eps, delta = config["dp.epsilon"], config["dp.delta"]
        totals = summary["final_ledger_totals"]
        for c, q in queries.items():
            total = totals.get(str(c), [0.0, 0.0])
            out.failures += _ledger_failures(f"client {c}", q if charged else 0, total, eps, delta)

        shard = config["synth.ids_per_client"] * config["synth.samples_per_identity"]
        out.rows = sum(len(r["online_clients"]) for r in rounds) * shard * config["fed.local_epochs"]
        tar = summary["final_tar_by_far"].get(repr(1e-2))
        if tar is None or not 0.0 <= tar <= 1.0:
            out.failures.append(f"final TAR at FAR 1e-2 missing or outside [0, 1]: {tar}")
        else:
            out.tar = float(tar)
        return out


def planted_centers(rng, dim: int, cap_sizes, background: int) -> np.ndarray:
    """Unit rows: one tight cap per size around a random direction, plus uniform rows.

    A cap member is normalize(mu + g * sqrt(0.5 / dim)), so two members of a
    cap are about 48 degrees apart, well inside the 74.5 degree margin, while
    unrelated rows sit near 90 degrees. Rows are shuffled.
    """
    mus = rng.standard_normal((len(cap_sizes), dim))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    parts = [mu + rng.standard_normal((size, dim)) * math.sqrt(0.5 / dim)
             for mu, size in zip(mus, cap_sizes)]
    parts.append(rng.standard_normal((background, dim)))
    rows = np.concatenate(parts)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows[rng.permutation(rows.shape[0])]


class ClusterWorkload:
    """`capfed cluster` (sanitized) on a generated binary embeddings file."""

    def __init__(self, name: str, config: dict, shape: dict, tiny: dict) -> None:
        self.name, self.config, self.shape, self.tiny = name, config, shape, tiny

    def prepare(self, work: Path, seed: int, tiny: bool, overrides: dict) -> "ClusterInputs":
        shape = {**self.shape, **(self.tiny if tiny else {})}
        sizes = np.linspace(shape["cap_min"], shape["cap_max"], shape["caps"]).round().astype(int)
        rows = planted_centers(
            np.random.default_rng(seed), shape["dim"], sizes, shape["background"]
        )
        path = work / "centers.bin"
        arr = np.ascontiguousarray(rows, dtype="<f4")
        path.write_bytes(EMBEDDINGS_MAGIC + struct.pack("<II", *arr.shape) + arr.tobytes())
        return ClusterInputs(path, rows.shape[0], {**self.config, **overrides}, seed)


class ClusterInputs:
    def __init__(self, path: Path, n: int, config: dict, seed: int) -> None:
        self.path, self.n, self.config, self.seed = path, n, config, seed

    def argv(self, out_dir: Path) -> list[str]:
        return [
            "cluster", "--embeddings", str(self.path), "--mode", "sanitized",
            "--min-size", str(self.config["dplc.min_cluster_size"]),
            "--max-queries", str(self.config["dplc.max_queries"]),
            "--seed", str(self.seed), "--out", str(out_dir / "clusters.json"),
        ]

    def setup(self) -> None:
        """Loading the embeddings: the work `capfed cluster` does before clustering."""
        from capfed import cli

        cli.load_unit_embeddings(self.path)

    def check(self, out_dir: Path) -> Outcome:
        out = Outcome()
        path = out_dir / "clusters.json"
        if not path.is_file():
            out.failures.append("no clusters.json written")
            return out
        out.digest = _digest([path])
        payload = json.loads(path.read_text())
        config = payload["config"]
        min_size, max_queries = config["dplc.min_cluster_size"], config["dplc.max_queries"]
        clusters = payload["clusters"]
        used = payload["queries_used"]
        if used < 1:
            out.failures.append("no cluster released")
        if used != max_queries or len(clusters) != used:
            out.failures.append(f"{used} queries used, {len(clusters)} clusters; expected {max_queries}")
        small = [c["size"] for c in clusters if c["size"] < min_size]
        if small:
            out.failures.append(f"released cluster sizes {small} below the minimum {min_size}")
        norms = [float(np.linalg.norm(c["center"])) for c in clusters]
        if any(abs(norm - 1.0) > UNIT_NORM_TOL for norm in norms):
            out.failures.append(f"released centers not unit norm: {norms}")
        out.failures += _ledger_failures(
            "release", used, payload["ledger_delta"], config["dp.epsilon"], config["dp.delta"]
        )
        out.rows = self.n
        return out


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            "sim-small-long",
            {
                "fed.mode": "phi-hat",
                "dplc.min_cluster_size": 8,
                "dplc.max_queries": 4,
                "fed.offline_probability": 0.25,
                "fed.rounds": 400,
            },
            tiny={"fed.rounds": 3},
        ),
        SimWorkload(
            "sim-paper",
            {
                "synth.ids_per_client": 1000,
                "synth.samples_per_identity": 4,
                "synth.embed_dim": 512,
                "synth.input_dim": 640,
                "fed.mode": "phi-hat",
                "fed.batch_size": 256,
                "dplc.min_cluster_size": 2,
                "dplc.max_queries": 8,
                "fed.rounds": 3,
            },
            tiny={
                "synth.ids_per_client": 100,
                "synth.embed_dim": 64,
                "synth.input_dim": 80,
                "fed.batch_size": 64,
                "fed.rounds": 1,
            },
        ),
        ClusterWorkload(
            "cluster-large",
            {"dplc.min_cluster_size": 64, "dplc.max_queries": 8},
            shape={"dim": 512, "caps": 16, "cap_min": 80, "cap_max": 380, "background": 4320},
            tiny={"dim": 64, "cap_min": 66, "cap_max": 96, "background": 300},
        ),
    )
}
