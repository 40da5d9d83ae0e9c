"""Command-line entry point: calibrate, occupancy, cluster, simulate, attack, gradcheck.

Configuration is a flat key = value file with dotted section prefixes
(e.g. ``dplc.rho = 1.3``); command-line flags override file values. Every
output file embeds the resolved configuration and seed, outputs are written
atomically, and identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage, 2 validation, 3 runtime.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import clustering, dp, federation, losses, synth
from .errors import CapfedError, ParseError, ValidationError
from .geometry import checked_row_norms, normalize_rows, occupancy_ratio

OUTDIR_ENV = "CAPFED_OUTDIR"
EMBEDDINGS_MAGIC = b"DPLC"


# ---------------------------------------------------------------------------
# configuration schema


def _cast_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _cast_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(raw).split(",") if part.strip())


_SCHEMA: dict[str, tuple] = {
    "seed": (int, 0),
    "out_dir": (str, ""),
    "synth.clients": (int, 4),
    "synth.ids_per_client": (int, 64),
    "synth.samples_per_identity": (int, 8),
    "synth.embed_dim": (int, 32),
    "synth.input_dim": (int, 48),
    "synth.concentration": (float, 64.0),
    "synth.public_identities": (int, 0),
    "synth.public_samples_per_identity": (int, 4),
    "dplc.rho": (float, 1.3),
    "dplc.min_cluster_size": (int, 512),
    "dplc.max_queries": (int, 1),
    "dp.epsilon": (float, 1.0),
    "dp.delta": (float, dp.DEFAULT_DELTA),
    "loss.kind": (str, "cosface"),
    "loss.scale": (float, 64.0),
    "loss.margin": (float, None),
    "fed.rounds": (int, 10),
    "fed.mode": (str, federation.MODE_PHI_HAT),
    "fed.learning_rate": (float, 0.1),
    "fed.weight_decay": (float, 5e-4),
    "fed.batch_size": (int, 64),
    "fed.local_epochs": (int, 1),
    "fed.aggregation": (str, "fedavg"),
    "fed.offline_probability": (float, 0.0),
    "fed.shared_public_shard": (_cast_bool, False),
    "fed.center_init": (str, "class_means"),
    "fed.init_scale": (float, 1.0),
    "eval.positives": (int, 1000),
    "eval.negatives": (int, 1000),
    "eval.far_targets": (_cast_float_list, (1e-2,)),
}


@dataclass
class RunConfig:
    """Fully resolved configuration, echoed verbatim into every output."""

    seed: int
    out_dir: str
    synth_params: synth.SynthParams
    fed_config: federation.FederationConfig
    resolved: dict = field(default_factory=dict)


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Resolve defaults, then the file, then flag overrides, then validate.

    Every reported problem names the offending key.
    """
    resolved = {key: default for key, (_, default) in _SCHEMA.items()}
    raw = _read_config_file(path) if path else {}
    for source in (raw, overrides or {}):
        for key, value in source.items():
            if key not in _SCHEMA:
                raise ValidationError(f"{key}: unknown configuration key")
            caster, _ = _SCHEMA[key]
            if value is None:
                continue
            try:
                resolved[key] = value if not isinstance(value, str) else caster(value)
            except ValueError as exc:
                raise ValidationError(f"{key}: {exc}") from exc

    def build(prefix, ctor, **kwargs):
        try:
            return ctor(**kwargs)
        except CapfedError as exc:
            raise ValidationError(f"{prefix}: {exc}") from exc

    budget = build(
        "dp", dp.PrivacyBudget, epsilon=resolved["dp.epsilon"], delta=resolved["dp.delta"]
    )
    clustering_params = build(
        "dplc",
        clustering.ClusteringParams,
        rho=resolved["dplc.rho"],
        min_cluster_size=resolved["dplc.min_cluster_size"],
        max_queries=resolved["dplc.max_queries"],
        budget=budget,
    )
    loss_config = build(
        "loss",
        losses.LossConfig,
        kind=resolved["loss.kind"],
        scale=resolved["loss.scale"],
        margin=resolved["loss.margin"],
    )
    synth_params = build(
        "synth",
        synth.SynthParams,
        clients=resolved["synth.clients"],
        ids_per_client=resolved["synth.ids_per_client"],
        samples_per_identity=resolved["synth.samples_per_identity"],
        embed_dim=resolved["synth.embed_dim"],
        input_dim=resolved["synth.input_dim"],
        concentration=resolved["synth.concentration"],
        public_identities=resolved["synth.public_identities"],
        public_samples_per_identity=resolved["synth.public_samples_per_identity"],
    )
    fed_config = build(
        "fed",
        federation.FederationConfig,
        clients=resolved["synth.clients"],
        rounds=resolved["fed.rounds"],
        mode=resolved["fed.mode"],
        clustering_params=clustering_params,
        loss=loss_config,
        learning_rate=resolved["fed.learning_rate"],
        weight_decay=resolved["fed.weight_decay"],
        batch_size=resolved["fed.batch_size"],
        local_epochs=resolved["fed.local_epochs"],
        aggregation=resolved["fed.aggregation"],
        offline_probability=resolved["fed.offline_probability"],
        shared_public_shard=resolved["fed.shared_public_shard"],
        center_init=resolved["fed.center_init"],
        init_scale=resolved["fed.init_scale"],
        eval_positives=resolved["eval.positives"],
        eval_negatives=resolved["eval.negatives"],
        far_targets=resolved["eval.far_targets"],
    )
    echo = {k: (list(v) if isinstance(v, tuple) else v) for k, v in resolved.items()}
    return RunConfig(
        seed=resolved["seed"],
        out_dir=resolved["out_dir"],
        synth_params=synth_params,
        fed_config=fed_config,
        resolved=echo,
    )


# ---------------------------------------------------------------------------
# file formats


def _atomic_write(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data)
    os.replace(tmp, path)


def write_embeddings_csv(path, arr: np.ndarray) -> None:
    """CSV embeddings: first line 'n,d', then one row of decimals per vector.

    Values are stored at float32 precision with shortest round-trip decimals.
    """
    arr32 = np.asarray(arr, dtype=np.float32)
    lines = [f"{arr32.shape[0]},{arr32.shape[1]}"]
    for row in arr32:
        lines.append(",".join(str(v) for v in row))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def write_embeddings_binary(path, arr: np.ndarray) -> None:
    """Binary embeddings: magic 'DPLC', n and d as uint32 LE, float32 LE rows."""
    arr32 = np.ascontiguousarray(np.asarray(arr, dtype="<f4"))
    header = EMBEDDINGS_MAGIC + struct.pack("<II", arr32.shape[0], arr32.shape[1])
    _atomic_write(Path(path), header + arr32.tobytes())


def read_embeddings(path) -> np.ndarray:
    """Load a CSV or binary embeddings file (sniffed by magic bytes).

    Returns float64 values that are exactly the stored float32 values.
    """
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"embeddings file not found: {path}")
    blob = p.read_bytes()
    if blob[:4] == EMBEDDINGS_MAGIC:
        if len(blob) < 12:
            raise ParseError(f"{path}: truncated binary embeddings header")
        n, d = struct.unpack("<II", blob[4:12])
        expected = 12 + 4 * n * d
        if len(blob) != expected:
            raise ParseError(f"{path}: expected {expected} bytes for {n}x{d}, got {len(blob)}")
        flat = np.frombuffer(blob, dtype="<f4", offset=12)
        return flat.reshape(n, d).astype(float)
    try:
        text = blob.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: neither binary magic nor text CSV") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty embeddings file")
    try:
        n, d = (int(part) for part in lines[0].split(","))
    except ValueError as exc:
        raise ParseError(f"{path}:1: header must be 'n,d'") from exc
    if len(lines) - 1 != n:
        raise ParseError(f"{path}: header says {n} rows, found {len(lines) - 1}")
    rows = np.empty((n, d), dtype=np.float32)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != d:
            raise ParseError(f"{path}:{i}: expected {d} values, got {len(parts)}")
        rows[i - 2] = [np.float32(p) for p in parts]
    return rows.astype(float)


def load_unit_embeddings(path) -> np.ndarray:
    """Load embeddings and normalize rows, warning when renormalization bites."""
    arr = read_embeddings(path)
    norms = checked_row_norms(arr)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        print(f"warning: {path}: rows are not unit norm; normalizing on load", file=sys.stderr)
    return arr / norms[:, None]


# ---------------------------------------------------------------------------
# subcommands


def _out_dir(args) -> Path:
    if getattr(args, "out_dir", None):
        return Path(args.out_dir)
    env = os.environ.get(OUTDIR_ENV)
    return Path(env) if env else Path.cwd()


def _emit_json(payload: dict, args, default_name: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if getattr(args, "out", None):
        _atomic_write(Path(args.out), text)
    elif getattr(args, "save", False):
        _atomic_write(_out_dir(args) / default_name, text)


def _config_overrides(args, mapping: dict[str, str]) -> dict:
    overrides = {}
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    return overrides


def cmd_calibrate(args) -> int:
    cfg = parse_config(
        args.config,
        _config_overrides(args, {"rho": "dplc.rho", "eps": "dp.epsilon", "delta": "dp.delta"}),
    )
    budget = cfg.fed_config.clustering_params.budget
    rho = cfg.fed_config.clustering_params.rho
    size = args.size
    tight = dp.sigma_tight(size, rho, budget)
    weak = dp.sigma_weak(size, rho, budget)
    naive = dp.naive_sigma(budget)
    payload = {
        "config": cfg.resolved,
        "inputs": {"size": size, "rho": rho, "epsilon": budget.epsilon, "delta": budget.delta},
        "sigma": {"tight": tight.sigma, "weak": weak.sigma, "naive": naive.sigma},
        "sensitivity": {
            "tight": tight.sensitivity,
            "weak": weak.sensitivity,
            "naive": naive.sensitivity,
        },
    }
    _emit_json(payload, args, "calibrate.json")
    return 0


def cmd_occupancy(args) -> int:
    if args.steps < 2:
        raise ValidationError("steps: must be >= 2")
    if not 0.0 <= args.rho_min <= args.rho_max <= math.pi:
        raise ValidationError("rho-min/rho-max: need 0 <= rho-min <= rho-max <= pi")
    grid = np.linspace(args.rho_min, args.rho_max, args.steps)
    lines = [f"# capfed occupancy d={args.d} rho_min={args.rho_min!r} "
             f"rho_max={args.rho_max!r} steps={args.steps}"]
    lines.append("rho,ratio")
    for rho in grid:
        lines.append(f"{float(rho)!r},{occupancy_ratio(float(rho), args.d)!r}")
    out = Path(args.out) if args.out else _out_dir(args) / f"occupancy_d{args.d}.csv"
    text = "\n".join(lines) + "\n"
    _atomic_write(out, text)
    sys.stdout.write(text)
    return 0


def cmd_cluster(args) -> int:
    overrides = _config_overrides(
        args,
        {
            "rho": "dplc.rho",
            "min_size": "dplc.min_cluster_size",
            "max_queries": "dplc.max_queries",
            "eps": "dp.epsilon",
            "delta": "dp.delta",
            "seed": "seed",
        },
    )
    cfg = parse_config(args.config, overrides)
    centers = load_unit_embeddings(args.embeddings)
    params = clustering.ClusteringParams(
        rho=cfg.fed_config.clustering_params.rho,
        min_cluster_size=cfg.fed_config.clustering_params.min_cluster_size,
        max_queries=cfg.fed_config.clustering_params.max_queries,
        budget=cfg.fed_config.clustering_params.budget,
        mode=args.mode,
    )
    if args.mode != clustering.MODE_NAIVE_PER_CENTER and params.min_cluster_size > len(centers):
        print(
            f"warning: min cluster size {params.min_cluster_size} exceeds the "
            f"{len(centers)} centers in {args.embeddings}; no cluster can be released",
            file=sys.stderr,
        )
    rng = federation.derive_rng(cfg.seed, "cli-cluster")
    report = clustering.run_clustering(centers, params, rng)
    payload = {
        "config": cfg.resolved,
        "seed": cfg.seed,
        "mode": args.mode,
        "clusters": [
            {
                "center": [float(v) for v in c.center],
                "margin": c.margin,
                "size": c.covered_count,
                "query_index": c.query_index,
            }
            for c in report.clusters
        ],
        "queries_used": report.queries_used,
        "ledger_delta": list(report.ledger_delta),
    }
    _emit_json(payload, args, "clusters.json")
    return 0


def cmd_simulate(args) -> int:
    overrides = _config_overrides(
        args,
        {
            "mode": "fed.mode",
            "seed": "seed",
            "rounds": "fed.rounds",
            "rho": "dplc.rho",
            "eps": "dp.epsilon",
            "offline_probability": "fed.offline_probability",
        },
    )
    cfg = parse_config(args.config, overrides)
    synth_params, fed_config = cfg.synth_params, cfg.fed_config
    classes = synth_params.ids_per_client
    if fed_config.shared_public_shard:
        classes += synth_params.public_identities
    min_size = fed_config.clustering_params.min_cluster_size
    if fed_config.mode != federation.MODE_PHI and min_size > classes:
        print(
            f"warning: dplc.min_cluster_size={min_size} exceeds the {classes} classes of "
            f"every client; mode {fed_config.mode} releases no cluster",
            file=sys.stderr,
        )
    fed_rng = federation.derive_rng(cfg.seed, "synth")
    fed = synth.generate_federation(cfg.synth_params, fed_rng)
    report = federation.run_federation(cfg.fed_config, fed, cfg.seed)
    outdir = Path(cfg.out_dir) if cfg.out_dir else _out_dir(args)
    prefix = cfg.fed_config.mode.replace("-", "_")

    header = {"record": "header", "config": cfg.resolved, "seed": cfg.seed}
    lines = [json.dumps(header, sort_keys=True)]
    for r in report.rounds:
        record = {"record": "round", "mode": report.mode, **r.to_dict()}
        lines.append(json.dumps(record, sort_keys=True))
    _atomic_write(outdir / f"{prefix}_rounds.jsonl", "\n".join(lines) + "\n")

    hist_counts, _ = np.histogram(report.fidelities, bins=100, range=(-1.0, 1.0))
    final = report.rounds[-1]
    final_tar = federation.tar_payload(final.tar_by_far)
    summary = {
        "config": cfg.resolved,
        "seed": cfg.seed,
        "mode": report.mode,
        "rounds": len(report.rounds),
        "final_tar_by_far": final_tar,
        "final_cross_client_margin": final.cross_client_margin,
        "final_ledger_totals": federation.totals_payload(report.final_ledger_totals),
        "cosine_fidelity_samples": report.fidelities,
        "cosine_fidelity_hist_counts": [int(c) for c in hist_counts],
        "cosine_fidelity_hist_range": [-1.0, 1.0],
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    _atomic_write(outdir / f"{prefix}_summary.json", text)
    sys.stdout.write(
        json.dumps(
            {"mode": report.mode, "final_tar_by_far": final_tar, "out_dir": str(outdir)},
            sort_keys=True,
        )
        + "\n"
    )
    return 0


def cmd_attack(args) -> int:
    exposed = read_embeddings(args.exposed)
    gallery_vectors = read_embeddings(args.gallery)
    gallery = synth.AttackGallery(
        np.arange(gallery_vectors.shape[0]), normalize_rows(gallery_vectors)
    )
    if args.targets:
        targets = json.loads(Path(args.targets).read_text())
        if len(targets) != exposed.shape[0]:
            raise ValidationError("targets: need one identity list per exposed vector")
    else:
        targets = [[i] for i in range(exposed.shape[0])]
    result = synth.knn_attack(exposed, gallery, args.k, targets)
    payload = {
        "k": args.k,
        "gallery_size": int(gallery_vectors.shape[0]),
        "exposed": int(exposed.shape[0]),
        "success_rate": result.success_rate,
        "per_exposed": [float(v) for v in result.per_exposed],
    }
    _emit_json(payload, args, "attack.json")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.instances):
        for kind in (losses.KIND_COSFACE, losses.KIND_ARCFACE):
            config = losses.LossConfig(kind=kind, scale=8.0)
            n, d, batch, k = 8, 16, 4, 2
            w = normalize_rows(rng.standard_normal((n, d)))
            f = normalize_rows(rng.standard_normal((batch, d)))
            labels = rng.integers(0, n, size=batch)
            ctx = losses.ConsensusContext(normalize_rows(rng.standard_normal((k, d))))
            rho = 1.0
            bundle = losses.loss_gradients(f, labels, w, ctx, rho, config)
            err_f = losses.finite_diff_check(
                lambda p: losses.consensus_loss(p, labels, w, ctx, rho, config),
                f,
                bundle.d_embeddings,
            )
            err_w = losses.finite_diff_check(
                lambda p: losses.consensus_loss(f, labels, p, ctx, rho, config),
                w,
                bundle.d_centers,
            )
            worst = max(worst, err_f, err_w)
    payload = {"instances": args.instances, "seed": args.seed, "max_rel_err": worst}
    _emit_json(payload, args, "gradcheck.json")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="capfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", help="write the JSON result to this file as well")
        p.add_argument("--out-dir", help=f"output directory (default ${OUTDIR_ENV} or cwd)")
        p.add_argument("--save", action="store_true", help="also write the default output file")

    p = sub.add_parser("calibrate", help="noise scales for a cluster release")
    add_common(p)
    p.add_argument("--size", type=int, required=True, help="cluster size |S|")
    p.add_argument("--rho", type=float, help="cluster margin")
    p.add_argument("--eps", type=float, help="per-release epsilon")
    p.add_argument("--delta", type=float, help="per-release delta")
    p.set_defaults(run=cmd_calibrate)

    p = sub.add_parser("occupancy", help="cap occupancy-ratio curve as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho-min", type=float, default=0.0)
    p.add_argument("--rho-max", type=float, default=math.pi / 2)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(run=cmd_occupancy)

    p = sub.add_parser("cluster", help="cluster an embeddings file")
    add_common(p)
    p.add_argument("--embeddings", required=True, help="CSV or binary embeddings file")
    p.add_argument("--rho", type=float)
    p.add_argument("--min-size", type=int, dest="min_size")
    p.add_argument("--max-queries", type=int, dest="max_queries")
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--mode",
        choices=clustering.MODES,
        default=clustering.MODE_SANITIZED,
    )
    p.set_defaults(run=cmd_cluster)

    p = sub.add_parser("simulate", help="run a federated training simulation")
    add_common(p)
    p.add_argument("--mode", choices=federation.RUN_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--offline-probability", type=float, dest="offline_probability")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("attack", help="top-k retrieval attack on exposed vectors")
    add_common(p)
    p.add_argument("--exposed", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--targets", help="JSON file: one identity list per exposed vector")
    p.set_defaults(run=cmd_attack)

    p = sub.add_parser("gradcheck", help="finite-difference check of the loss gradients")
    add_common(p)
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(args)
    except (ParseError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (CapfedError, OSError, json.JSONDecodeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
