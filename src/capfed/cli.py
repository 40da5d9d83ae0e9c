"""Command-line entry point: calibrate, occupancy, cluster, simulate, attack.

Configuration is a flat key = value file; command-line flags override file
values. Besides ``seed`` and ``out_dir``, a key is ``<section>.<field>``, and
the field of that section's dataclass alone gives its type and default:
``synth`` SynthParams, ``dplc`` ClusteringParams, ``dp`` PrivacyBudget,
``loss`` LossConfig, ``fed`` FederationConfig, except that FederationConfig's
evaluation fields are ``eval.positives``, ``eval.negatives`` and
``eval.far_targets``. A flag sets the key that is its argparse ``dest``
(``--rho`` sets ``dplc.rho``), except that ``--out-dir`` picks where outputs
go, ahead of the ``out_dir`` key, and leaves the echoed key as it is.
Outputs embed the resolved configuration and seed, are written atomically,
and are byte-identical for identical invocations.

Exit codes: 0 success, 1 usage, 2 validation, 3 runtime.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import clustering, dp, federation, losses, synth
from .errors import CapfedError, ParseError, ValidationError, ZeroVectorError
from .geometry import checked_row_norms, occupancy_ratio

OUTDIR_ENV = "CAPFED_OUTDIR"
EMBEDDINGS_MAGIC = b"DPLC"


# ---------------------------------------------------------------------------
# configuration schema


def _cast_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(raw).split(",") if part.strip())


# Casters by field annotation (the dataclass modules use postponed annotations).
_CASTERS = {"int": int, "float": float, "str": str, "tuple[float, ...]": _cast_float_list}
# FederationConfig fields that are keyed eval.* instead of fed.*.
_EVAL_FIELDS = ("eval_positives", "eval_negatives", "far_targets")


def _section(prefix: str, cls, skip=()) -> tuple[type, dict]:
    """A config section: its dataclass and the field behind each of its config keys."""
    keys = {}
    for f in fields(cls):
        if f.name in _EVAL_FIELDS:
            keys["eval." + f.name.removeprefix("eval_")] = f
        elif f.name not in skip:
            keys[f"{prefix}.{f.name}"] = f
    return cls, keys


_SECTIONS = {
    "dp": _section("dp", dp.PrivacyBudget),
    "dplc": _section("dplc", clustering.ClusteringParams, ("budget", "mode")),
    "loss": _section("loss", losses.LossConfig),
    "synth": _section("synth", synth.SynthParams),
    "fed": _section("fed", federation.FederationConfig, ("clustering_params", "loss")),
}


_SCHEMA: dict[str, tuple] = {
    "seed": (int, 0),
    "out_dir": (str, ""),
    **{key: (_CASTERS[f.type], f.default)
       for _, keys in _SECTIONS.values() for key, f in keys.items()},
}
# --out-dir picks where outputs go; it never rewrites the echoed out_dir key.
_FLAG_KEYS = _SCHEMA.keys() - {"out_dir"}


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

    def build(prefix, **extra):
        cls, keys = _SECTIONS[prefix]
        try:
            return cls(**{f.name: resolved[key] for key, f in keys.items()}, **extra)
        except CapfedError as exc:
            raise ValidationError(f"{prefix}: {exc}") from exc

    # a config with several bad sections reports the first in this order
    clustering_params = build("dplc", budget=build("dp"))
    loss_config = build("loss")
    synth_params = build("synth")
    fed_config = build("fed", clustering_params=clustering_params, loss=loss_config)
    echo = {k: (list(v) if isinstance(v, tuple) else v) for k, v in resolved.items()}
    return RunConfig(resolved["seed"], resolved["out_dir"], synth_params, fed_config, echo)


# ---------------------------------------------------------------------------
# file formats


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def read_embeddings(path) -> np.ndarray:
    """Load a CSV or binary embeddings file (sniffed by magic bytes).

    Returns float64 values that are exactly the stored float32 values, all
    of them finite, in at least one row.
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
        rows = np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, d)
    else:
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
        if n < 0 or d < 0:
            raise ParseError(f"{path}:1: header sizes must be >= 0, got {n},{d}")
        if len(lines) - 1 != n:
            raise ParseError(f"{path}: header says {n} rows, found {len(lines) - 1}")
        rows = np.empty((n, d), dtype=np.float32)
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != d:
                raise ParseError(f"{path}:{i}: expected {d} values, got {len(parts)}")
            rows[i - 2] = [np.float32(p) for p in parts]
    if rows.shape[0] == 0:
        raise ParseError(f"{path}: no embedding rows")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: row {int(np.argmin(finite))} holds a non-finite value")
    return rows.astype(float)


def _input_row_norms(path, rows: np.ndarray) -> np.ndarray:
    """Row norms of an embeddings file's rows; a zero row is an input error naming it."""
    try:
        return checked_row_norms(rows)
    except ZeroVectorError as exc:
        raise ParseError(f"{path}: {exc}; a zero vector has no direction") from exc


def load_unit_embeddings(path) -> np.ndarray:
    """Load embeddings and normalize rows, warning when renormalization bites."""
    arr = read_embeddings(path)
    norms = _input_row_norms(path, arr)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        print(f"warning: {path}: rows are not unit norm; normalizing on load", file=sys.stderr)
    return arr / norms[:, None]


# ---------------------------------------------------------------------------
# subcommands


def _out_dir(args, configured: str = "") -> Path:
    """--out-dir, else the configured out_dir, else $CAPFED_OUTDIR, else the cwd."""
    chosen = args.out_dir or configured or os.environ.get(OUTDIR_ENV)
    return Path(chosen) if chosen else Path.cwd()


def _emit_json(payload: dict, args, default_name: str, configured_out_dir: str = "") -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if getattr(args, "out", None):
        _atomic_write(Path(args.out), text)
    elif getattr(args, "save", False):
        _atomic_write(_out_dir(args, configured_out_dir) / default_name, text)


def _config_overrides(args) -> dict:
    """The config keys set by flags: each such flag's dest is its key."""
    return {k: v for k, v in vars(args).items() if k in _FLAG_KEYS and v is not None}


def cmd_calibrate(args) -> int:
    if args.size < 1:
        raise ValidationError("size: must be >= 1")
    cfg = parse_config(args.config, _config_overrides(args))
    budget = cfg.fed_config.clustering_params.budget
    rho = cfg.fed_config.clustering_params.rho
    size = args.size
    cals = {
        "tight": dp.sigma_tight(size, rho, budget),
        "weak": dp.sigma_weak(size, rho, budget),
        "naive": dp.naive_sigma(budget),
    }
    payload = {
        "config": cfg.resolved,
        "inputs": {"size": size, "rho": rho, "epsilon": budget.epsilon, "delta": budget.delta},
        "sigma": {bound: cal.sigma for bound, cal in cals.items()},
        "sensitivity": {bound: cal.sensitivity for bound, cal in cals.items()},
    }
    _emit_json(payload, args, "calibrate.json", cfg.out_dir)
    return 0


def cmd_occupancy(args) -> int:
    if args.d < 2:
        raise ValidationError("d: must be >= 2")
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
    cfg = parse_config(args.config, _config_overrides(args))
    centers = load_unit_embeddings(args.embeddings)
    params = replace(cfg.fed_config.clustering_params, mode=args.mode)
    if args.mode != clustering.MODE_NAIVE_PER_CENTER and params.min_cluster_size > len(centers):
        print(
            f"warning: min cluster size {params.min_cluster_size} exceeds the "
            f"{len(centers)} centers in {args.embeddings}; no cluster can be released",
            file=sys.stderr,
        )
    rng = federation.derive_rng(cfg.seed, "cli-cluster")
    report = clustering.run_clustering(centers, params, rng)
    margin = 0.0 if args.mode == clustering.MODE_NAIVE_PER_CENTER else params.rho
    budget = params.budget
    payload = {
        "config": cfg.resolved,
        "seed": cfg.seed,
        "mode": args.mode,
        "clusters": [
            {"center": [float(v) for v in row], "margin": margin, "size": size, "query_index": i}
            for i, (row, size) in enumerate(zip(report.centers, report.sizes), 1)
        ],
        "queries_used": report.queries_used,
        "ledger_delta": [report.charged * budget.epsilon, report.charged * budget.delta],
    }
    _emit_json(payload, args, "clusters.json", cfg.out_dir)
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config, _config_overrides(args))
    synth_params, fed_config = cfg.synth_params, cfg.fed_config
    if synth_params.clients < 2:
        raise ValidationError("synth.clients: a simulation needs at least 2 clients, "
                              "since every negative verification pair spans two")
    c, s = synth_params.clients, synth_params.samples_per_identity
    shard = synth_params.ids_per_client * s
    for key, asked, held in (  # the distinct pairs synth.make_verification_pairs draws from
        ("eval.positives", fed_config.eval_positives, c * shard * (s - 1) // 2),
        ("eval.negatives", fed_config.eval_negatives, math.comb(c, 2) * shard**2),
    ):
        if asked > held:
            raise ValidationError(f"{key}: {asked} pairs requested, but the federation "
                                  f"holds only {held} distinct ones")
    mode = fed_config.mode
    classes = synth_params.ids_per_client
    min_size = fed_config.clustering_params.min_cluster_size
    if mode != federation.MODE_PHI and min_size > classes:
        print(
            f"warning: dplc.min_cluster_size={min_size} exceeds the {classes} classes of "
            f"every client; mode {mode} releases no cluster",
            file=sys.stderr,
        )
    fed = synth.generate_federation(synth_params, federation.derive_rng(cfg.seed, "synth"))
    report = federation.run_federation(fed_config, fed, cfg.seed)
    outdir = _out_dir(args, cfg.out_dir)
    prefix = mode.replace("-", "_")

    header = {"record": "header", "config": cfg.resolved, "seed": cfg.seed}
    lines = [json.dumps(header, sort_keys=True)]
    for r in report.rounds:
        record = {"record": "round", "mode": mode, **r.to_dict()}
        lines.append(json.dumps(record, sort_keys=True))
    _atomic_write(outdir / f"{prefix}_rounds.jsonl", "\n".join(lines) + "\n")

    fidelities = [f for r in report.rounds for f in r.fidelities]
    hist_counts, _ = np.histogram(fidelities, bins=100, range=(-1.0, 1.0))
    final = report.rounds[-1]
    final_tar = federation.tar_payload(final.tar_by_far)
    summary = {
        "config": cfg.resolved,
        "seed": cfg.seed,
        "mode": mode,
        "rounds": len(report.rounds),
        "final_tar_by_far": final_tar,
        "final_cross_client_margin": final.cross_client_margin,
        "final_ledger_totals": federation.totals_payload(final.ledger_totals),
        "cosine_fidelity_samples": fidelities,
        "cosine_fidelity_hist_counts": [int(c) for c in hist_counts],
        "cosine_fidelity_hist_range": [-1.0, 1.0],
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    _atomic_write(outdir / f"{prefix}_summary.json", text)
    brief = {"mode": mode, "final_tar_by_far": final_tar, "out_dir": str(outdir)}
    sys.stdout.write(json.dumps(brief, sort_keys=True) + "\n")
    return 0


def cmd_attack(args) -> int:
    if args.k < 1:
        raise ValidationError("k: must be >= 1")
    exposed = read_embeddings(args.exposed)
    _input_row_norms(args.exposed, exposed)  # knn_attack matches exposed rows by direction
    gallery_vectors = read_embeddings(args.gallery)
    if exposed.shape[1] != gallery_vectors.shape[1]:
        raise ValidationError(f"{args.exposed} has dim {exposed.shape[1]} but "
                              f"{args.gallery} has dim {gallery_vectors.shape[1]}")
    n_gallery = gallery_vectors.shape[0]
    gallery = synth.AttackGallery(
        np.arange(n_gallery),
        gallery_vectors / _input_row_norms(args.gallery, gallery_vectors)[:, None],
    )
    if args.targets:
        try:
            targets = json.loads(Path(args.targets).read_text())
        except (OSError, ValueError) as exc:
            raise ValidationError(f"targets: {exc}") from exc
        sets = [t if type(t) is list else [t] for t in targets] if type(targets) is list else None
        if sets is None or len(sets) != len(exposed):
            raise ValidationError("targets: need a list with one entry per exposed vector")
        for entry, ids in enumerate(sets):
            if not ids or not all(type(i) is int and 0 <= i < n_gallery for i in ids):
                raise ValidationError(f"targets: entry {entry} is not a gallery row in [0, "
                                      f"{n_gallery}) or a non-empty list of them: {ids}")
    else:
        targets = [[i] for i in range(exposed.shape[0])]
    result = synth.knn_attack(exposed, gallery, args.k, targets)
    payload = {
        "k": args.k,
        "gallery_size": n_gallery,
        "exposed": int(exposed.shape[0]),
        "success_rate": result.success_rate,
        "per_exposed": [float(v) for v in result.per_exposed],
    }
    _emit_json(payload, args, "attack.json")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefixes: --out must not pass as --out-dir
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="capfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--config": {"help": "key = value configuration file"},
              "--out": {"help": "write the JSON result to this file as well"},
              "--out-dir": {"help": f"output directory (default ${OUTDIR_ENV} or cwd)"},
              "--save": {"action": "store_true", "help": "also write the default output file"}}

    def add_common(p, *flags):
        for flag in flags or common:
            p.add_argument(flag, **common[flag])

    p = sub.add_parser("calibrate", help="noise scales for a cluster release")
    add_common(p)
    p.add_argument("--size", type=int, required=True, help="cluster size |S|")
    p.add_argument("--rho", type=float, dest="dplc.rho", help="cluster margin")
    p.add_argument("--eps", type=float, dest="dp.epsilon", help="per-release epsilon")
    p.add_argument("--delta", type=float, dest="dp.delta", help="per-release delta")
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
    p.add_argument("--rho", type=float, dest="dplc.rho")
    p.add_argument("--min-size", type=int, dest="dplc.min_cluster_size")
    p.add_argument("--max-queries", type=int, dest="dplc.max_queries")
    p.add_argument("--eps", type=float, dest="dp.epsilon")
    p.add_argument("--delta", type=float, dest="dp.delta")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--mode",
        choices=clustering.MODES,
        default=clustering.MODE_SANITIZED,
    )
    p.set_defaults(run=cmd_cluster)

    p = sub.add_parser("simulate", help="run a federated training simulation")
    add_common(p, "--config", "--out-dir")
    p.add_argument("--mode", choices=federation.RUN_MODES, dest="fed.mode")
    p.add_argument("--seed", type=int)
    p.add_argument("--rounds", type=int, dest="fed.rounds")
    p.add_argument("--rho", type=float, dest="dplc.rho")
    p.add_argument("--eps", type=float, dest="dp.epsilon")
    p.add_argument("--offline-probability", type=float, dest="fed.offline_probability")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("attack", help="top-k retrieval attack on exposed vectors")
    add_common(p, "--out", "--out-dir", "--save")
    p.add_argument("--exposed", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--targets", help="JSON file: one identity list per exposed vector")
    p.set_defaults(run=cmd_attack)

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
    except (CapfedError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
