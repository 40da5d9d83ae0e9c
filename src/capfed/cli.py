"""Command-line entry point: calibrate, occupancy, cluster, simulate, attack.

Configuration is a flat key = value file; command-line flags override file
values. Besides ``seed``, a key is ``<section>.<field>``, and the field of
that section's dataclass alone gives its type and default: ``synth``
SynthParams, ``dplc`` ClusteringParams, ``dp`` PrivacyBudget, ``loss``
LossConfig, ``fed`` FederationConfig, except that FederationConfig's
evaluation fields are ``eval.positives``, ``eval.negatives`` and
``eval.far_targets``. A flag sets the key that is its argparse ``dest``
(``--rho`` sets ``dplc.rho``). Only a flag says where outputs go:
calibrate, cluster and attack print their JSON result and also write it to
``--out``; occupancy prints its CSV and writes it to ``--out`` (default
``occupancy_d<d>.csv``); simulate writes its rounds and summary files into
``--out-dir`` (default the working directory).

Every output format is defined here; the other modules return plain
records. Outputs embed the resolved configuration and seed but not their own
location, are written atomically, and are byte-identical for identical
invocations.

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
from .errors import CapfedError, ValidationError, ZeroVectorError
from .geometry import checked_row_norms, occupancy_ratio

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
    **{key: (_CASTERS[f.type], f.default)
       for _, keys in _SECTIONS.values() for key, f in keys.items()},
}


@dataclass
class RunConfig:
    """Fully resolved configuration, echoed verbatim into every output."""

    seed: int
    synth_params: synth.SynthParams
    fed_config: federation.FederationConfig
    resolved: dict = field(default_factory=dict)


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in first_line:
            first = first_line[key]
            raise ValidationError(f"{path}: {key} is set twice, on lines {first} and {lineno}")
        first_line[key] = lineno
        values[key] = value
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
    return RunConfig(resolved["seed"], synth_params, fed_config, echo)


# ---------------------------------------------------------------------------
# file formats


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _round_record(mode: str, r: federation.RoundRecord) -> dict:
    """A round's line in the rounds file: its public results; the fidelities stay out."""
    return {
        "record": "round",
        "mode": mode,
        "round": r.round_index,
        "online_clients": r.online_clients,
        "queries_by_client": {str(c): q for c, q in r.queries_by_client.items()},
        "loss_by_client": {str(c): loss for c, loss in r.loss_by_client.items()},
        "tar_by_far": {repr(far): tar for far, tar in r.tar_by_far.items()},
        "cross_client_margin": r.cross_client_margin,
        "ledger_totals": {str(c): list(total) for c, total in r.ledger_totals.items()},
    }


def read_embeddings(path) -> np.ndarray:
    """Load a CSV or binary embeddings file (sniffed by magic bytes).

    Returns float64 values that are exactly the stored float32 values, all
    of them finite, in at least one row.
    """
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"embeddings file not found: {path}")
    blob = p.read_bytes()
    if blob[:4] == EMBEDDINGS_MAGIC:
        if len(blob) < 12:
            raise ValidationError(f"{path}: truncated binary embeddings header")
        n, d = struct.unpack("<II", blob[4:12])
        expected = 12 + 4 * n * d
        if len(blob) != expected:
            raise ValidationError(f"{path}: expected {expected} bytes for {n}x{d}, got {len(blob)}")
        rows = np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, d)
    else:
        try:
            text = blob.decode()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: neither binary magic nor text CSV") from exc
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValidationError(f"{path}: empty embeddings file")
        try:
            n, d = (int(part) for part in lines[0].split(","))
        except ValueError as exc:
            raise ValidationError(f"{path}:1: header must be 'n,d'") from exc
        if n < 0 or d < 0:
            raise ValidationError(f"{path}:1: header sizes must be >= 0, got {n},{d}")
        if len(lines) - 1 != n:
            raise ValidationError(f"{path}: header says {n} rows, found {len(lines) - 1}")
        rows = np.empty((n, d), dtype=np.float32)
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != d:
                raise ValidationError(f"{path}:{i}: expected {d} values, got {len(parts)}")
            try:
                rows[i - 2] = [np.float32(p) for p in parts]
            except ValueError as exc:
                raise ValidationError(f"{path}:{i}: {exc}") from exc
    if rows.shape[0] == 0:
        raise ValidationError(f"{path}: no embedding rows")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{path}: row {int(np.argmin(finite))} holds a non-finite value")
    return rows.astype(float)


def _input_row_norms(path, rows: np.ndarray) -> np.ndarray:
    """Row norms of an embeddings file's rows; a zero row is an input error naming it."""
    try:
        return checked_row_norms(rows)
    except ZeroVectorError as exc:
        raise ValidationError(f"{path}: {exc}; a zero vector has no direction") from exc


def load_unit_embeddings(path) -> np.ndarray:
    """Load embeddings and normalize rows, warning when renormalization bites.

    The norms are taken in blocks of rows and the rows are divided by them in
    place, in the fresh float64 array read_embeddings returns, so no second
    (n, d) array is made.
    """
    arr = read_embeddings(path)
    norms = _input_row_norms(path, arr)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        print(f"warning: {path}: rows are not unit norm; normalizing on load", file=sys.stderr)
    arr /= norms[:, None]
    return arr


# ---------------------------------------------------------------------------
# subcommands


def _emit_json(payload: dict, args) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        _atomic_write(Path(args.out), text)


def _config_overrides(args) -> dict:
    """The config keys set by flags: each such flag's dest is its key."""
    return {k: v for k, v in vars(args).items() if k in _SCHEMA and v is not None}


def cmd_calibrate(args) -> int:
    if args.size < 1:
        raise ValidationError("size: must be >= 1")
    cfg = parse_config(args.config, _config_overrides(args))
    budget = cfg.fed_config.clustering_params.budget
    rho = cfg.fed_config.clustering_params.rho
    size = args.size
    sensitivity = {
        "tight": dp.tight_sensitivity(size, rho),
        "weak": dp.weak_sensitivity(size, rho),
        "naive": dp.NAIVE_SENSITIVITY,
    }
    payload = {
        "config": cfg.resolved,
        "inputs": {"size": size, "rho": rho, "epsilon": budget.epsilon, "delta": budget.delta},
        "sigma": {bound: dp.gaussian_sigma(s, budget) for bound, s in sensitivity.items()},
        "sensitivity": sensitivity,
    }
    _emit_json(payload, args)
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
    text = "\n".join(lines) + "\n"
    _atomic_write(Path(args.out or f"occupancy_d{args.d}.csv"), text)
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
    ledger = dp.PrivacyLedger()
    ledger.charge(args.embeddings, params.budget, report.charged)
    payload = {
        "config": cfg.resolved,
        "seed": cfg.seed,
        "mode": args.mode,
        "clusters": [
            {"center": [float(v) for v in row], "margin": margin, "size": size, "query_index": i}
            for i, (row, size) in enumerate(zip(report.centers, report.sizes), 1)
        ],
        "queries_used": report.queries_used,
        "ledger_delta": list(ledger.totals().get(args.embeddings, (0.0, 0.0))),
    }
    _emit_json(payload, args)
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
    outdir = Path(args.out_dir).absolute()
    prefix = mode.replace("-", "_")

    header = {"record": "header", "config": cfg.resolved, "seed": cfg.seed}
    lines = [json.dumps(header, sort_keys=True)]
    for r in report.rounds:
        final = _round_record(mode, r)  # the summary's final_* values come from the last one
        lines.append(json.dumps(final, sort_keys=True))
    _atomic_write(outdir / f"{prefix}_rounds.jsonl", "\n".join(lines) + "\n")

    fidelities = [f for r in report.rounds for f in r.fidelities]
    hist_counts, _ = np.histogram(fidelities, bins=100, range=(-1.0, 1.0))
    summary = {
        "config": cfg.resolved,
        "seed": cfg.seed,
        "mode": mode,
        "rounds": len(report.rounds),
        "final_tar_by_far": final["tar_by_far"],
        "final_cross_client_margin": final["cross_client_margin"],
        "final_ledger_totals": final["ledger_totals"],
        "cosine_fidelity_samples": fidelities,
        "cosine_fidelity_hist_counts": [int(c) for c in hist_counts],
        "cosine_fidelity_hist_range": [-1.0, 1.0],
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    _atomic_write(outdir / f"{prefix}_summary.json", text)
    brief = {"mode": mode, "final_tar_by_far": final["tar_by_far"], "out_dir": str(outdir)}
    sys.stdout.write(json.dumps(brief, sort_keys=True) + "\n")
    return 0


def cmd_attack(args) -> int:
    if args.k < 1:
        raise ValidationError("k: must be >= 1")
    exposed = read_embeddings(args.exposed)
    _input_row_norms(args.exposed, exposed)  # knn_attack matches exposed rows by direction
    gallery = read_embeddings(args.gallery)
    if exposed.shape[1] != gallery.shape[1]:
        raise ValidationError(f"{args.exposed} has dim {exposed.shape[1]} but "
                              f"{args.gallery} has dim {gallery.shape[1]}")
    n_gallery = gallery.shape[0]
    gallery /= _input_row_norms(args.gallery, gallery)[:, None]  # knn_attack ranks it as given
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
    scores = synth.knn_attack(exposed, gallery, args.k, targets)
    payload = {
        "k": args.k,
        "gallery_size": n_gallery,
        "exposed": int(exposed.shape[0]),
        "success_rate": float(np.mean(scores)),
        "per_exposed": [float(v) for v in scores],
    }
    _emit_json(payload, args)
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
    config_help = "key = value configuration file"
    out_help = "also write the JSON result to this file"

    p = sub.add_parser("calibrate", help="noise scales for a cluster release")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", help=out_help)
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
    p.add_argument("--out", help="CSV file to write (default occupancy_d<d>.csv)")
    p.set_defaults(run=cmd_occupancy)

    p = sub.add_parser("cluster", help="cluster an embeddings file")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", help=out_help)
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
    p.add_argument("--config", help=config_help)
    p.add_argument("--out-dir", default=os.curdir,
                   help="directory to write the rounds and summary files to (default: cwd)")
    p.add_argument("--mode", choices=federation.RUN_MODES, dest="fed.mode")
    p.add_argument("--seed", type=int)
    p.add_argument("--rounds", type=int, dest="fed.rounds")
    p.add_argument("--rho", type=float, dest="dplc.rho")
    p.add_argument("--eps", type=float, dest="dp.epsilon")
    p.add_argument("--offline-probability", type=float, dest="fed.offline_probability")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("attack", help="top-k retrieval attack on exposed vectors")
    p.add_argument("--out", help=out_help)
    p.add_argument("--exposed", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--targets", help="JSON file: one list of gallery rows per exposed vector")
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
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (CapfedError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
