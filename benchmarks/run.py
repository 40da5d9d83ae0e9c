"""capfed benchmark: run a workload through `capfed.cli.main` and print its metrics.

    python3 benchmarks/run.py --workload sim-paper --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 1

The inputs are made from --seed. Set-up is timed first, by calling the
program's set-up functions directly in this process. Then `capfed` runs again
and again, each time in a fresh child process (so that peak RSS is per
invocation), until --seconds have passed. Every invocation's outputs are
checked; a failed check counts as a failed invocation. With --trace 1 the
invocations alternate between untraced and traced ones, and the per-layer
metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A machine description and
every invocation go to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from common import ROOT, ProgramMissing, import_capfed
from tracing import SPAN_NAMES, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
SETUP_MIN_REPS = 7
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
MIN_UNTRACED = 3  # the replay check compares at least this many outputs
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer():
    timed = (
        ("losses.grad", ("calls", "self_s")),
        ("federation.local_round", ("calls", "self_s")),
        ("federation.aggregate", ("s",)),
        ("federation.orchestration", ("self_s",)),
        ("federation.init", ("s",)),
        ("clustering.run", ("self_s",)),
        ("clustering.pairwise", ("s",)),
        ("clustering.densest", ("s", "calls")),
        ("dp.ledger", ("s",)),
        ("dp.noise", ("s", "calls")),
        ("synth.generate", ("s",)),
        ("synth.pairs", ("s",)),
        ("synth.eval", ("s",)),
        ("synth.margin", ("s",)),
        ("geometry.normalize_rows", ("calls", "s")),
        ("cli.read_embeddings", ("s",)),
    )
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "s": ("s", "lower")}
    table = [(f"{span}.{key}", *units[key]) for span, keys in timed for key in keys]
    table += [
        ("cli.self_s", "s", "lower"),
        ("losses.grad.us_per_call", "us", "lower"),
        ("losses.grad.gflop", "GFLOP", "lower"),
        ("losses.grad.gflop_per_s", "GFLOP/s", "higher"),
        ("clustering.dense_bytes", "bytes", "lower"),
        ("clustering.release_yield", "ratio", "higher"),
        ("synth.eval.tar_far_1e-2", "ratio", "higher"),
        ("dp.ledger.entries", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
    ]
    table += [(f"{span}.errors", "count", "lower") for span in SPAN_NAMES]
    return tuple(table)


PER_LAYER = _per_layer()
COMPUTED = ("losses.grad.gflop", "losses.grad.gflop_per_s", "clustering.dense_bytes")


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def invoke(inputs, work: Path, index: int, traced: bool) -> dict:
    """One `capfed` invocation in a child process, with its output checks."""
    out_dir = work / f"inv{index}"
    out_dir.mkdir()
    spec = {
        "argv": inputs.argv(out_dir),
        "result": str(out_dir / "invoke.json"),
        "trace": str(out_dir / "trace.json") if traced else None,
    }
    spec_path = work / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec))
    record = {"index": index, "traced": traced, "failures": [], "run_s": None, "peak_rss_mb": None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "invoke.py"), str(spec_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        record["failures"].append(f"no result within {CHILD_TIMEOUT_S} s")
        return record
    if proc.returncode != 0:
        record["failures"].append(f"invoker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return record
    result = json.loads((out_dir / "invoke.json").read_text())
    record["run_s"], record["peak_rss_mb"] = result["run_s"], result["peak_rss_mb"]
    if result["error"] is not None:
        record["failures"].append(f"raised: {result['error']}")
    elif result["exit_code"] != 0:
        record["failures"].append(f"capfed exited {result['exit_code']}: {proc.stderr[-2000:]}")
    else:
        try:
            outcome = inputs.check(out_dir)
        except Exception:  # malformed output is a failed check, not a crash of the benchmark
            record["failures"].append(f"output check raised: {traceback.format_exc()}")
        else:
            record["failures"] += outcome.failures
            record.update(digest=outcome.digest, rows=outcome.rows, tar=outcome.tar)
    if traced:
        trace = json.loads((out_dir / "trace.json").read_text())
        record["layers"] = layer_metrics(trace)
        record["not_traced"] = trace["missing"]
    return record


def _median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def layer_summary(records: list[dict], untraced_run_s: float) -> dict[str, float]:
    traced = [r for r in records if r["traced"] and "layers" in r]
    per_invocation = []
    for r in traced:
        m = dict(r["layers"])
        m["cli.self_s"] = m["cli.main.self_s"] + m["cli.read_embeddings.self_s"]
        calls, self_s, flop = m["losses.grad.calls"], m["losses.grad.self_s"], m["losses.grad.flop"]
        m["losses.grad.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
        m["losses.grad.gflop"] = flop / 1e9
        m["losses.grad.gflop_per_s"] = flop / 1e9 / self_s if self_s else 0.0
        allowed = m["clustering.queries_allowed"]
        m["clustering.release_yield"] = m["clustering.queries_used"] / allowed if allowed else 0.0
        per_invocation.append(m)
    out = {}
    for name, _, _ in PER_LAYER:
        out[name] = _median([m.get(name) for m in per_invocation])
    traced_run_s = _median([r["run_s"] for r in traced])
    out["trace.overhead_s"] = traced_run_s - untraced_run_s
    self_total = _median([m["trace.self_s"] for m in per_invocation])
    out["trace.coverage"] = self_total / untraced_run_s if untraced_run_s else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, overrides: dict):
    workload = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workload.prepare(work, seed, tiny, overrides)
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
        ):
            start = time.perf_counter()
            inputs.setup()
            setup_times.append(time.perf_counter() - start)

        records = []
        deadline = time.perf_counter() + seconds
        while True:
            untraced = sum(not r["traced"] for r in records)
            traced_count = len(records) - untraced
            if (time.perf_counter() >= deadline and untraced >= MIN_UNTRACED
                    and (not trace or traced_count >= MIN_TRACED)):
                break
            records.append(invoke(inputs, work, len(records), trace and len(records) % 2 == 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Replay contract: every invocation of one workload and seed writes the same bytes.
    reference = next((r for r in records if r.get("digest")), None)
    for r in records:
        if r.get("digest") and r["digest"] != reference["digest"]:
            r["failures"].append(f"outputs differ from invocation {reference['index']} (replay)")

    ok = [r for r in records if not r["failures"]]
    plain = [r for r in records if not r["traced"]]
    run_s = _median([r["run_s"] for r in plain])
    first = ok[0] if ok else {"rows": 0, "tar": None}
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "rows_per_s": first["rows"] / run_s if run_s else 0.0,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "overrides": overrides,
        "machine": machine(),
        "setup_s_samples": setup_times,
        "end_to_end": end_to_end,
        "tar_far_1e-2": first["tar"],
        "invocations": [{k: v for k, v in r.items() if k != "layers"} for r in records],
    }
    table = END_TO_END
    if trace:
        report["per_layer"] = layer_summary(records, run_s)
        report["per_layer"]["synth.eval.tar_far_1e-2"] = first["tar"] or 0.0
        table = PER_LAYER
    values = report["per_layer"] if trace else end_to_end
    metrics = {n: {"value": float(values[n]), "unit": unit} for n, unit, _ in table}
    failed = len(records) - len(ok)
    RESULTS.mkdir(exist_ok=True)
    suffix = "_tiny" if tiny else ""
    out_file = RESULTS / f"BENCH_{name}_seed{seed}_trace{int(trace)}{suffix}.json"
    out_file.write_text(json.dumps(report, indent=2) + "\n")
    _print_report(report, metrics, failed, out_file)
    return metrics, len(records), failed


def _print_report(report: dict, metrics: dict, failed: int, out_file: Path) -> None:
    m = report["machine"]
    records = report["invocations"]
    plain = sorted(r["run_s"] for r in records if not r["traced"] and r["run_s"] is not None)
    print(f"== {report['workload']} seed={report['seed']} trace={int(report['trace'])}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']['name']} {m['blas']['version']} threads={m['thread_env']}")
    if plain:
        print(f"invocations: {len(plain)} untraced, run_s min {plain[0]:.4f} max {plain[-1]:.4f}")
    for name, entry in metrics.items():
        tag = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}{tag}")
    if not report["trace"] and report["tar_far_1e-2"] is not None:
        print(f"  final TAR at FAR 1e-2 (not gated)   {report['tar_far_1e-2']:.6g}")
    if report["trace"]:
        cov = report["per_layer"]["trace.coverage"]
        verdict = "within" if abs(cov - 1.0) <= 0.10 else "NOT within"
        print(f"  layer self times cover {cov:.3f} of untraced run_s ({verdict} 10%)")
    missing = sorted({name for r in records for name in r.get("not_traced", ())})
    if missing:
        print(f"  not found in capfed, so not traced: {', '.join(missing)}")
    print(f"  error_rate {failed}/{len(records)}")
    for r in records:
        for failure in r["failures"]:
            print(f"  FAILED invocation {r['index']}: {failure}")
    print(f"  result file: {out_file.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (harness test)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a capfed config key of the workload (harness test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        import_capfed()
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    overrides = dict(item.split("=", 1) for item in args.set)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, overrides)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
