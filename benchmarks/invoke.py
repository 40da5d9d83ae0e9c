"""Run one `capfed.cli.main` invocation in this process and record how it went.

    python3 benchmarks/invoke.py SPEC.json

SPEC holds {"argv": [...], "result": path, "trace": path or null}. The
result file gets the CLI's exit code, the wall time of the `cli.main` call
alone (imports excluded), and this process's peak RSS. With a trace path,
the layers are wrapped first and their spans are written there afterwards.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from common import import_capfed


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import_capfed()
    from capfed import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    code = None
    start = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except Exception:  # the benchmark records the failure and goes on
        error = traceback.format_exc()
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(spec["trace"])
    result = {"exit_code": code, "error": error, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
