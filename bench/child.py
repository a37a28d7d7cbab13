"""One round of a workload, in a fresh interpreter.

Usage: python3 child.py ROUND_SPEC.json

The spec names the program's source directory, the CLI argument lists to
pass to ``revolve.cli.main`` in order, whether to trace, and where to write
the result. The result holds the import time, the end of the first config
load (set-up ends there), each call's exit code and times, the per-span
totals, and the peak resident memory of this process and of its pool
workers. With tracing on, the raw spans go to ``spans.json`` beside it.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

from tracer import TIMING_POINTS, TRACE_POINTS, Tracer, now


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t_import = now()
    import revolve.cli as cli

    import_s = now() - t_import
    if src not in Path(cli.__file__).resolve().parents:
        print(f"revolve was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    tracer.install(TRACE_POINTS if spec["trace"] else TIMING_POINTS)
    calls = []
    for argv in spec["calls"]:
        start = now()
        try:
            code = cli.main(argv)
        except Exception:  # one failed call must not hide the others
            traceback.print_exc()
            code = 1
        calls.append({"code": code, "start": start, "end": now()})

    load_ends = [end for name, _, end, _ in tracer.spans if name == "cli.load_config"]
    result = {
        "import_s": import_s,
        "configured_at": load_ends[0] if load_ends else None,
        "calls": calls,
        "spans": tracer.totals(),
        "n_spans": len(tracer.spans),
        "peak_bytes": tracer.peak_bytes,
        "maxrss_kib": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    }
    out = Path(spec["result"])
    if spec["trace"]:
        (out.parent / "spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans})
        )
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
