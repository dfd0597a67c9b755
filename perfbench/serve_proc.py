"""Launch gendp-serve as shipped, optionally with the benchmark's spans.

Usage: ``python3 perfbench/serve_proc.py [--trace-dir DIR] -- <gendp-serve args>``

Without ``--trace-dir`` this is exactly ``gendp-serve <args>``.  With it,
:func:`tracing.install` wraps the layers in this process before the
server (and its forked warm workers) start, and the spans plus the
engine's own counters are written to DIR once the server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv):
    trace_dir = None
    if argv and argv[0] == "--trace-dir":
        trace_dir, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    from repro.cli import serve_main

    if trace_dir is None:
        return serve_main(argv)

    import json

    import repro.engine.service as service
    import tracing

    recorder = tracing.SpanRecorder(Path(trace_dir))
    engines = []
    engine_init = service.Engine.__init__

    def keep_engine(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    service.Engine.__init__ = keep_engine
    tracing.install(recorder, serve=True)
    try:
        return serve_main(argv)
    finally:
        recorder.dump("server")
        counters = engines[0].metrics.snapshot().get("counters", {}) if engines else {}
        with open(Path(trace_dir) / "engine-counters.txt", "w", encoding="utf-8") as handle:
            json.dump(counters, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
