"""Start `repro serve` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py TRACE_FILE serve --socket S ...

Runs the daemon exactly as ``python -m repro serve ...`` would, with
the wrappers of :mod:`spans` around each layer's entry points.  When
the daemon stops (a ``shutdown`` request), the spans are summarised
into ``TRACE_FILE`` (JSON: per-layer self times and calls, plus the
duration of every ``server.check_text`` span keyed by request id) and
written in full next to it as ``TRACE_FILE.spans.gz``.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import repro.__main__ as cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        threads = tracer.threads()
        requests = {
            request: (end - start) / 1e9
            for _thread, rows in threads
            for name, start, end, _parent, request in rows
            if name == "server.check_text" and end
        }
        with open(trace_file, "w", encoding="utf-8") as out:
            json.dump({"layers": spans.summarize(threads), "requests": requests}, out)
        tracer.dump(trace_file + ".spans.gz")


if __name__ == "__main__":
    sys.exit(main())
