"""``repro serve`` with the benchmark's spans installed.

Runs the unchanged ``repro serve`` command line after
:func:`tracer.install`, and writes the spans when the server has
drained and returned:

    python3 perfbench/serve_traced.py SPANS.jsonl serve --port 0 ...
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    spans = tracer.Tracer("s")
    tracer.install(spans)
    try:
        return cli.main(argv)
    finally:
        spans.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
