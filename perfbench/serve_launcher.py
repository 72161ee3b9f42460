"""Run ``python -m repro.serve`` with the span wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_OUT [repro.serve args...]``.
The wrappers go in before the service's entry point runs; the spans are
written to ``SPANS_OUT`` when the server returns after ``/v1/shutdown``.
"""

from __future__ import annotations

import sys

from spans import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
