"""Run ``python -m repro ARGS...`` with the layer wrappers installed.

    PERFBENCH_SPANS_DIR=DIR python perfbench/launcher.py evaluate --seed 42

The traced counterpart of the cold CLI (and of the service worker):
it imports the CLI, installs :mod:`tracing`, calls the CLI's ``main``,
and on exit appends this process's spans to ``DIR/<pid>.ndjson``.
SIGTERM becomes ``KeyboardInterrupt``, which the worker loop treats as
a clean stop, so a terminated worker still writes its spans.
"""

from __future__ import annotations

import os
import signal
import sys

import repro.__main__ as cli

import tracing


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main() -> int:
    tracing.install()
    tracing.TRACER.run_id = os.environ.get(tracing.RUN_ID_ENV, "")
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracing.flush()


if __name__ == "__main__":
    sys.exit(main())
