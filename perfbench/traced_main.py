"""Run one su2rep CLI invocation with layer spans recorded.

Usage: python perfbench/traced_main.py SPANS_FILE JOB_ID -- CLI_ARGS...

Behaves like `python -m su2rep CLI_ARGS...` (same stdout, same exit status)
but first wraps the functions named in `layers.SPECS`, then writes the spans
of the call to SPANS_FILE as JSONL.  The spans never go to stdout.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, job, cli_args = Path(argv[0]), argv[1], argv[3:]
    recorder = layers.Recorder(job)
    start = time.perf_counter()
    import su2rep.cli  # noqa: E402  (timed import)
    recorder.add(layers.IMPORT_SPAN, start, time.perf_counter())
    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name.startswith("su2rep.") and module is not None
    }
    layers.install(recorder, modules)
    try:
        return modules["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
