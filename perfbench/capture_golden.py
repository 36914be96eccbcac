"""Regenerate golden.json, the reference outputs the benchmark checks jobs against.

Usage (from the repository root): python3 perfbench/capture_golden.py

Every invocation any workload can generate is listed in all three formats.
Non-verify jobs are run once here with no Groebner cache and checked later by
the sha256 of their stdout, which is byte-deterministic.  Verify jobs are
checked by exit status 0 and an overall "pass" instead, because raising or
lifting genus caps legitimately changes their text.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

from run import FORMATS, GOLDEN_PATH, WORKLOADS, Job, Runner, commit_id

DIGEST_WHY = "deterministic stdout; the sha256 taken at capture must match byte for byte"
STATUS_WHY = (
    "verify text changes when genus caps move, so it is checked by exit "
    "status 0 and overall pass, not by digest"
)


def all_jobs() -> list[Job]:
    args = {a for w in WORKLOADS.values() for a in w.base}
    args |= {w.fill.args for w in WORKLOADS.values() if w.fill}
    return [Job(a, fmt) for a in sorted(args) for fmt in FORMATS]


def main() -> int:
    root = Path.cwd().resolve()
    entries = {}
    with Runner(root, time.perf_counter(), deadline_s=3600.0) as runner:
        for job in all_jobs():
            if job.args[0] == "verify":
                entries[job.key] = {"check": "status", "why": STATUS_WHY}
                continue
            done = runner.spawn([sys.executable, "-m", "su2rep", *job.argv])
            if done.returncode != 0:
                sys.stderr.write(
                    f"{job.key}: exit status {done.returncode}\n"
                    + done.stderr.decode(errors="replace")
                )
                return 1
            entries[job.key] = {
                "check": "digest",
                "sha256": hashlib.sha256(done.stdout).hexdigest(),
                "bytes": len(done.stdout),
                "why": DIGEST_WHY,
            }
            print(f"{job.key}: {len(done.stdout)} bytes", file=sys.stderr)
    golden = {
        "captured_at_commit": commit_id(root),
        "python": platform.python_version(),
        "jobs": entries,
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
