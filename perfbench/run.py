"""su2rep benchmark: end-to-end CLI jobs, checked outputs, optional layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of `python -m su2rep ...` jobs, each run in its
own subprocess with PYTHONPATH=src, one after another.  The seed shuffles the
job order and spreads the three output formats evenly over the jobs; the
program sees nothing but the generated command-line arguments.

--trace 0 repeats the job list (a "pass") until --seconds have elapsed and
reports end-to-end metrics, times in reference seconds (see REFERENCE_CAL_S).  --trace 1 alternates untraced and traced passes
(at least two traced) and reports the per-layer metrics of `layers.py`.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
A record with machine context and per-job times goes to
.perfbench_work/results/.  Set-up failures (no su2rep under src/, a broken
cache fill) exit with status 2 and print no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import layers

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR_NAME = ".perfbench_work"
FORMATS = ("text", "json", "latex")
# every run, set-up included, must end well inside 180 s; no pass starts
# that would end past this
JOB_DEADLINE_S = 170.0
IMPORT_SAMPLES = 5
FILL_SAMPLES = 3
# Times are reported in reference seconds: measured seconds scaled by
# REFERENCE_CAL_S / (the launcher's speed probe around the job), so that the
# host's speed swings cancel.  0.030 s is roughly the probe's time in the
# faster of the two speed states of a 2-vCPU box with Python 3.11.7.
REFERENCE_CAL_S = 0.030

END_TO_END = (
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


# ---------------------------------------------------------------------------
# workloads and the seeded plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    fmt: str

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--format", self.fmt]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: tuple[tuple[str, ...], ...]
    # a cold run in set-up that fills the Groebner cache the jobs then read
    fill: Job | None = None


def _verify(g: int) -> tuple[str, ...]:
    return ("verify", "--genus", str(g), "--unsafe-genus-cap", str(g))


VERIFY_SWEEP = tuple(_verify(g) for g in range(2, 8))
RING_SWEEP = tuple(("ring", "--k", str(k), "--order", "120") for k in range(8))
E_BASIS_SWEEP = tuple(("e-basis", "--m", str(m)) for m in range(5))
# each genus once per format, so no seed changes the rendering mix
PAIRING_JOBS = tuple(
    ("pairing", "--genus", str(g)) for g in (12, 14, 16) for _ in FORMATS
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-cold",
            "verify g=2..7 with no Groebner cache: Buchberger dominates",
            VERIFY_SWEEP,
        ),
        Workload(
            "verify-warm",
            "verify, ring and e-basis reading a cache filled in set-up: "
            "cache reads and normal forms, no Buchberger",
            VERIFY_SWEEP + RING_SWEEP + E_BASIS_SWEEP,
            fill=Job(_verify(7), "text"),
        ),
        Workload(
            "pairing",
            "pairing matrices g=12,14,16 in every format: t/tanh t series, "
            "assembly and rendering, no Groebner code",
            PAIRING_JOBS,
        ),
    )
}


def plan(workload: Workload, seed: int) -> list[Job]:
    """The workload's jobs for this seed: formats spread evenly, order shuffled.

    The i-th base job gets format (i + offset) mod 3, so the format counts
    differ by at most one and a base list that repeats an invocation three
    times in a row (as `PAIRING_JOBS` does) gets it in every format.
    """
    rng = random.Random(seed)
    offset = rng.randrange(len(FORMATS))
    jobs = [
        Job(args, FORMATS[(i + offset) % len(FORMATS)])
        for i, args in enumerate(workload.base)
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def verify_overall(fmt: str, stdout: bytes) -> str:
    """The overall verdict a `verify` document states, read from its rendering."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        return json.loads(text)["data"]["overall"]
    if fmt == "text":
        last = text.rstrip("\n").rpartition("\n")[2]
        return last.removeprefix("overall: ").lower()
    rows = [ln for ln in text.splitlines() if ln.endswith(r"\\")][1:]
    statuses = [ln.split(" & ")[1] for ln in rows]
    if not statuses:
        return "empty"
    return "fail" if "fail" in statuses else "pass"


def check_job(
    job: Job, returncode: int, stdout: bytes, stderr: bytes, golden: dict
) -> str | None:
    """Why the job's result is wrong, or None when it is right.

    A crash (killed by a signal, or an uncaught exception) is told apart
    from an unexpected exit status, which su2rep uses for a failed check.
    """
    if returncode < 0:
        return f"crashed: killed by signal {-returncode}"
    if b"Traceback (most recent call last)" in stderr:
        return f"crashed: uncaught exception (exit status {returncode})"
    if returncode != 0:
        return f"exit status {returncode}, expected 0"
    entry = golden.get(job.key)
    if entry is None:
        return "no golden entry for this job"
    if entry["check"] == "digest":
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != entry["sha256"]:
            return f"stdout sha256 {digest[:12]} differs from golden {entry['sha256'][:12]}"
        return None
    try:
        overall = verify_overall(job.fmt, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable verify output: {exc!r}"
    if overall != "pass":
        return f"verify overall is {overall!r}, expected 'pass'"
    return None


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class SetupError(RuntimeError):
    pass


@dataclass
class JobRun:
    job: Job
    pass_no: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    scale: float  # reference seconds per measured second
    stdout_sha256: str
    stdout_bytes: int
    failure: str | None
    spans: list = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class Spawned:
    wall_s: float
    cpu_s: float
    rss_mb: float
    scale: float
    returncode: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Runs jobs one at a time from the checkout root, through `spawner.py`.

    Job output, spans and the Groebner cache live in a scratch directory of
    this process under .perfbench_work/.  Use as a context manager: leaving
    it stops the launcher process and removes the scratch directory.
    """

    def __init__(self, root: Path, started: float, deadline_s: float = JOB_DEADLINE_S):
        self.root = root
        self.work = root / WORK_DIR_NAME / f"run-{os.getpid()}"
        self.started = started
        self.deadline_s = deadline_s
        self.base_env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith("PYTHON") and k != layers.CACHE_ENV_VAR
        }
        self.base_env["PYTHONPATH"] = str(root / "src")
        self.base_env["PYTHONHASHSEED"] = "0"
        self.cache_dir: Path | None = None
        self.work.mkdir(parents=True, exist_ok=True)
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", "-I", str(BENCH_DIR / "spawner.py")],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._launcher.terminate()
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def env(self) -> dict:
        env = dict(self.base_env)
        if self.cache_dir is not None:
            env[layers.CACHE_ENV_VAR] = str(self.cache_dir)
        return env

    def spawn(self, cmd: Sequence[str]) -> Spawned:
        """Run cmd to completion and collect its times, peak RSS and output."""
        remaining = self.deadline_s - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise SetupError("out of time before starting a job")
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        request = {
            "argv": list(cmd),
            "env": self.env(),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": remaining,
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise SetupError("job launcher exited")
        reply = json.loads(line)
        return Spawned(
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            rss_mb=reply["maxrss_kb"] / 1024.0,
            scale=2 * REFERENCE_CAL_S / (reply["cal_before_s"] + reply["cal_after_s"]),
            returncode=reply["returncode"],
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
        )

    def run_job(self, job: Job, pass_no: int, traced: bool, golden: dict) -> JobRun:
        if traced:
            spans_path = self.work / "spans.jsonl"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "traced_main.py"),
                   str(spans_path), job.key, "--", *job.argv]
        else:
            cmd = [sys.executable, "-m", "su2rep", *job.argv]
        done = self.spawn(cmd)
        failure = check_job(job, done.returncode, done.stdout, done.stderr, golden)
        spans = layers.read_spans(spans_path) if traced and spans_path.exists() else []
        if traced and not spans and failure is None:
            failure = "traced run wrote no spans"
        return JobRun(
            job=job,
            pass_no=pass_no,
            wall_s=done.wall_s,
            cpu_s=done.cpu_s,
            rss_mb=done.rss_mb,
            scale=done.scale,
            stdout_sha256=hashlib.sha256(done.stdout).hexdigest(),
            stdout_bytes=len(done.stdout),
            failure=failure,
            spans=spans,
        )

    # -- set-up ------------------------------------------------------------

    def import_once(self) -> float:
        """Wall time of a fresh interpreter importing su2rep.cli from src/."""
        probe = "import sys, su2rep.cli; sys.stdout.write(su2rep.cli.__file__)"
        done = self.spawn([sys.executable, "-c", probe])
        if done.returncode != 0:
            raise SetupError(f"cannot import su2rep.cli: {done.stderr.decode(errors='replace')}")
        where = Path(done.stdout.decode()).resolve()
        if (self.root / "src") not in where.parents:
            raise SetupError(f"su2rep.cli imported from {where}, not from src/")
        return done.wall_s * done.scale

    def fill_once(self, fill: Job) -> float:
        """Wall time of a cold run that writes the cache the jobs read."""
        cache = self.work / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        self.cache_dir = cache
        done = self.spawn([sys.executable, "-m", "su2rep", *fill.argv])
        failure = check_job(
            fill, done.returncode, done.stdout, done.stderr, {fill.key: {"check": "status"}}
        )
        if failure or not (cache.is_dir() and any(cache.iterdir())):
            raise SetupError(f"cache fill failed: {failure or 'no cache files'}")
        return done.wall_s * done.scale

    def setup(self, workload: Workload, samples: int) -> list[float]:
        times = []
        for _ in range(samples):
            t = self.import_once()
            if workload.fill:
                t += self.fill_once(workload.fill)
            times.append(t)
        return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def per_job_medians(runs: Sequence[JobRun]) -> dict[str, dict]:
    by_key: dict[str, list[JobRun]] = {}
    for r in runs:
        by_key.setdefault(r.job.key, []).append(r)
    return {
        key: {
            "samples": len(rs),
            "wall_ref_s": statistics.median(r.wall_s * r.scale for r in rs),
            "cpu_ref_s": statistics.median(r.cpu_s * r.scale for r in rs),
            "wall_s": statistics.median(r.wall_s for r in rs),
            "cpu_s": statistics.median(r.cpu_s for r in rs),
            "wall_samples_s": [r.wall_s for r in rs],
            "cpu_samples_s": [r.cpu_s for r in rs],
            "scale_samples": [r.scale for r in rs],
            "peak_rss_mb": max(r.rss_mb for r in rs),
        }
        for key, rs in sorted(by_key.items())
    }


def end_to_end(runs: Sequence[JobRun], setup_times: Sequence[float]) -> dict[str, float]:
    """Sums of per-job medians over passes, largest RSS, median set-up."""
    per_job = per_job_medians(runs)
    return {
        "wall_ref_s": sum(j["wall_ref_s"] for j in per_job.values()),
        "cpu_ref_s": sum(j["cpu_ref_s"] for j in per_job.values()),
        "peak_rss_mb": max(j["peak_rss_mb"] for j in per_job.values()),
        "setup_s": statistics.median(setup_times),
    }


def traced_metrics(untraced: Sequence[JobRun], traced: Sequence[JobRun]) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced passes, and exact counts that moved."""
    by_pass: dict[int, list[JobRun]] = {}
    for r in traced:
        by_pass.setdefault(r.pass_no, []).append(r)
    passes = [
        layers.layer_metrics([(r.spans, r.stdout_bytes, r.scale) for r in rs])
        for _, rs in sorted(by_pass.items())
    ]
    metrics = layers.median_metrics(passes)
    traced_wall = sum(j["wall_ref_s"] for j in per_job_medians(traced).values())
    plain_wall = sum(j["wall_ref_s"] for j in per_job_medians(untraced).values())
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    return metrics, layers.exact_mismatches(passes)


def stdout_mismatches(untraced: Sequence[JobRun], traced: Sequence[JobRun]) -> list[JobRun]:
    """Traced jobs whose stdout differs from the untraced run of the same job."""
    plain = {r.job.key: r.stdout_sha256 for r in untraced}
    return [r for r in traced if plain.get(r.job.key) != r.stdout_sha256]


# ---------------------------------------------------------------------------
# record and entry point
# ---------------------------------------------------------------------------

def commit_id(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_context(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit_id(root),
    }


def run(args: argparse.Namespace) -> dict:
    started = time.perf_counter()
    root = Path.cwd().resolve()
    if not (root / "src" / "su2rep" / "__init__.py").is_file():
        raise SetupError(f"no su2rep package under {root / 'src'}")
    workload = WORKLOADS[args.workload]
    golden = load_golden()
    jobs = plan(workload, args.seed)
    missing = [j.key for j in jobs if j.key not in golden]
    if missing:
        raise SetupError(f"jobs without golden entries: {missing}")
    load_start = os.getloadavg()
    untraced: list[JobRun] = []
    traced: list[JobRun] = []
    with Runner(root, started) as runner:
        setup_times = runner.setup(
            workload, 1 if args.trace else FILL_SAMPLES if workload.fill else IMPORT_SAMPLES
        )
        measure_start = time.perf_counter()
        pass_no = 0
        while True:
            pass_start = time.perf_counter()
            untraced += [runner.run_job(j, pass_no, False, golden) for j in jobs]
            pass_no += 1
            if args.trace:
                traced += [runner.run_job(j, pass_no, True, golden) for j in jobs]
                pass_no += 1
            now = time.perf_counter()
            if now + (now - pass_start) - started > JOB_DEADLINE_S:
                break  # another pass would overrun the deadline
            enough = not args.trace or len(traced) >= 2 * len(jobs)
            if enough and now - measure_start >= args.seconds:
                break
    measured_s = time.perf_counter() - measure_start

    runs = untraced + traced
    failures = [r for r in runs if r.failure]
    problems = [f"{r.job.key} (pass {r.pass_no}): {r.failure}" for r in failures]
    if args.trace:
        metrics, moved = traced_metrics(untraced, traced)
        mismatched = stdout_mismatches(untraced, traced)
        problems += [f"{r.job.key}: traced stdout differs from untraced" for r in mismatched]
        problems += [f"exact count {name} differs between traced passes" for name in moved]
        failed = len({id(r) for r in failures + mismatched})
        units = {m.name: m.unit for m in layers.PER_LAYER}
    else:
        metrics = end_to_end(untraced, setup_times)
        failed = len(failures)
        units = dict(END_TO_END)
    attempted = len(runs)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_context(root),
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        "measured_s": measured_s,
        "setup_samples_s": setup_times,
        "passes": pass_no,
        "measured_totals": {
            key: sum(j[key] for j in per_job_medians(untraced).values())
            for key in ("wall_s", "cpu_s")
        },
        "jobs": {
            "untraced": per_job_medians(untraced),
            "traced": per_job_medians(traced) if traced else {},
        },
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results = root / WORK_DIR_NAME / "results"
    results.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    return record


def summary_lines(record: dict) -> list[str]:
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
        f"  passes {record['passes']}  python {record['machine']['python']}"
        f"  nproc {record['machine']['nproc']}"
        f"  load {record['load_average_start'][0]:.2f} -> {record['load_average_end'][0]:.2f}",
    ]
    for key, job in record["jobs"]["untraced"].items():
        lines.append(
            f"  {key:<58} wall {job['wall_s']:7.3f} s ({job['wall_ref_s']:7.3f} ref)"
            f"  cpu {job['cpu_s']:7.3f} s ({job['cpu_ref_s']:7.3f} ref)"
            f"  rss {job['peak_rss_mb']:5.1f} MB  n={job['samples']}"
        )
    moves = {m.name: m.moves for m in layers.PER_LAYER}
    for name, m in record["metrics"].items():
        lines.append(f"{name:<42} {m['value']:>14.6g} {m['unit']:<6} {moves.get(name, '')}")
    measured = record["measured_totals"]
    lines.append(
        f"{'(measured, not scaled)':<42} wall {measured['wall_s']:.6g} s"
        f"  cpu {measured['cpu_s']:.6g} s"
    )
    lines.append(
        f"{'fail_ratio':<42} {record['fail_ratio']:>14.6g} ratio"
        f"  ({record['failed']} of {record['attempted']} jobs)"
    )
    lines += [f"PROBLEM {p}" for p in record["problems"]]
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = run(args)
    except SetupError as exc:
        sys.stderr.write(f"perfbench: set-up failed: {exc}\n")
        return 2
    print("\n".join(summary_lines(record)))
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
