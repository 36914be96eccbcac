"""Layer spans for the traced benchmark run, and the per-layer metrics made from them.

The traced run times calls into each su2rep module from outside the program:
`traced_main.py` replaces the functions listed in `SPECS` (and the renderers
in `cli.RENDERERS`) with wrappers that record one span per call.  A span is
a name, a start and an end (`time.perf_counter` seconds), the index of the
enclosing span and the job id, plus a few exact counts.  Nothing here writes
to stdout.

Hot leaf helpers (monomial arithmetic, `Poly` operators, integer polynomial
helpers) are deliberately not wrapped: they are called millions of times per
job and a span on each would swamp the timings.  Their time lands in the self
time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

# su2rep's cache file naming, mirrored to tell a cache hit from a miss
CACHE_ENV_VAR = "SU2REP_GROEBNER_CACHE"


def _cache_path(k: int) -> Path | None:
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    return Path(cache_dir) / f"relation-ideal-{k}.txt" if cache_dir else None


def _cache_probe(args: tuple, kwargs: dict) -> dict:
    path = _cache_path(args[0] if args else kwargs["k"])
    if path is None:
        return {}
    if path.exists():
        return {"cache_hit": 1, "cache_bytes_read": path.stat().st_size}
    return {"cache_miss": 1, "path": path}


def _cache_after(state: dict, result: Any) -> dict:
    path = state.pop("path", None)
    if path is not None and path.exists():
        state["cache_bytes_written"] = path.stat().st_size
    return state


def _matrix_entries(args: tuple, kwargs: dict, result: Any) -> dict:
    rows = args[0] if args else kwargs["rows"]
    if not isinstance(rows, (list, tuple)) or not rows:
        return {"entries": 0}
    return {"entries": len(rows) * len(rows[0])}


@dataclass(frozen=True)
class Spec:
    """One wrapped function: `module.attr` (attr may be `Class.method`)."""

    module: str
    attr: str
    count: Callable[[tuple, dict, Any], dict] | None = None
    # probe runs before the call, outside the span; after turns its state
    # and the result into counts
    probe: Callable[[tuple, dict], dict] | None = None
    after: Callable[[dict, Any], dict] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


# Assembly entry points are every assembly function the CLI imports, so that
# assembly.self_s covers all assembly-level work.
SPECS: tuple[Spec, ...] = (
    Spec("cli", "main"),
    Spec(
        "cli",
        "run_verification",
        count=lambda a, kw, r: {
            "checks_run": sum(c.status != "skipped" for c in r.checks),
            "checks_skipped": sum(c.status == "skipped" for c in r.checks),
            "checks_failed": sum(c.status == "fail" for c in r.checks),
        },
    ),
    Spec("groebner", "relation_ideal_basis", probe=_cache_probe, after=_cache_after),
    Spec(
        "groebner",
        "buchberger",
        count=lambda a, kw, r: {"generators": len(r.generators)},
    ),
    Spec("groebner", "parse_basis"),
    Spec("groebner", "normal_form"),
    Spec("groebner", "leading_term_ideal"),
    Spec("groebner", "hilbert_series_quotient"),
    Spec("groebner", "standard_monomial_dimensions"),
    Spec("graded", "mumford_c"),
    Spec("graded", "parse_poly"),
    Spec("graded", "expand_abxi_monomial"),
    Spec("series", "series_div"),
    Spec(
        "series",
        "RationalFunction.expand",
        count=lambda a, kw, r: {"order": a[1] if len(a) > 1 else kw["order"]},
    ),
    Spec("exterior", "prim_dimension_bruteforce"),
    Spec("exterior", "restriction_image_dimensions"),
    Spec("exterior", "invariant_truncated_dimensions"),
    Spec("linalg", "exact_rank", count=_matrix_entries),
    Spec("linalg", "dependency_vector", count=_matrix_entries),
    Spec(
        "assembly",
        "b_coefficients",
        count=lambda a, kw, r: {"K": a[0] if a else kw["K"]},
    ),
    Spec("assembly", "t_over_tanh_series"),
    Spec("assembly", "tanh_over_t_series"),
    Spec(
        "assembly",
        "pairing_matrix",
        count=lambda a, kw, r: {"pairing_entries": len(r)},
    ),
    Spec("assembly", "correction_series"),
    Spec("assembly", "e_basis"),
    Spec("assembly", "e_basis_independence"),
    Spec("assembly", "e_hilbert"),
    Spec("assembly", "equivariant_series_closed"),
    Spec("assembly", "equivariant_series_structural"),
    Spec("assembly", "ih_series_structural"),
    Spec("assembly", "ip_series_closed"),
    Spec("assembly", "top_identity_check"),
)

IMPORT_SPAN = "cli.import"
RENDER_PREFIX = "cli.render."


class Recorder:
    """Collects spans of one job in memory; `write` dumps them as JSONL."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "job": self.job}
        )

    def wrap(self, spec_name: str, fn: Callable, spec: Spec | None = None) -> Callable:
        spans = self.spans
        stack = self._stack
        job = self.job
        count = spec.count if spec else None
        probe = spec.probe if spec else None
        after = spec.after if spec else None

        def wrapper(*args, **kwargs):
            state = probe(args, kwargs) if probe else None
            record = {
                "name": spec_name,
                "start": 0.0,
                "end": 0.0,
                "parent": stack[-1] if stack else None,
                "job": job,
            }
            stack.append(len(spans))
            spans.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            counts = count(args, kwargs, result) if count else {}
            if after:
                counts.update(after(state, result))
            if counts:
                record["counts"] = counts
            return result

        return functools.wraps(fn)(wrapper)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(recorder: Recorder, modules: dict[str, Any]) -> None:
    """Wrap every `SPECS` function in every su2rep namespace that holds it.

    `modules` maps short module names ("groebner", "cli", ...) to the module
    objects.  A function imported by name into another module (as `assembly`
    imports `relation_ideal_basis`) is replaced there too, so no call path
    bypasses its span.
    """
    for spec in SPECS:
        owner = modules[spec.module]
        if "." in spec.attr:
            cls_name, meth = spec.attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(spec.name, getattr(cls, meth), spec))
            continue
        original = getattr(owner, spec.attr)
        wrapper = recorder.wrap(spec.name, original, spec)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    renderers = modules["cli"].RENDERERS
    for fmt, fn in list(renderers.items()):
        renderers[fmt] = recorder.wrap(RENDER_PREFIX + fmt, fn)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    `parent` is the index of the enclosing span in the same list (or None).
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for idx, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = covered_length(
            (max(c["start"], start), min(c["end"], end))
            for c in children.get(idx, ())
        )
        out.append(end - start - covered)
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    exact: bool  # an exact count that must repeat between traced runs
    moves: str  # the end-to-end metric and workload it should move


def _m(name: str, unit: str, better: str, moves: str) -> LayerMetric:
    exact = unit in ("count", "bytes")
    return LayerMetric(name, unit, better, exact, moves)


PER_LAYER: tuple[LayerMetric, ...] = (
    _m("groebner.buchberger.calls", "count", "lower",
       "wall_ref_s/cpu_ref_s on verify-cold, setup_s on verify-warm; 0 on verify-warm and pairing"),
    _m("groebner.buchberger.self_s", "s", "lower",
       "wall_ref_s/cpu_ref_s on verify-cold, setup_s on verify-warm"),
    _m("groebner.basis_generators", "count", "lower",
       "wall_ref_s/cpu_ref_s on verify-cold (generators over all returned bases)"),
    _m("groebner.relation_basis.calls", "count", "lower", "wall_ref_s on verify-warm"),
    _m("groebner.cache_hits", "count", "higher", "wall_ref_s on verify-warm"),
    _m("groebner.cache_misses", "count", "lower", "wall_ref_s on verify-warm"),
    _m("groebner.cache_bytes_read", "bytes", "lower", "wall_ref_s on verify-warm"),
    _m("groebner.cache_bytes_written", "bytes", "lower", "wall_ref_s on verify-warm"),
    _m("groebner.parse_basis.self_s", "s", "lower", "wall_ref_s on verify-warm"),
    _m("groebner.normal_form.calls", "count", "lower", "wall_ref_s on verify-warm"),
    _m("groebner.normal_form.self_s", "s", "lower", "wall_ref_s on verify-warm"),
    _m("groebner.hilbert.self_s", "s", "lower", "wall_ref_s on verify-warm"),
    _m("graded.mumford_c.self_s", "s", "lower", "wall_ref_s on verify-warm"),
    _m("graded.parse_poly.calls", "count", "lower", "wall_ref_s on verify-warm"),
    _m("graded.parse_poly.self_s", "s", "lower", "wall_ref_s on verify-warm"),
    _m("graded.expand_abxi_monomial.self_s", "s", "lower", "wall_ref_s on verify-warm"),
    _m("series.expand.calls", "count", "lower", "wall_ref_s on verify-warm"),
    _m("series.expand.self_s", "s", "lower", "wall_ref_s on verify-warm"),
    _m("series.expand_order_total", "count", "lower", "wall_ref_s on verify-warm"),
    _m("series.series_div.calls", "count", "lower", "wall_ref_s/cpu_ref_s on pairing"),
    _m("series.series_div.self_s", "s", "lower", "wall_ref_s/cpu_ref_s on pairing"),
    _m("exterior.prim_bruteforce.self_s", "s", "lower",
       "wall_ref_s on verify-warm, a little on verify-cold"),
    _m("exterior.restriction.self_s", "s", "lower",
       "wall_ref_s on verify-warm, a little on verify-cold"),
    _m("linalg.exact_rank.calls", "count", "lower",
       "wall_ref_s on verify-warm, a little on verify-cold"),
    _m("linalg.exact_rank.self_s", "s", "lower",
       "wall_ref_s on verify-warm, a little on verify-cold"),
    _m("linalg.matrix_entries", "count", "lower",
       "wall_ref_s on verify-warm, a little on verify-cold"),
    _m("assembly.b_coefficients.calls", "count", "lower", "wall_ref_s/cpu_ref_s on pairing"),
    _m("assembly.b_coefficients.distinct_ratio", "ratio", "higher",
       "wall_ref_s/cpu_ref_s on pairing (distinct K per job / calls)"),
    _m("assembly.t_over_tanh.self_s", "s", "lower", "wall_ref_s/cpu_ref_s on pairing"),
    _m("assembly.pairing_entries", "count", "lower", "wall_ref_s/cpu_ref_s on pairing"),
    _m("assembly.self_s", "s", "lower", "wall_ref_s/cpu_ref_s on pairing"),
    _m("cli.render.self_s", "s", "lower", "wall_ref_s and peak_rss_mb on pairing"),
    _m("cli.bytes_out", "bytes", "lower", "wall_ref_s and peak_rss_mb on pairing"),
    _m("cli.import_s", "s", "lower", "setup_s everywhere, wall_ref_s on verify-warm"),
    _m("cli.checks_run", "count", "higher", "explains verify-* moves when caps change"),
    _m("cli.checks_skipped", "count", "lower", "explains verify-* moves when caps change"),
    _m("cli.checks_failed", "count", "lower", "explains verify-* moves when caps change"),
    _m("trace.overhead_ratio", "ratio", "lower", "traced wall_ref_s / untraced wall_ref_s"),
)

# span name -> the self-time metric it adds to
_SELF_TIME = {
    "groebner.buchberger": "groebner.buchberger.self_s",
    "groebner.parse_basis": "groebner.parse_basis.self_s",
    "groebner.normal_form": "groebner.normal_form.self_s",
    "groebner.leading_term_ideal": "groebner.hilbert.self_s",
    "groebner.hilbert_series_quotient": "groebner.hilbert.self_s",
    "groebner.standard_monomial_dimensions": "groebner.hilbert.self_s",
    "graded.mumford_c": "graded.mumford_c.self_s",
    "graded.parse_poly": "graded.parse_poly.self_s",
    "graded.expand_abxi_monomial": "graded.expand_abxi_monomial.self_s",
    "series.RationalFunction.expand": "series.expand.self_s",
    "series.series_div": "series.series_div.self_s",
    "exterior.prim_dimension_bruteforce": "exterior.prim_bruteforce.self_s",
    "exterior.restriction_image_dimensions": "exterior.restriction.self_s",
    "exterior.invariant_truncated_dimensions": "exterior.restriction.self_s",
    "linalg.exact_rank": "linalg.exact_rank.self_s",
    "assembly.t_over_tanh_series": "assembly.t_over_tanh.self_s",
}

_CALLS = {
    "groebner.buchberger": "groebner.buchberger.calls",
    "groebner.relation_ideal_basis": "groebner.relation_basis.calls",
    "groebner.normal_form": "groebner.normal_form.calls",
    "graded.parse_poly": "graded.parse_poly.calls",
    "series.RationalFunction.expand": "series.expand.calls",
    "series.series_div": "series.series_div.calls",
    "linalg.exact_rank": "linalg.exact_rank.calls",
    "assembly.b_coefficients": "assembly.b_coefficients.calls",
}

# span count key -> metric it is summed into
_COUNTS = {
    "generators": "groebner.basis_generators",
    "cache_hit": "groebner.cache_hits",
    "cache_miss": "groebner.cache_misses",
    "cache_bytes_read": "groebner.cache_bytes_read",
    "cache_bytes_written": "groebner.cache_bytes_written",
    "order": "series.expand_order_total",
    "entries": "linalg.matrix_entries",
    "pairing_entries": "assembly.pairing_entries",
    "checks_run": "cli.checks_run",
    "checks_skipped": "cli.checks_skipped",
    "checks_failed": "cli.checks_failed",
}


def layer_metrics(jobs: Sequence[tuple[Sequence[dict], int, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `jobs` holds, per job, its spans, its stdout length in bytes and the
    factor that turns its measured seconds into reference seconds.
    `trace.overhead_ratio` needs the untraced pass and is left at 0 here.
    """
    out: dict[str, float] = {m.name: 0 if m.exact else 0.0 for m in PER_LAYER}
    distinct_k = 0
    for spans, stdout_bytes, scale in jobs:
        out["cli.bytes_out"] += stdout_bytes
        selfs = [t * scale for t in self_times(spans)]
        ks = set()
        for span, self_s in zip(spans, selfs):
            name = span["name"]
            if name in _SELF_TIME:
                out[_SELF_TIME[name]] += self_s
            if name.startswith("assembly."):
                out["assembly.self_s"] += self_s
            elif name.startswith(RENDER_PREFIX):
                out["cli.render.self_s"] += self_s
            elif name == IMPORT_SPAN:
                out["cli.import_s"] += (span["end"] - span["start"]) * scale
            if name in _CALLS:
                out[_CALLS[name]] += 1
            counts = span.get("counts", {})
            for key, metric in _COUNTS.items():
                if key in counts:
                    out[metric] += counts[key]
            if "K" in counts:
                ks.add(counts["K"])
        distinct_k += len(ks)
    calls = out["assembly.b_coefficients.calls"]
    out["assembly.b_coefficients.distinct_ratio"] = distinct_k / calls if calls else 0.0
    return out


def median_metrics(passes: Sequence[dict[str, float]]) -> dict[str, float]:
    """Median over passes; exact counts (equal in every pass) are kept as ints."""
    exact = {m.name for m in PER_LAYER if m.exact}
    return {
        name: passes[0][name] if name in exact else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }


def exact_mismatches(passes: Sequence[dict[str, float]]) -> list[str]:
    """Names of exact counts that differ between traced passes."""
    return [
        m.name
        for m in PER_LAYER
        if m.exact and len({p[m.name] for p in passes}) > 1
    ]
