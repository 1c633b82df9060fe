#!/usr/bin/env python3
"""Benchmark of ``hurwitz.run_job`` on fixed spaces of monodromy data.

    python3 perfbench/run.py --workload a5-g0-n3 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 1

It imports ``hurwitz`` from ``src/`` of the checkout it sits in and drives
the public API from one process and one thread (``JobSpec`` defaults).
An untraced run times three calls:

  report_s       ``run_job`` against an empty cache directory
  report_warm_s  the same call again on that directory (cache hits)
  census_s       ``run_job`` with ``requested="census"`` and the cache off

and repeats them in that order while another call still fits in
``--seconds``.
Times are seconds at a fixed reference speed (see ``clock.py``); medians
of the raw wall times are printed beside them.  Every answer is checked
against ``frozen.json``; a raising or wrong call counts as failed and its
time stays a sample.  ``--trace 1`` instead times ``run_job`` with
spans around every layer call it makes (see ``tracing.py``) and reports
the per-layer metrics.  ``--workload all`` runs every workload in its
own process.  Spans and results go to ``perfbench/out/``.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from clock import SpeedClock  # noqa: E402
from tracing import Tracer, spans_around_run_job  # noqa: E402
from workloads import WORKLOADS, answer_of, check_answer, job_document, load_frozen  # noqa: E402

SETUP_REPEATS = 11

# Per-layer counts derived from public outputs by a formula, not counted
# by the program.
COMPUTED = {
    "perms.sym_scan_perms",
    "classify.conjugations",
    "moves.edges_tuples",
    "moves.conjugations",
    "moves.pool_scan_tuples",
}
# Printed and saved with the traced run, but not BENCHMARK.json metrics:
# they compare samples of different calls and can be 0 or negative.
TRACE_ONLY = {"trace.unaccounted_s": "s", "trace.overhead_s": "s"}
LAYERS = ("perms", "tuples", "classify", "moves", "covers", "cache", "jobs")
# spans outside run_job, or run_job's own glue: not a layer's self time
NOT_LAYER = ("jobs.run_job", "jobs.parse_job", "jobs.report_to_json")


class Run:
    """Samples, failures and the frozen answer of one workload run."""

    def __init__(self, name: str, seed: int, hz, spec, frozen: dict):
        self.name, self.seed = name, seed
        self.hz, self.spec, self.frozen = hz, spec, frozen
        self.clock = SpeedClock()
        self.samples: dict[str, list[float]] = {}  # scaled seconds
        self.wall: dict[str, list[float]] = {}  # raw wall seconds
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, doc: dict) -> str | None:
        """Check one report; return its payload if it is right, else record why."""
        payload = self.hz.comparison_payload(doc)
        problems = check_answer(answer_of(doc, payload), self.frozen, self.seed)
        if problems:
            self.failures.append("; ".join(problems))
            return None
        return payload

    def timed(self, metric: str, spec) -> dict | None:
        """One untraced ``run_job`` call; the time is kept even if it fails."""
        self.attempted += 1
        gc.collect()
        doc = None
        with self.clock.measure() as m:
            try:
                doc = self.hz.run_job(spec)
            except Exception as exc:  # a failing call is a result, not a crash
                self.failures.append(f"{metric}: {type(exc).__name__}: {exc}")
        self.samples.setdefault(metric, []).append(m["scaled_s"])
        self.wall.setdefault(metric, []).append(m["wall_s"])
        if doc is not None and self.check(doc) is None:
            doc = None
        return doc


def set_up(name: str, seed: int):
    """Import hurwitz afresh, parse the relabelled job, load the frozen answer."""
    for mod in [m for m in sys.modules if m == "hurwitz" or m.startswith("hurwitz.")]:
        del sys.modules[mod]
    hz = importlib.import_module("hurwitz")
    return hz, hz.parse_job(job_document(name, seed)), load_frozen()[name]


def steps(seconds: float, per_cycle: int):
    """Yield (cycle, step) while another step of the mean length still fits."""
    start = time.perf_counter()
    n = 0
    while True:
        yield divmod(n, per_cycle)
        n += 1
        spent = time.perf_counter() - start
        if spent + spent / n > seconds:
            return


def untraced(run: Run, seconds: float, tmp: Path) -> dict:
    """Cycles of: cold report, warm report on the same cache, census."""
    spec = run.spec
    census_spec = dataclasses.replace(spec, requested="census", use_cache=False)
    for _, step in steps(seconds, 3):
        if step == 0:
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
            cached = dataclasses.replace(spec, cache_dir=cache_dir)
            run.timed("report_s", cached)
        elif step == 1:
            run.timed("report_warm_s", cached)
            shutil.rmtree(cache_dir)
        else:
            run.timed("census_s", census_spec)
    metrics = {m: statistics.median(v) for m, v in run.samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def traced(run: Run, seconds: float, tmp: Path, tr: Tracer) -> dict:
    """Cycles of: untraced cold report, traced cold report, traced warm report."""
    hz, spec = run.hz, run.spec
    per: dict[str, list[float]] = {}
    counts: dict = {}
    doc_json = job_document(run.name, run.seed)

    def add(metric: str, value: float) -> None:
        per.setdefault(metric, []).append(value)

    for i, step in steps(seconds, 3):
        if step == 0:
            cold_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
            doc = run.timed("report_s", dataclasses.replace(spec, cache_dir=cold_dir))
            shutil.rmtree(cold_dir)
            untraced_payload = None if doc is None else hz.comparison_payload(doc)
            if doc is not None:
                counts["payload_bytes"] = len(untraced_payload.encode())
            continue

        phase = ("cold", "warm")[step - 1]
        if phase == "cold":
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
            traced_spec = dataclasses.replace(spec, cache_dir=cache_dir)
        tr.request = f"{phase}-{i}"
        run.attempted += 1
        gc.collect()
        tdoc = None
        with run.clock.measure() as clocked:
            try:
                if phase == "cold":
                    with tr.span("jobs.parse_job"):
                        hz.parse_job(doc_json)
                with spans_around_run_job(hz, tr) as seen, tr.span("jobs.run_job"):
                    tdoc = hz.run_job(traced_spec)
                if phase == "cold":
                    with tr.span("jobs.report_to_json"):
                        hz.report_to_json(tdoc)
            except Exception as exc:  # a failing call is a result, not a crash
                run.failures.append(f"traced {phase}: {type(exc).__name__}: {exc}")
        if phase == "warm":
            shutil.rmtree(cache_dir)
        if tdoc is None:
            continue
        payload = run.check(tdoc)
        if payload is not None and untraced_payload not in (None, payload):
            run.failures.append(f"traced {phase} payload differs from run_job's")
        factor = clocked["factor"]
        own = {name: secs * factor for name, secs in
               tr.self_times(tr.request, run.clock.inside).items()}
        if phase == "warm":
            add("cache.load_s", own.get("cache.load", 0.0))
            counts["hits"] = tdoc["meta"]["cache"]["hits"]
            continue
        group = seen["group"]
        counts["group_order"] = group.order
        counts["normalizer_order"] = hz.normalizer_in_sym(group).order
        counts["n_lambda0_order"] = hz.normalizer_fixing_point(group).order
        counts["nodes"] = tdoc["meta"]["work_nodes"]
        counts["misses"] = tdoc["meta"]["cache"]["misses"]
        counts["bytes"] = sum(p.stat().st_size for p in Path(cache_dir).glob("*.bin"))
        counts["orbit_sizes"] = tdoc["components"]["orbit_sizes"]
        counts["tuples"] = tdoc["census"]["tuples"]
        counts["pointed"] = tdoc["census"]["pointed"]
        counts["unpointed"] = tdoc["census"]["unpointed"]
        for name, secs in own.items():
            if name != "cache.load":
                add(f"{name}_s", secs)
        root = next(x for x in tr.spans
                    if x["request"] == tr.request and x["name"] == "jobs.run_job")
        add("trace.report_traced_s", factor * (
            root["end"] - root["start"] - run.clock.inside(root["start"], root["end"])))
        for layer in LAYERS:
            add(f"{layer}.self_s", sum(
                secs for name, secs in own.items()
                if name.startswith(layer + ".") and name not in NOT_LAYER
            ))

    m = {k: statistics.median(v) for k, v in per.items()}
    m["trace.report_s"] = statistics.median(run.samples["report_s"])
    m["trace.unaccounted_s"] = m["trace.report_s"] - sum(m[f"{x}.self_s"] for x in LAYERS)
    m["trace.overhead_s"] = m["trace.report_traced_s"] - m["trace.report_s"]
    if not counts.get("tuples"):
        return m
    n, tuples = spec.branch_points, counts["tuples"]
    moves_per_node = 2 * (n - 1)
    pool, scanned = tuples, 0
    for size in counts["orbit_sizes"]:
        scanned += pool
        pool -= size
    m.update({
        "perms.group_order": counts["group_order"],
        "perms.normalizer_order": counts["normalizer_order"],
        "perms.sym_scan_perms": math.factorial(spec.degree),
        "tuples.nodes": counts["nodes"],
        "tuples.count": tuples,
        "tuples.accept_ratio": tuples / counts["nodes"],
        "classify.pointed": counts["pointed"],
        "classify.unpointed": counts["unpointed"],
        "classify.conjugations":
            tuples * (counts["n_lambda0_order"] + counts["normalizer_order"]),
        "moves.orbits_tuples": len(counts["orbit_sizes"]),
        "moves.edges_tuples": tuples * moves_per_node,
        "moves.conjugations": moves_per_node * (
            counts["pointed"] * counts["n_lambda0_order"]
            + counts["unpointed"] * counts["normalizer_order"]),
        "moves.pool_scan_tuples": scanned,
        "covers.classes": counts["pointed"],
        "cache.bytes": counts["bytes"],
        "cache.hits": counts.get("hits", 0),
        "cache.misses": counts["misses"],
        "jobs.payload_bytes": counts.get("payload_bytes", 0),
    })
    return m


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in (SRC / "hurwitz").glob("*.py")
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "src_hurwitz_lines": src_lines,
        "loadavg_1m": os.getloadavg()[0],
    }


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    clock, setup, setup_wall = SpeedClock(), [], []
    for _ in range(SETUP_REPEATS):
        with clock.measure() as m:
            hz, spec, frozen = set_up(name, seed)
        setup.append(m["scaled_s"])
        setup_wall.append(m["wall_s"])
    if not Path(hz.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported hurwitz from {hz.__file__}, not from {SRC}")
    run = Run(name, seed, hz, spec, frozen)
    run.samples["setup_s"], run.wall["setup_s"] = setup, setup_wall
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    tr = Tracer()
    try:
        if trace:
            metrics = traced(run, seconds, tmp, tr)
            _write(OUT / f"spans-{name}-seed{seed}.json", tr.spans)
        else:
            metrics = untraced(run, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    shown = {**units, **TRACE_ONLY} if trace else units
    failed = len(run.failures)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  env {json.dumps(env)}")
    print(f"  failed_frac = {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    for m, unit in shown.items():
        note = " (computed)" if m in COMPUTED else ""
        if m in run.wall and not trace:
            note = (f"  median of {len(run.wall[m])}, wall median"
                    f" {statistics.median(run.wall[m]):.4g} s")
        print(f"  {m:32} {metrics.get(m, float('nan')):>14.6g} {unit}{note}")
    for f in run.failures[:5]:
        print(f"  FAILED: {f}")
    result = {
        "correct": failed == 0 and all(m in metrics for m in units),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u}
                    for m, u in units.items() if m in metrics},
    }
    _write(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "samples": run.samples, "wall_samples": run.wall,
        "failures": run.failures, "computed": sorted(COMPUTED),
        "trace_only": {m: metrics[m] for m in TRACE_ONLY if m in metrics},
        **result,
    })
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a child process, so memory and memos stay apart."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=seconds + 170,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            total["metrics"][f"{name}.{m}"] = v
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hurwitz" / "__init__.py").is_file():
        print(f"no hurwitz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
