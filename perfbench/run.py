"""nlsobolev benchmark: one command per workload, every metric with its unit.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (or anywhere: paths are taken from this file).
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off in a fresh worker process; `--trace 1` reports its per-layer
metrics from a traced worker that repeats the ops of an untraced one.  The
last line of standard output is the JSON result; the lines before it are a
readable table and the run's provenance.  Times of the compute-bound
workloads and set-up times are reported at a nominal machine speed, with the
measured ones beside them (see worker.py).  `--smoke` runs every workload at
one op and checks that every metric is emitted and that a wrong result is
counted as a failed op.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import PROBE_NOMINAL_S  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# 2 OpenBLAS threads measured no faster than 1 on spectral_gap at n=1024 on a
# 2-core machine, and one thread is less exposed to neighbours' load
BLAS_THREADS = 1
SETUP_PROBES = 3         # process starts per run; setup_s is their median
WORKER_TIMEOUT_S = 60    # beyond --seconds, for the op in flight and teardown


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload: str, seed: int, seconds: float, *, trace=False,
               max_ops=None, setup_only=False, perturb=False) -> tuple[float, dict]:
    """Start one worker; returns (seconds from start to its @@ready line, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    cmd += [flag for flag, on in (("--trace", trace), ("--setup-only", setup_only),
                                  ("--perturb", perturb)) if on]
    limit = time.perf_counter() + (seconds if math.isfinite(seconds) else 0) + WORKER_TIMEOUT_S
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise BenchError(f"{workload} worker did not start")
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if not line.startswith("@@ready "):
            raise BenchError(f"{workload} worker failed during set-up")
        out, _ = proc.communicate(timeout=max(limit - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded its time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    results = [ln for ln in out.splitlines() if ln.startswith("@@result ")]
    if not results:
        raise BenchError(f"{workload} worker printed no result")
    return ready_s, json.loads(results[-1][len("@@result "):])


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def source_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nlsobolev").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int, result: dict) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "commit": source_commit(), "src_sha256": source_sha256(),
            **result["libraries"], "ops": len(result["records"]),
            "sizes": SIZES[workload], "closed_loop_clients": 1}


def summarize(records: list[dict]) -> dict:
    """Op statistics from the reported op times (see worker.py), with the
    measured ones as raw_*."""
    dts = [r["dt_report"] for r in records]
    raw = [r["dt"] for r in records]
    ok = sum(r["ok"] for r in records)
    uses = [r["tol_use"] for r in records]
    worst = max(records, key=lambda r: r["tol_use"])
    return {"attempted": len(records), "ok": ok, "failed": len(records) - ok,
            "op_wall_s": sum(dts), "ops_per_s": ok / sum(dts),
            "op_p50_s": statistics.median(dts),
            "raw_ops_per_s": ok / sum(raw), "raw_op_p50_s": statistics.median(raw),
            "ok_frac": ok / len(records),
            "failed_frac": (len(records) - ok) / len(records),
            "tol_use_max": max(uses), "worst_check": worst["worst_check"],
            "worst_input": worst["input"]}


def measure_end_to_end(workload: str, seed: int, seconds: float, *, max_ops=None,
                       probes=SETUP_PROBES, perturb=False) -> tuple[dict, dict, dict]:
    starts = [run_worker(workload, seed, 0.0, setup_only=True) for _ in range(probes)]
    setup = [t * PROBE_NOMINAL_S / r["probe_s"] for t, r in starts]
    _, result = run_worker(workload, seed, seconds, max_ops=max_ops, perturb=perturb)
    s = summarize(result["records"])
    values = {"setup_s": statistics.median(setup), "ops_per_s": s["ops_per_s"],
              "op_p50_s": s["op_p50_s"], "peak_rss_mb": result["peak_rss_mb"],
              "ok_frac": s["ok_frac"], "tol_use_max": s["tol_use_max"]}
    print(f"{workload} seed {seed}: {s['attempted']} ops, {s['failed']} failed, "
          f"{sum(r['dt'] for r in result['records']):.2f} s of op time")
    notes = {"setup_s": f"median of {len(setup)} process starts; raw "
                        f"{statistics.median(t for t, _ in starts):.4g}",
             "ops_per_s": f"raw {s['raw_ops_per_s']:.4g}",
             "op_p50_s": f"n={s['attempted']}; raw {s['raw_op_p50_s']:.4g}",
             "ok_frac": f"failed_frac = {s['failed_frac']:g} ({s['failed']}/{s['attempted']})",
             "tol_use_max": f"worst check {s['worst_check']} at {s['worst_input']}"}
    return values, notes, result


def measure_layers(workload: str, seed: int, seconds: float, *, max_ops=None
                   ) -> tuple[dict, dict, dict]:
    """Per-layer figures from a traced worker that repeats the ops an untraced
    one completed in half the run.  Spans time raw, so shares are of the raw
    traced op time; the overhead compares nominal times."""
    _, plain = run_worker(workload, seed, seconds / 2, max_ops=max_ops)
    n_ops = len(plain["records"])
    _, traced = run_worker(workload, seed, math.inf, trace=True, max_ops=n_ops)
    s_plain, s_traced = summarize(plain["records"]), summarize(traced["records"])
    layers = traced["layers"]
    op_s = sum(r["dt"] for r in traced["records"]) / n_ops
    values = {"trace.overhead_frac": s_traced["op_wall_s"] / s_plain["op_wall_s"] - 1.0,
              "trace.op_s": op_s}
    for name, st in layers.items():
        for stat, v in st.items():
            values[f"{name}.{stat}"] = v
    print(f"{workload} seed {seed}: {n_ops} ops untraced, then traced "
          f"({traced['spans']} spans in {traced['spans_file']})")
    print(f"  untraced: ops_per_s {s_plain['ops_per_s']:.4g} 1/s, op_p50_s "
          f"{s_plain['op_p50_s']:.4g} s (n={n_ops}); traced: {op_s:.4g} s per op (raw), "
          f"overhead {values['trace.overhead_frac']:+.3f}")
    print(f"  {'layer function':42s} {'calls/op':>9s} {'self s/op':>10s} {'share':>6s} "
          f"{'total s/op':>10s} {'share':>6s}")
    called = [kv for kv in layers.items() if kv[1]["calls"]]
    for name, st in sorted(called, key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:42s} {st['calls']:9.4g} {st['self_s']:10.4g} "
              f"{st['self_s'] / op_s:6.1%} {st['total_s']:10.4g} {st['total_s'] / op_s:6.1%}")
    return values, {}, traced


def select_metrics(entries: list[dict], values: dict, notes: dict) -> dict:
    """The metrics BENCHMARK.json names, with their units."""
    out = {}
    for m in entries:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is not computed")
        v = values[m["name"]]
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:48s} {v:12.6g} {m['unit']}{note}")
    return out


def run(workload: str, seed: int, seconds: float, trace: int, *, max_ops=None,
        probes=SETUP_PROBES, perturb=False) -> dict:
    spec = benchmark_spec()
    if trace:
        values, notes, result = measure_layers(workload, seed, seconds, max_ops=max_ops)
        entries = spec["per_layer"]
    else:
        values, notes, result = measure_end_to_end(workload, seed, seconds, max_ops=max_ops,
                                                   probes=probes, perturb=perturb)
        entries = spec["end_to_end"]
    metrics = select_metrics(entries, values, notes)
    prov = provenance(workload, seed, seconds, trace, result)
    print("provenance " + json.dumps(prov))
    s = summarize(result["records"])
    report = {"correct": s["failed"] == 0, "attempted": s["attempted"],
              "failed": s["failed"], "metrics": metrics}
    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({**report, "provenance": prov, "records": result["records"]}, fh, indent=1)
    return report


def smoke() -> int:
    """Each workload at one op, traced and untraced, then once with every
    checked value corrupted: every metric must appear with its unit, and the
    corrupted op must count as failed."""
    spec = benchmark_spec()
    problems = []
    for w in WORKLOADS:
        for trace, entries in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            try:
                rep = run(w, 0, 0.0, trace, max_ops=1, probes=1)
            except BenchError as exc:
                problems.append(f"{w} trace={trace}: {exc}")
                continue
            for m in entries:
                got = rep["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append(f"{w} trace={trace}: {m['name']} missing or malformed")
            if not rep["correct"] or rep["failed"]:
                problems.append(f"{w} trace={trace}: the unmodified op failed")
        rep = run(w, 0, 0.0, 0, max_ops=1, probes=1, perturb=True)
        if rep["failed"] != 1 or rep["correct"] or rep["metrics"]["ok_frac"]["value"] != 0.0:
            problems.append(f"{w}: a corrupted result was not counted as failed")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "nlsobolev" / "__init__.py").is_file():
        print(f"error: no nlsobolev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
