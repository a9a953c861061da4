"""One benchmark process: import nlsobolev from the checkout's src/, generate
the seeded inputs, then run ops in a closed loop (one client, the next op
starts when the last one returns) and check each output.

Prints a ``@@ready`` line once set-up is done and a ``@@result`` JSON line at
the end.  run.py starts it; to run one by hand from the repository root:

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep --seed 1 --seconds 5
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


# The speed of compute-bound code on a shared host drifts by up to 2x within
# seconds (measured on a 2-vCPU VM: one kernel build took 1.3 s in one process
# and 2.7 s in the next), beyond any bound a regression check could use.  A
# fixed probe, independent of nlsobolev, therefore runs between ops and after
# each set-up, and the times of workloads marked in workloads.SCALED are
# reported at a nominal machine speed: multiplied by PROBE_NOMINAL_S over the
# mean probe time before and after the op.
PROBE_NOMINAL_S = 0.0016


def probe() -> float:
    """Median seconds of three runs of a fixed compute-bound mix: interpreter
    arithmetic and numpy ufuncs on small arrays (about 2 ms each)."""
    import numpy as np
    x = np.linspace(0.1, 1.0, 256)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for j in range(150):
            acc += float(np.sum(np.sqrt(x + j) * x))
        for j in range(15000):
            acc += j * 0.5
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def emit(tag: str, obj: dict) -> None:
    sys.stdout.write(f"@@{tag} {json.dumps(obj)}\n")
    sys.stdout.flush()


def libraries() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb", action="store_true",
                    help="self-test: corrupt each checked value before checking")
    args = ap.parse_args()

    import nlsobolev as nl
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(nl.__file__).resolve().parents:
        print(f"nlsobolev imported from {nl.__file__}, not from {src}", file=sys.stderr)
        return 3
    inputs = workloads.make_inputs(args.workload, args.seed)
    emit("ready", {"pid": os.getpid()})
    probe()   # the first call pays one-off set-up
    if args.setup_only:
        emit("result", {"probe_s": probe()})
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(nl)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    out_path = str(BUILD / "tmp" / f"cli-{os.getpid()}.json")
    n_max = len(inputs) if args.max_ops is None else min(args.max_ops, len(inputs))
    records = []
    deadline = time.perf_counter() + args.seconds
    cycle = workloads.CYCLE[args.workload]
    scaled = workloads.SCALED[args.workload]
    probe_before = probe()
    for i in range(n_max):
        if i % cycle == 0 and records and time.perf_counter() >= deadline:
            break
        inp = inputs[i]
        if tracer:
            tracer.op = i
        error = None
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(nl, args.workload, inp, args.seed, out_path)
        except Exception as exc:   # a raising op is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        probe_after = probe()
        probe_s = 0.5 * (probe_before + probe_after)
        probe_before = probe_after
        uses = {}
        if error is None:
            vals = workloads.measure(args.workload, inp, out)
            if args.perturb:
                vals = workloads.perturb(args.workload, vals)
            uses = workloads.check(args.workload, inp, vals)
        bad = sorted(k for k, u in uses.items() if not u <= 1.0)
        finite = {k: u for k, u in uses.items() if math.isfinite(u)}
        worst = max(finite, key=finite.get, default=None)
        records.append({"i": i, "dt": dt, "probe_s": probe_s,
                        "dt_report": dt * PROBE_NOMINAL_S / probe_s if scaled else dt,
                        "ok": error is None and not bad,
                        "tol_use": finite.get(worst, 0.0), "worst_check": worst,
                        "failed_checks": bad, "error": error, "input": inp})
    if os.path.exists(out_path):
        os.remove(out_path)
    result = {"records": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "libraries": libraries()}
    if tracer:
        result["layers"] = tracer.stats(len(records))
        (BUILD / "trace").mkdir(parents=True, exist_ok=True)
        spans_path = BUILD / "trace" / f"{args.workload}-seed{args.seed}.tsv"
        tracer.write(str(spans_path))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
