"""Smoke runs of the experiment scripts at small sizes, and the benchmark's
per-layer metric names against the package."""
import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script,args,expect", [
    pytest.param("spectrum_scan.py", ["--pairs", "4:2", "--grid-n", "256", "--k", "4"],
                 "mu_gap = ", id="spectrum_scan"),
    pytest.param("ratio_sweep_experiment.py",
                 ["--dim", "4", "--alpha", "2", "--grid-n", "512", "--epsilons", "1e-2"],
                 "empirical_b1_lower_bound_candidate", id="ratio_sweep_experiment"),
    pytest.param("bounded_domain_experiment.py",
                 ["--dim", "3", "--alpha", "1", "--lambdas", "1e2,1e3"],
                 "weak-ratio floor (min/max):", id="bounded_domain_experiment"),
    pytest.param("golden_drift.py", [], "verify-bubble.deficit_rel", id="golden_drift"),
])
def test_script_runs(script, args, expect):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


@pytest.mark.parametrize("script,args,expect", [
    pytest.param("bounded_domain_experiment.py", ["--lambdas", "1e2,x"],
                 "error: --lambdas", id="bounded-bad-lambda"),
    pytest.param("bounded_domain_experiment.py", ["--lambdas", "5"],
                 "error: need lambda * R >= 10", id="bounded-small-lambda"),
    pytest.param("spectrum_scan.py", ["--pairs", "4-2"], "error: --pairs", id="spectrum-bad-pair"),
    pytest.param("ratio_sweep_experiment.py", ["--epsilons", "abc"],
                 "error: --epsilons", id="sweep-bad-epsilons"),
    pytest.param("spectrum_scan.py", ["--grid-n", "x"], "error: argument --grid-n",
                 id="spectrum-bad-grid-n"),
    pytest.param("ratio_sweep_experiment.py", ["--seed", "x"], "error: argument --seed",
                 id="sweep-bad-seed"),
    pytest.param("bounded_domain_experiment.py", ["--dim", "x"], "error: argument --dim",
                 id="bounded-bad-dim"),
])
def test_script_bad_input_is_one_error_line(script, args, expect):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith(expect)
    assert "Traceback" not in proc.stderr


def test_benchmark_layer_names_are_public_functions():
    # perfbench's tracer records each public function of a module as
    # <layer>.<function> (_quadrature as quadrature); a per-layer metric whose
    # function was renamed or made private fails the traced run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    for name in metrics:
        layer, fname = name.split(".")[:2]
        if layer == "trace":
            continue
        mod = importlib.import_module("nlsobolev." + ("_quadrature" if layer == "quadrature"
                                                      else layer))
        fn = getattr(mod, fname, None)
        assert not fname.startswith("_") and callable(fn) and not isinstance(fn, type) \
            and fn.__module__ == mod.__name__, name
