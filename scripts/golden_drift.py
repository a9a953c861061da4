#!/usr/bin/env python3
"""Drift of the `nlsob` reports against the committed baseline in tests/golden/.

    python scripts/golden_drift.py            # the largest move per field
    python scripts/golden_drift.py --write    # rewrite the runs that moved out of tolerance

tests/golden/manifest.json holds the argv set, each run's exit code and the
per-field tolerances; tests/golden/<run>.json holds the report bytes `nlsob`
writes for that run.  A field is keyed by its command and its last name in
the report ("sweep.ratio", "spectrum.eigenvalues"); a number moves by
|new - old|, within its tolerance when that is at most max(abs, rel |old|),
and anything else (a string, None, a list's length) must not change.  The
report mode exits 1 when a field is out of tolerance or a run's exit code
moved, 0 otherwise.  --write rewrites the report of each such run, and the
manifest only when an exit code moved; it prints each run it rewrites and
leaves a run within its tolerances as it is."""
import contextlib
import io
import json
import os
import sys

import nlsobolev as nl
from nlsobolev.cli import ArgParser, run_guarded

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "golden")


def load_manifest() -> dict:
    with open(os.path.join(GOLDEN, "manifest.json")) as fh:
        return json.load(fh)


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of `nlsob argv`, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = nl.run_cli(argv)
    return code, out.getvalue()


def leaves(node, path=""):
    """(path, key, value) for every leaf of a JSON report; key is the last name."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        yield path + ".len", None, len(node)
        for i, v in enumerate(node):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, path.rsplit(".", 1)[-1].split("[")[0], node


def field_moves(command: str, old: dict, new: dict, tolerances: dict) -> list[tuple]:
    """(field, relative move, absolute move, ok) per leaf of the baseline
    report `old`; a leaf that is missing, or not a number on both sides, must
    be equal, and its moves are None if it is not."""
    got = {path: value for path, _, value in leaves(new)}
    out = []
    for path, key, ref in leaves(old):
        field = f"{command}.{key}" if key else f"{command}.{path}"
        val = got.get(path, KeyError)
        if key is None or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                  for v in (ref, val)):
            same = val == ref
            out.append((field, 0.0 if same else None, 0.0 if same else None, same))
            continue
        tol = tolerances.get(field, tolerances["default"])
        move = abs(val - ref)
        out.append((field, move / abs(ref) if ref else move, move,
                    move <= max(tol["abs"], tol["rel"] * abs(ref))))
    return out


def compare(name: str, spec: dict, tolerances: dict) -> list[tuple]:
    """Run one manifest entry and compare it with its baseline report."""
    return check(name, spec, tolerances, *run(spec["argv"]))


def check(name: str, spec: dict, tolerances: dict, code: int, text: str) -> list[tuple]:
    """Compare one run's exit code and report with its baseline."""
    same = code == spec["exit"]
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        old = json.load(fh)
    new = json.loads(text) if text else {}
    return [(f"{spec['argv'][0]}.exit", 0.0 if same else None, 0.0 if same else None,
             same)] + field_moves(spec["argv"][0], old, new, tolerances)


def write_baseline(manifest: dict) -> None:
    """Rewrite the report of each run that is new, has a field out of
    tolerance or moved its exit code, and the manifest if an exit code moved."""
    exit_moved = False
    for name, spec in manifest["runs"].items():
        path = os.path.join(GOLDEN, f"{name}.json")
        code, text = run(spec["argv"])
        if os.path.exists(path) and all(
                ok for *_, ok in check(name, spec, manifest["tolerances"], code, text)):
            continue
        exit_moved |= code != spec.get("exit")
        spec["exit"] = code
        with open(path, "w") as fh:
            fh.write(text)
        print(f"rewrote {name}")
    if exit_moved:
        with open(os.path.join(GOLDEN, "manifest.json"), "w") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")


def main() -> int:
    ap = ArgParser(description=__doc__)
    ap.add_argument("--write", action="store_true", help="rewrite the runs out of tolerance")
    args = ap.parse_args()
    manifest = load_manifest()
    if args.write:
        write_baseline(manifest)
        return 0
    worst = {}   # field -> [largest relative move, largest absolute move, all ok]
    for name, spec in manifest["runs"].items():
        for field, rel, ab, ok in compare(name, spec, manifest["tolerances"]):
            w = worst.setdefault(field, [0.0, 0.0, True])
            w[0] = None if rel is None or w[0] is None else max(w[0], rel)
            w[1] = None if ab is None or w[1] is None else max(w[1], ab)
            w[2] = w[2] and ok
    print(f"{'field':44s} {'relative':>10s} {'absolute':>10s}")
    for field, (rel, ab, ok) in sorted(worst.items()):
        shown = [("changed" if v is None else f"{v:.3g}") for v in (rel, ab)]
        print(f"{field:44s} {shown[0]:>10s} {shown[1]:>10s}"
              f"{'' if ok else '  OUT OF TOLERANCE'}")
    return 0 if all(ok for _, _, ok in worst.values()) else 1


if __name__ == "__main__":
    sys.exit(run_guarded(main))
