"""The `nlsob` reports of a fixed argv set against the committed baseline in
tests/golden/ (written by `scripts/golden_drift.py --write`), field by field,
within the per-field tolerances its manifest states."""
import copy
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "golden_drift", os.path.join(ROOT, "scripts", "golden_drift.py"))
golden_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_drift)
MANIFEST = golden_drift.load_manifest()


def baseline(name):
    with open(os.path.join(golden_drift.GOLDEN, f"{name}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(MANIFEST["runs"]))
def test_report_within_baseline_tolerances(name):
    rows = golden_drift.compare(name, MANIFEST["runs"][name], MANIFEST["tolerances"])
    assert [row for row in rows if not row[3]] == []


def test_every_tolerance_names_a_baseline_field():
    fields = {field for name, spec in MANIFEST["runs"].items()
              for field, *_ in golden_drift.field_moves(spec["argv"][0], baseline(name),
                                                        baseline(name), MANIFEST["tolerances"])}
    assert set(MANIFEST["tolerances"]) - {"default"} <= fields


def test_moves_are_measured_against_the_right_tolerance():
    # an ordinary field may not move by 1e-13; a sweep ratio, formed by
    # cancellation, may move by 1e-7 but not by 1e-5; a changed note fails
    old = baseline("sweep-4-2")
    tol = MANIFEST["tolerances"]

    def failing(edit):
        new = copy.deepcopy(old)
        edit(new["payload"]["rows"][4])
        return [f for f, _, _, ok in golden_drift.field_moves("sweep", old, new, tol) if not ok]

    assert failing(lambda row: None) == []
    assert failing(lambda row: row.update(dist=row["dist"] * (1 + 1e-13))) == ["sweep.dist"]
    assert failing(lambda row: row.update(ratio=row["ratio"] * (1 + 1e-7))) == []
    assert failing(lambda row: row.update(ratio=row["ratio"] * (1 + 1e-5))) == ["sweep.ratio"]
    assert failing(lambda row: row.update(note="x")) == ["sweep.note"]


def test_write_rewrites_only_runs_out_of_tolerance(tmp_path, monkeypatch, capsys):
    # two copies of one fast run, one moved within its tolerance and one
    # beyond it: --write rewrites the second report alone, and the manifest
    # only once an exit code has moved
    name = "constants-100-1"
    with open(os.path.join(golden_drift.GOLDEN, f"{name}.json")) as fh:
        committed = fh.read()
    for run, scale in (("within", 1 + 1e-15), ("beyond", 1 + 1e-12)):
        report = json.loads(committed)
        report["payload"]["s_hls"] *= scale
        (tmp_path / f"{run}.json").write_text(json.dumps(report))
    spec = MANIFEST["runs"][name]
    manifest = {"runs": {"within": dict(spec), "beyond": dict(spec)},
                "tolerances": MANIFEST["tolerances"]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(golden_drift, "GOLDEN", str(tmp_path))

    def write():
        before = {p.name: p.read_text() for p in tmp_path.iterdir()}
        golden_drift.write_baseline(golden_drift.load_manifest())
        after = {p.name: p.read_text() for p in tmp_path.iterdir()}
        return {f for f in after if after[f] != before[f]}, after

    changed, after = write()
    assert changed == {"beyond.json"} and after["beyond.json"] == committed
    assert capsys.readouterr().out == "rewrote beyond\n"
    manifest["runs"]["within"]["exit"] = 2
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    changed, after = write()
    assert changed == {"within.json", "manifest.json"} and after["within.json"] == committed
    assert golden_drift.load_manifest()["runs"]["within"]["exit"] == spec["exit"]
    assert capsys.readouterr().out == "rewrote within\n"
