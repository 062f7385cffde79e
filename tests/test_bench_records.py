"""The committed speed records ``BENCH_*.json`` at the repository root.

Each record holds a commit and its parent, the machine, the method, and for
each workload and metric the values per pair, the medians, the quartiles
and the win count.  These tests read the files and re-run nothing.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]} | {"process"}
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def test_the_transcribed_records_are_committed():
    assert {p.name for p in RECORDS} >= {"BENCH_23.json", "BENCH_24.json", "BENCH_25.json"}


def _sides(value):
    assert set(value) == {"parent", "change"}
    return value["parent"], value["change"]


def _check_metric(name, metric, n_pairs):
    assert {"unit", "pairs", "median", "quartiles", "wins"} <= set(metric)
    assert isinstance(metric["unit"], str)
    medians = _sides(metric["median"])
    for quartiles, median in zip(_sides(metric["quartiles"]), medians):
        if quartiles is not None:
            low, high = quartiles
            assert median is None or low <= median <= high
    wins = metric["wins"]
    if wins is not None:
        assert n_pairs is not None and 0 <= wins <= n_pairs
    if metric["pairs"] is not None:
        assert len(metric["pairs"]) == n_pairs
        assert all(len(pair) == 2 for pair in metric["pairs"])
        lower = BETTER.get(name, "lower") == "lower"
        better = sum((c < p) if lower else (c > p) for p, c in metric["pairs"])
        assert wins is None or wins == better


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_the_required_keys(path):
    record = json.loads(path.read_text())
    assert record["issue"] == int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    assert isinstance(record["transcribed"], bool)
    for key in ("commit", "parent"):
        assert re.fullmatch(r"[0-9a-f]{40}", record[key])
    assert isinstance(record["machine"]["python"], str)
    assert isinstance(record["machine"]["nproc"], int)
    method = record["method"]
    assert {"copies", "PYTHONDONTWRITEBYTECODE", "pycache", "order", "command"} <= set(method)
    assert record["runs"]
    named = set()
    for run in record["runs"]:
        assert {"workload", "seconds", "seeds", "n_pairs", "failed", "metrics"} <= set(run)
        assert run["workload"] in WORKLOADS
        assert run["metrics"]
        for name, metric in run["metrics"].items():
            _check_metric(name, metric, run["n_pairs"])
            named.add((run["workload"], name))
    claim = record["claim"]
    assert claim is None or (claim["workload"], claim["metric"]) in named


CLAIMED = [p for p in RECORDS if json.loads(p.read_text())["claim"] is not None]


@pytest.mark.parametrize("path", CLAIMED, ids=[p.name for p in CLAIMED])
def test_claimed_gain_meets_the_gain_rule(path):
    """A claimed gain holds on every run of its workload that times its
    metric: at least 10 pairs, none failing on either side, the change
    better in at least 9 of 10, and its median better than the parent's by
    more than the parent's interquartile distance."""
    record = json.loads(path.read_text())
    workload, name = record["claim"]["workload"], record["claim"]["metric"]
    runs = [r for r in record["runs"] if r["workload"] == workload and name in r["metrics"]]
    assert runs
    sign = 1 if BETTER.get(name, "lower") == "lower" else -1
    for run in runs:
        metric = run["metrics"][name]
        assert run["n_pairs"] >= 10
        assert run["failed"] == {"parent": 0, "change": 0}
        assert metric["wins"] >= 0.9 * run["n_pairs"]
        low, high = metric["quartiles"]["parent"]
        parent, change = _sides(metric["median"])
        assert sign * (parent - change) > high - low
