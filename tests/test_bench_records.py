"""Every benchmark record at the root of the repository, ``BENCH_<n>.json``,
parses, names the commits it compares by their full hashes and holds at
least ten alternating pairs of ``bench/run.py`` result lines per workload,
from which its summary medians, quartiles and wins recompute exactly; every
line of the change reads correct with no failed operation.

A shallow checkout has no history, so this checks the format of a record,
not that its commits exist.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
SIDES = ("base", "change")


def _is_commit(x) -> bool:
    return isinstance(x, str) and re.fullmatch(r"[0-9a-f]{40}", x) is not None


def _summary(values: dict) -> dict:
    # per side the median and the inclusive quartiles; a pair is won by the
    # lower value, and a tie counts for neither side
    out = {}
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
        out[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3, "iqr": q3 - q1}
    out["change_wins"] = sum(c < b for b, c in zip(values["base"], values["change"]))
    out["base_wins"] = sum(b < c for b, c in zip(values["base"], values["change"]))
    return out


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_format(path):
    rec = json.loads(path.read_text())
    assert rec["pr"] == int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    assert _is_commit(rec["change"]["parent"])
    assert rec["host"]["cores"] >= 1 and rec["host"]["python"] and rec["host"]["numpy"]
    assert rec["comparisons"]
    for comp in rec["comparisons"]:
        assert _is_commit(comp["base_commit"])
        assert set(comp["pairs"]) == WORKLOADS and set(comp["summary"]) == WORKLOADS
        for workload, pairs in comp["pairs"].items():
            assert len(pairs) >= 10, workload
            # the side that runs first alternates from pair to pair
            assert [p["first"] for p in pairs] == [SIDES[i % 2] for i in range(len(pairs))], workload
            for p in pairs:
                for side in SIDES:
                    line = p[side]
                    assert isinstance(line["correct"], bool) and 0 <= line["failed"] <= line["attempted"]
                    assert all(isinstance(line["metrics"][m]["value"], (int, float)) for m in METRICS)
                # a change fails no more operations than its parent; a base may
                # fail some, as the envelope of the first benchmarked commit did
                assert p["change"]["correct"] is True and p["change"]["failed"] == 0, (workload, p["seed"])
            summary = comp["summary"][workload]
            for m in METRICS:
                values = {side: [p[side]["metrics"][m]["value"] for p in pairs] for side in SIDES}
                assert summary[m] == _summary(values), (workload, m)
            assert summary["failed"] == {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
