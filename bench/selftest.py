"""Self-test of the benchmark itself (not of ldpmean).

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that:
every metric named in BENCHMARK.json is emitted with its unit; the exact
counts (calls, elems, values, budget_over_eps, failures by type) repeat
between two traced runs with the same seed; the envelope's counts do not
depend on the seed and show the known envelope failures; and the driver
exits nonzero, printing no result, where the ldpmean sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: outputs failed a check"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), f"{where}: {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name}"


def exact_counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def traced(name: str, seed: int) -> dict:
    result, _ = run.run(name, seed, seconds=0.2, trace=True, tiny=True)
    check_metrics(result, SPEC["per_layer"], f"{name} traced")
    return result


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS), names
    for name in names:
        result, _ = run.run(name, 5, seconds=0.2, trace=False, tiny=True)
        check_metrics(result, SPEC["end_to_end"], f"{name} untraced")
        first, second = traced(name, 5), traced(name, 5)
        assert exact_counts(first) == exact_counts(second), f"{name}: counts differ between same-seed runs"
        print(f"ok {name}: metrics emitted, exact counts repeat")

    a, b = exact_counts(traced("envelope", 1)), exact_counts(traced("envelope", 2))
    assert a == b, "envelope counts depend on the seed"
    failures = {k: v for k, v in a.items() if k.startswith("fail.") and v}
    print(f"ok envelope: counts seed-independent; failures per sweep {failures}, "
          f"budget_over_eps {a['tuner.budget_over_eps']}")

    with tempfile.TemporaryDirectory(prefix=".scratch-", dir=BENCH_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns(".scratch-*", "__pycache__"))
        cmd = SPEC["command"] + ["--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok bare directory: exits", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
