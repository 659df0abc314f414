"""Self-tests of the benchmark harness: ``python3 -m pytest -q perfbench``.

They check the benchmark, not the program: exact sim counts repeat per
seed, a planted wrong result trips the oracles, every declared metric is
printed with its unit, and the command fails cleanly without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.runtime.node import ThreadedTiamatNode  # noqa: E402
from repro.tuples import Tuple  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


EXACT = {
    "0": ("sim.frames_per_op", "sim.bytes_per_op", "sim.vlat_p50_ms",
          "sim.vlat_p99_ms"),
    "1": ("sim.kernel.events_per_op", "sim.kernel.heap_cmp_per_op"),
}


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


def _metrics(workload: str, seed: int, trace: str) -> dict:
    proc = _cli(ROOT, "--workload", workload, "--seed", str(seed),
                "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["take_pair", "contended_in"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_sim_counts_repeat_for_a_seed(workload, trace):
    first = _metrics(workload, 7, trace)
    second = _metrics(workload, 7, trace)
    for name in EXACT[trace]:
        assert first[name] == second[name] > 0, name


def test_planted_wrong_take_trips_the_oracle(monkeypatch):
    real_inp = ThreadedTiamatNode.inp
    planted = []

    def wrong_once(self, pattern):
        found = real_inp(self, pattern)
        if found is not None and not planted:
            planted.append(found)
            return Tuple("job", -1, "planted", 0.0)
        return found

    monkeypatch.setattr(ThreadedTiamatNode, "inp", wrong_once)
    result = run.run_workload("take_pair", seed=3, seconds=0.3, trace=False)
    assert planted
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_planted_ghost_take_breaks_exactly_once(monkeypatch):
    """A take that leaves its tuple behind is caught as a duplicate."""
    real_inp = ThreadedTiamatNode.inp
    ghosts = []

    def ghost_once(self, pattern):
        if not ghosts:
            found = self.rdp(pattern)
            if found is not None:
                ghosts.append(found)
                return found
        return real_inp(self, pattern)

    monkeypatch.setattr(ThreadedTiamatNode, "inp", ghost_once)
    driver = workloads.ThreadsContended("contended_in", 5)
    driver.setup()
    for _ in range(4):
        driver.op()
    driver.close()
    assert ghosts
    assert driver.failed >= 1
    assert any("not outstanding" in p for p in driver.problems())


@pytest.mark.parametrize("workload,trace", [
    (w, t) for w in ("take_pair", "read_scan", "contended_in")
    for t in ("0", "1")])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = _cli(ROOT, "--workload", workload, "--seed", "2",
                "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        entry["name"]: {"value": result["metrics"][entry["name"]]["value"],
                        "unit": entry["unit"]}
        for entry in declared}
    table = proc.stdout
    for entry in declared:
        assert f"{entry['name']} " in table


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "take_pair", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
