"""Tests of the benchmark itself: every workload prints every named metric
with its unit, the oracles catch a wrong result, and the contract's
command-line behaviour holds.

    python3 -m pytest perfbench -q
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

import clock  # noqa: E402
import run  # noqa: E402
from workloads import Classify, Explain, Structure, Sweep  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

SWEEP_4 = (1080, 750, 541)  # graphs, recognized, distinct edge sets for n <= 4


def small_workloads():
    return {
        "sweep": Sweep(max_n=4, expected=SWEEP_4),
        "classify": Classify(n=3),
        "structure": Structure(corpus_size=6),
        "explain": Explain(rejected=1),
    }


def test_workload_names_match_benchmark_file():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"])
    assert sorted(small_workloads()) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(small_workloads()))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    metrics, attempted, failures, *_ = run.run(small_workloads()[name], seed=7, seconds=0, trace=trace)
    assert failures == []
    assert attempted >= 1
    expected = dict(PER_LAYER) if trace else dict(END_TO_END, fail_ratio="ratio")
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    if not trace:
        assert metrics["fail_ratio"][0] == 0
        assert all(metrics[k][0] > 0 for k in END_TO_END)


def test_traced_counts_are_exact():
    metrics, *_ = run.run(Sweep(max_n=4, expected=SWEEP_4), seed=1, seconds=0, trace=True)
    assert metrics["axioms.is_qbmg_masks.calls"][0] == SWEEP_4[0]
    assert metrics["enumeration.graphs_generated"][0] == SWEEP_4[0]
    metrics, *_ = run.run(Classify(n=3), seed=1, seconds=0, trace=True)
    assert metrics["digraph.canonical_form.calls"][0] == 98
    assert metrics["digraph.canonical_form.useful_ratio"][0] == 9 / 98
    metrics, *_ = run.run(Explain(rejected=2), seed=1, seconds=0, trace=True)
    assert metrics["trees.topologies_per_reject"][0] == 2752
    assert metrics["trees.explained_ratio"][0] == 236 / 238


def test_wrong_expected_count_fails_ops():
    wrong = (SWEEP_4[0], SWEEP_4[1] + 1, SWEEP_4[2])
    metrics, attempted, failures, *_ = run.run(Sweep(max_n=4, expected=wrong), seed=1, seconds=0, trace=False)
    assert metrics["fail_ratio"][0] > 0
    assert len(failures) == attempted


def test_wrong_digest_fails_ops():
    classes, filtered, _ = Classify.EXPECTED[3]
    workload = Classify(n=3, expected=(classes, filtered, "0" * 64))
    metrics, _, failures, *_ = run.run(workload, seed=1, seconds=0, trace=False)
    assert metrics["fail_ratio"][0] > 0
    assert failures and "digest" in failures[0]


def test_wrong_class_count_fails_ops():
    _, filtered, digest = Classify.EXPECTED[3]
    metrics, *_ = run.run(Classify(n=3, expected=(10, filtered, digest)), seed=1, seconds=0, trace=False)
    assert metrics["fail_ratio"][0] > 0


def test_failing_op_is_counted_and_run_goes_on():
    class Broken(Structure):
        def op(self, L, item):
            raise RuntimeError("boom")

    metrics, attempted, failures, *_ = run.run(Broken(corpus_size=3), seed=1, seconds=0, trace=False)
    assert attempted == 3 and len(failures) == 3
    assert metrics["fail_ratio"][0] == 1


def test_clock_scales_by_the_sampled_machine_speed():
    c = clock.Clock()
    c.samples = [2 * clock.REFERENCE_S] * clock.RECENT_SAMPLES  # half the nominal speed
    scaled, elapsed, result, error = c.call(sum, range(100_000))
    assert (result, error) == (sum(range(100_000)), None)
    assert scaled == elapsed / 2
    _, _, _, error = c.call(int, "x")
    assert isinstance(error, ValueError)


def test_clock_excludes_its_samples():
    with clock.Clock() as c:
        took, elapsed, _, _ = c.call(lambda: [clock.reference_loop() for _ in range(150)])
    assert len(c.samples) > clock.RECENT_SAMPLES
    assert 0 < elapsed < 150 * max(c.samples)


def test_same_seed_same_inputs():
    lib = run.load_library()
    first = Structure(corpus_size=4).corpus(lib, run.random.Random(5))
    second = Structure(corpus_size=4).corpus(lib, run.random.Random(5))
    assert [(t.parent, s, u, f) for t, s, u, f in first] == [(t.parent, s, u, f) for t, s, u, f in second]
    explain = [g.edges for g, _ in Explain(rejected=3).corpus(lib, run.random.Random(5))]
    assert explain == [g.edges for g, _ in Explain(rejected=3).corpus(lib, run.random.Random(5))]


def test_command_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explain", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    meta = json.loads(next(line for line in out if line.startswith("# meta "))[len("# meta "):])
    assert {"git_revision", "python", "nproc", "seed", "src_lines"} <= set(meta)
    assert meta["ops"] % 266 == 0
    assert any(line.startswith("# fail_ratio = 0 ") for line in out)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
