"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs end to end through run.py, untraced and traced, at the
``tiny`` size; the checks are that every metric BENCHMARK.json names is
reported with its unit, that traced and untraced repeats give the same
output digest, and that a corrupted result is counted as a failed stage.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """The final JSON line and the written result of one tiny run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    written = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}" / "result.json"
    return final, json.loads(written.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, {trace: bench(request.param, trace) for trace in (0, 1)}


def test_every_declared_metric_is_reported_with_its_unit(runs):
    _, by_trace = runs
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        final, _ = by_trace[trace]
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
        assert set(final["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            reported = final["metrics"][m["name"]]
            assert reported["unit"] == m["unit"]
            assert math.isfinite(reported["value"])


def test_traced_and_untraced_digests_agree(runs):
    _, by_trace = runs
    digests = {d for _, result in by_trace.values() for d in result["digests"]}
    assert len(digests) == 1
    assert len(by_trace[1][1]["digests"]) >= 2  # at least one untraced, one traced


def test_layers_that_do_not_run_read_zero(runs):
    workload, by_trace = runs
    metrics = by_trace[1][0]["metrics"]
    heuristics = [name for name in metrics if name.startswith("heuristics.")]
    if workload == "split-fixed":
        assert all(metrics[name]["value"] == 0 for name in heuristics)
        assert metrics["vbnn.save_snapshot_calls"]["value"] == 5
    else:
        assert metrics["heuristics.probe_steps"]["value"] > 0
        assert metrics["vbnn.save_snapshot_calls"]["value"] == 0
    assert (metrics["cli.write_results_csv_calls"]["value"] > 0) == (workload == "synthetic-auto")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed_stage(workload, tmp_path):
    vclab = worker.import_vclab()
    run_workload, planned, auto = worker.WORKLOADS[workload](
        vclab, SEED, worker.SIZES["tiny"][workload], tmp_path)
    _, records = run_workload(lambda fn: fn)
    assert worker.check_stages(records, planned, auto) == []

    for corrupt in (lambda r: r["accuracy"].__setitem__(0, 1.5),
                    lambda r: r["accuracy"].__setitem__(0, math.nan),
                    lambda r: r.update(beta=1e4),
                    lambda r: r["accuracy"].pop()):
        bad = json.loads(json.dumps(records))
        corrupt(bad[-1])
        assert len(worker.check_stages(bad, planned, auto)) == 1
    assert len(worker.check_stages(records[:-1], planned, auto)) == 1


def test_digest_mismatch_fails_every_stage_of_that_repeat():
    same = {"digest": "a", "stages_attempted": 3, "stages_failed": 0}
    other = {"digest": "b", "stages_attempted": 3, "stages_failed": 1}
    assert run.tally([same, same, other], []) == (9, 3, "a")
    assert run.tally([same], ["crashed"]) == (6, 3, "a")
