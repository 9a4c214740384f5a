"""Smoke tests of the benchmark itself (tiny windows, two random cases).

    python3 -m pytest -q bench/test_bench.py

They run the same correctness checks as a full run and take a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from child import judge  # noqa: E402
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, random_fp_text, recorded  # noqa: E402

from qcverify import emit_report, parse_scenario, run_scenario  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_workload_is_correct_with_its_end_to_end_metrics():
    res = _result(_bench("--smoke", "--seconds", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert sorted(res["metrics"]) == sorted(f"{w}.{n}" for w in WORKLOADS for n in names)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_single_workload_prints_exactly_the_declared_metrics():
    spec = _spec()
    res = _result(_bench("--smoke", "--seconds", "0", "--workload", "random-fp",
                         "--seed", "7"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}

    traced = _result(_bench("--smoke", "--seconds", "0", "--workload", "overlap-window",
                            "--trace", "1"))
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert traced["metrics"]["exact_linalg.rref.calls"]["value"] > 0
    assert traced["metrics"]["localization_cech.complexes_built"]["value"] > 0


def test_a_wrong_digest_fails_every_check():
    wl = WORKLOADS["random-fp"]
    text = wl.scenario_text(DEFAULT_SEED, True)
    report = run_scenario(parse_scenario(text, name=wl.name, window=wl.window_for(True)))
    rendered = emit_report(report, "json")
    ok = judge(report, rendered, recorded(DIGESTS, wl.name, DEFAULT_SEED, True))
    assert ok["digest_ok"] and ok["failed"] == 0
    bad = judge(report, rendered, "0" * 64)
    assert not bad["digest_ok"] and bad["failed"] == bad["attempted"] == len(report.checks)

    # a verdict that contradicts the scenario's [expect] block fails that check
    report.checks[4].verdict = "not-exact"  # star-sequence f0 g0 over U
    assert judge(report, emit_report(report, "json"), None)["failed"] == 1


def test_random_presentations_follow_the_seed():
    window = WORKLOADS["random-fp"].window
    assert random_fp_text(3, window) == random_fp_text(3, window)
    assert random_fp_text(3, window) != random_fp_text(4, window)


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--smoke", "--seconds", "0", "--workload", "random-fp",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("seed", [2, 3])
def test_seeded_workload_has_no_failing_check(seed):
    res = _result(_bench("--smoke", "--seconds", "0", "--workload", "random-fp",
                         "--seed", str(seed)))
    assert res["correct"] and res["failed"] == 0
