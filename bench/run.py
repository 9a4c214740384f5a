"""qcverify benchmark: time to verdict, set-up time and peak RSS.

    python3 bench/run.py                      # every workload, end-to-end table
    python3 bench/run.py --workload defect-grid --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload random-fp --trace 1   # per-layer metrics
    python3 bench/run.py --smoke --seconds 1  # tiny windows, same checks

A closed loop with one caller and no threads: one scenario at a time, each
in a fresh child interpreter (bench/child.py), because every `qcv` call is
a cold process and users pay that cost each time; so there is no warm-up.
The program is imported from src/ of the checkout that holds this file.

End-to-end metrics (trace 0), per workload:
  setup_s      child start to a parsed Scenario: import of qcverify, scenario
               generation, parse_scenario; median over every child of the run
  wall_s       run_scenario + emit_report of the whole workload, untraced;
               median over the children started within --seconds
  peak_rss_mb  ru_maxrss of a child, median over the children
  fail_frac    failed checks / attempted checks (also the result's `failed`
               and `attempted`); a check fails when it is inconclusive or a
               check-error, misses an [expect] entry, or when the report
               digest differs from the recorded one (then all checks fail)
setup_s and wall_s are each child's seconds scaled to a reference speed by a
loop timed around its work (see REFERENCE_S); the unscaled seconds are
printed and stored too.

Per-layer metrics (trace 1) come from traced children alternating with
untraced ones; the tracing overhead is the difference of their wall_s
medians.  Counts that must repeat exactly between runs of the same code
and seed are compared across the traced children (a difference makes the
run incorrect) and against the counts recorded in workloads.py (a
difference is reported as drift: the inputs or the program's work changed).

Each run stores its samples, the machine, the commit and the seed in
bench/results/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, RECORDED_COUNTS, WORKLOADS, recorded

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

SETUPS_PER_RUN = 2  # set-up-only children after each work child, for a steadier setup_s
MIN_TRACED = 2  # traced children per traced run, so the exact counts can be compared
TIME_LIMIT_S = 170.0  # a workload gives up (and the run fails) past this

# counts that repeat exactly between runs of the same code and seed
EXACT_COUNTS = (
    "exact_linalg.rref.calls",
    "exact_linalg.rref.cells",
    "exact_linalg.rref.nnz",
    "exact_linalg.matmul.calls",
    "localization_cech.localize_piece.calls",
    "localization_cech.complexes_built",
    "gc.collections",
)

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# The 2-vCPU machine this was measured on (Python 3.11.7) is shared, and its
# speed drifts by up to 1.8x in phases of seconds to minutes: the medians of
# ten unscaled 30 s runs of random-fp ranged from 3.2 s to 5.7 s.  Each child
# therefore times a fixed loop (child.reference_s) before and after its
# measured work, and setup_s and wall_s are reported at the reference speed:
#     seconds * REFERENCE_S / ref_s
# REFERENCE_S is the loop's typical time on that machine, so there the scaled
# values read as typical seconds.  Over the ten runs per workload in
# bench/baseline.json, the quartile spread of wall_s was 0.09-0.20 unscaled
# and 0.05-0.06 scaled.
REFERENCE_S = 0.084


class BenchError(RuntimeError):
    pass


def _unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("ratio") or metric.endswith("share") or metric.endswith("density"):
        return "ratio"
    return "count"


def _scaled(child: dict, key: str) -> float:
    """A child's time scaled to the reference speed (see REFERENCE_S)."""
    return child[key] * REFERENCE_S / child["ref_s"]


def _child(workload, seed, mode, smoke, deadline, run_id, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--run-id", run_id]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: time limit reached before the {mode} child started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} child killed after {remaining:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} child exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def layer_metrics(t: dict) -> dict:
    """The per-layer metrics of one traced child."""
    tab, c = t["table"], t["counts"]

    def row(name):
        return tab.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    rr, mm = row("exact_linalg.rref"), row("exact_linalg.matmul")
    pa, lp = row("graded_modules.power_act"), row("localization_cech.localize_piece")
    cd, ci = row("localization_cech.cech_degree"), row("localization_cech.cech_complex_init")
    m = {
        "exact_linalg.rref.calls": rr["calls"],
        "exact_linalg.rref.self_s": rr["self_s"],
        "exact_linalg.rref.cells": c["rref_cells"],
        "exact_linalg.rref.nnz": c["rref_nnz"],
        "exact_linalg.rref.density": ratio(c["rref_nnz"], c["rref_cells"]),
        "exact_linalg.rref.cache_hit_ratio": ratio(c["rref_hits"], rr["calls"]),
        "exact_linalg.matmul.calls": mm["calls"],
        "exact_linalg.matmul.self_s": mm["self_s"],
        "exact_linalg.matmul.cells_out": c["matmul_cells_out"],
        "exact_linalg.kernel_basis.self_s": row("exact_linalg.kernel_basis")["self_s"],
        "exact_linalg.solve.self_s": row("exact_linalg.solve")["self_s"],
        "graded_modules.power_act.calls": pa["calls"],
        "graded_modules.power_act.self_s": pa["self_s"],
        "graded_modules.act.self_s": row("graded_modules.act")["self_s"],
        "graded_modules.piece.self_s": row("graded_modules.piece")["self_s"],
        "graded_modules.tensor_realization.self_s":
            row("graded_modules.tensor_realization")["self_s"],
        "localization_cech.localize_piece.calls": lp["calls"],
        "localization_cech.localize_piece.self_s": lp["self_s"],
        "localization_cech.localize_piece.heuristic_ratio":
            ratio(c["localize_heuristic"], lp["calls"]),
        "localization_cech.cech_degree.calls": cd["calls"],
        "localization_cech.cech_degree.self_s": cd["self_s"],
        "localization_cech.complexes_built": ci["calls"],
        "localization_cech.complex_reuse_ratio": ratio(c["complexes_distinct"], ci["calls"]),
        "localization_cech.caps_tried": c["caps_tried"],
        "localization_cech.section_mult_block.self_s":
            row("localization_cech.section_mult_block")["self_s"],
    }
    for fn in ("sheaf_sections", "flat_quotient_obstruction", "flat_sections_defect",
               "sequence_report", "witness_nonaffine"):
        m[f"glued_scheme.{fn}.total_s"] = row(f"glued_scheme.{fn}")["total_s"]
    m["matlis.bidual_pipeline.total_s"] = row("matlis.bidual_pipeline")["total_s"]
    m["matlis.matlis_dual.calls"] = row("matlis.matlis_dual")["calls"]
    m["verify_cli.parse_scenario.s"] = row("verify_cli.parse_scenario")["total_s"]
    m["verify_cli.emit_report.s"] = row("verify_cli.emit_report")["total_s"]
    m["gc.s"] = t["gc_s"]
    m["gc.collections"] = t["gc_collections"]
    m["gc.share"] = ratio(t["gc_s"], t["wall_s"])
    return m


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qcverify")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace, smoke) -> dict:
    """Run one workload for `seconds` and aggregate its children."""
    tag = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    work, traced, setups = [], [], []
    if not trace:
        # set-up-only children between the work children, so that set-up
        # samples spread over the run like the work samples do
        while not work or time.monotonic() - start < seconds:
            work.append(_child(name, seed, "run", smoke, deadline, f"{tag}-r{len(work)}"))
            for _ in range(SETUPS_PER_RUN):
                setups.append(_child(name, seed, "setup", smoke, deadline,
                                     f"{tag}-s{len(setups)}"))
    else:
        os.makedirs(RESULTS, exist_ok=True)
        spans = os.path.join(RESULTS, f"spans-{tag}.tsv.gz")
        while (len(work) < 1 or len(traced) < MIN_TRACED
               or time.monotonic() - start < seconds):
            if len(work) <= len(traced):
                work.append(_child(name, seed, "run", smoke, deadline, f"{tag}-r{len(work)}"))
            else:
                traced.append(_child(name, seed, "trace", smoke, deadline,
                                     f"{tag}-t{len(traced)}", spans))
    setups += work
    children = work + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = sorted({f"{n}: wrong verdict or expectation" for c in children
                       for n in c["bad_checks"]}
                      | {"report digest differs from the recorded one"
                         for c in children if not c["digest_ok"]})
    walls = [_scaled(c, "wall_s") for c in work]
    out = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "seconds": seconds,
        "samples": {"setup": len(setups), "run": len(work), "trace": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "digest_checked": all(c["digest_checked"] for c in children),
        "digests": sorted({c["digest"] for c in children}),
        "raw": {"setup_s": [c["setup_s"] for c in setups],
                "setup_ref_s": [c["ref_s"] for c in setups],
                "wall_s": [c["wall_s"] for c in work],
                "wall_ref_s": [c["ref_s"] for c in work],
                "peak_rss_mb": [c["peak_rss_mb"] for c in work]},
        "raw_medians": {"setup_s": statistics.median(c["setup_s"] for c in setups),
                        "wall_s": statistics.median(c["wall_s"] for c in work)},
    }
    if not trace:
        out["metrics"] = {
            "setup_s": statistics.median(_scaled(c, "setup_s") for c in setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(out["raw"]["peak_rss_mb"]),
        }
    else:
        per_child = [layer_metrics(t) for t in traced]
        metrics = {k: (statistics.median_low if _unit(k) == "count" else statistics.median)(
            [m[k] for m in per_child]) for k in per_child[0]}
        traced_wall = statistics.median(_scaled(t, "wall_s") for t in traced)
        untraced_wall = statistics.median(walls)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
        out["metrics"] = metrics
        out["raw"]["traced_wall_s"] = [t["wall_s"] for t in traced]
        out["raw"]["layers"] = [t["table"] for t in traced]
        exact = {k: [m[k] for m in per_child] for k in EXACT_COUNTS}
        out["exact_counts"] = {k: v[0] for k, v in exact.items()}
        unsteady = [k for k, v in exact.items() if len(set(v)) > 1]
        if unsteady:
            problems.append("counts differ between traced runs of one seed: "
                            + ", ".join(f"{k}={exact[k]}" for k in unsteady))
        want = recorded(RECORDED_COUNTS, name, seed, smoke)
        if want is not None:
            out["count_drift"] = {k: [want[k], out["exact_counts"][k]]
                                  for k in want if want[k] != out["exact_counts"][k]}
    out["problems"] = problems
    out["correct"] = failed == 0 and not problems
    out["elapsed_s"] = time.monotonic() - start
    return out


def _print_summary(res: dict) -> None:
    s = res["samples"]
    print(f"{res['workload']}  seed={res['seed']} trace={res['trace']} smoke={res['smoke']}"
          f"  children: setup={s['setup']} run={s['run']} traced={s['trace']}")
    for k, v in res["metrics"].items():
        n = s["setup"] if k == "setup_s" else (s["run"] if k in UNITS else s["trace"])
        print(f"  {k:<48} {v:>16.6g} {_unit(k):<6} median of {n}")
    raw = res["raw_medians"]
    print(f"  unscaled medians: setup_s {raw['setup_s']:.6g} s, wall_s {raw['wall_s']:.6g} s; "
          f"reference loop {statistics.median(res['raw']['wall_ref_s']):.6g} s "
          f"(scaled to {REFERENCE_S} s)")
    print(f"  {'fail_frac':<48} {res['fail_frac']:>16.6g} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} checks failed")
    for p in res["problems"]:
        print(f"  PROBLEM: {p}")
    if res.get("count_drift"):
        print("  count drift against the recorded counts (recorded, now): "
              + json.dumps(res["count_drift"]))


def _store(res: dict, machine: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}" + (
        "-smoke" if res["smoke"] else "")
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(res, machine=machine), fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny windows and two random cases, same checks")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcverify", "__init__.py")):
        print(f"bench: no qcverify sources under {SRC}", file=sys.stderr)
        return 2
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform(), "commit": _commit(),
               "source_sha256": _source_sha256()}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            _store(res, machine)
            _print_summary(res)
            results.append(res)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        for k, v in res["metrics"].items():
            metrics[f"{res['workload']}.{k}" if prefix else k] = {"value": v, "unit": _unit(k)}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
