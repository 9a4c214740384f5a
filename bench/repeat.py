"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/repeat.py --workload random-fp --seeds 1-10
    python3 bench/repeat.py --workload defect-grid --seeds 11-15 --out bench/baseline.json

For every metric: the median of the per-run values, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json.  With --out, the summary is stored
under "<workload>/trace<n>" in that JSON file, with the machine it ran on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        vals = {k: round(v["value"], 4) for k, v in res["metrics"].items() if k in bounds}
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} {vals}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        if name in bounds:
            summary[name]["bound"] = bounds[name]
            print(f"{name:<14} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]}  "
                  f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")
    correct = all(r["correct"] for r in runs)
    print(f"all correct: {correct}")
    if args.out:
        stored = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                stored = json.load(fh)
        with open(os.path.join(BENCH, "results", f"{args.workload}-seed{runs[-1]['seed']}"
                               f"-trace{args.trace}.json"), encoding="utf-8") as fh:
            machine = json.load(fh)["machine"]
        stored[f"{args.workload}/trace{args.trace}"] = {
            "seeds": [r["seed"] for r in runs], "seconds": seconds, "machine": machine,
            "correct": correct, "summary": summary,
            "runs": [{"seed": r["seed"], "metrics": {k: v["value"] for k, v in
                                                     r["metrics"].items()}} for r in runs],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
