"""One cold run of one workload, in a fresh interpreter; see run.py.

Modes:
  setup  import qcverify, build the scenario text, parse it; report setup_s
  run    setup, then run_scenario + emit_report untraced; report wall_s,
         peak RSS and the correctness verdict of the report
  trace  as run, with the span tracer installed before parsing; also
         report the per-span table, the counters and GC activity

Every mode also times a fixed reference loop before and after the measured
work (ref_s).  Prints one JSON object on stdout.  The program is reached only through
qcverify's public API; the tracer wraps it from outside.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time

from workloads import DIGESTS, WORKLOADS, recorded

BAD_VERDICTS = ("inconclusive", "check-error")
REFERENCE_LOOPS = 1_000_000


def reference_s() -> float:
    """Time of a fixed pure-Python loop that does not touch qcverify.  Run
    next to the measured work, it tracks the speed that the machine gives
    this process at that moment."""
    t = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


def judge(report, rendered: str, want_digest) -> dict:
    """Failed checks of one report: an inconclusive or check-error verdict,
    or a missed [expect] entry; every check when the digest is wrong."""
    bad = {c.name for c in report.checks if c.verdict in BAD_VERDICTS}
    bad.update(name for name, _want, _got in report.mismatches())
    digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    attempted = len(report.checks)
    digest_ok = want_digest is None or digest == want_digest
    return {
        "attempted": attempted,
        "failed": attempted if not digest_ok else min(len(bad), attempted),
        "bad_checks": sorted(bad),
        "digest": digest,
        "digest_checked": want_digest is not None,
        "digest_ok": digest_ok,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--spans", default=None, help="write the spans here (trace mode)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    ref_before = reference_s()
    t0 = time.perf_counter()
    pkg = importlib.import_module("qcverify")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"qcverify imported from {pkg.__file__}, not from {src}")
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    cli = importlib.import_module("qcverify.verify_cli")
    text = wl.scenario_text(args.seed, args.smoke)
    scenario = cli.parse_scenario(text, name=wl.name, window=wl.window_for(args.smoke))
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        gc_before = (tracer.gc_s, tracer.gc_collections) if tracer else None
        t1 = time.perf_counter()
        report = cli.run_scenario(scenario)
        rendered = cli.emit_report(report, "json")
        out["wall_s"] = time.perf_counter() - t1
    out["ref_s"] = (ref_before + reference_s()) / 2
    if args.mode != "setup":
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(judge(report, rendered, recorded(DIGESTS, wl.name, args.seed, args.smoke)))
    if tracer is not None:
        out["spans"] = len(tracer.name)
        out["table"] = tracer.table()
        out["counts"] = dict(tracer.counts)
        # GC over the same interval as wall_s
        out["gc_s"] = tracer.gc_s - gc_before[0]
        out["gc_collections"] = tracer.gc_collections - gc_before[1]
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
