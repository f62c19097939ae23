"""cfcert benchmark: seeded workloads, one fresh process per job.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 10

A run repeats the workload's seeded job list (a pass) until ``--seconds``
have passed and the tail percentile has ten jobs beyond it.  Jobs run one
at a time, each in a new interpreter, so no cache state carries over from
one job to the next, as for a user of the command line.  Outputs are
checked after the last pass.  With ``--trace 0`` the last stdout line is
the end-to-end metrics; with ``--trace 1`` each job wraps cfcert's public
functions (tracing.py) and the line holds the per-layer metrics.
``--report`` runs every workload both ways and prints each metric by name
and unit, the tail level, the failed share, the tracing overhead and
whether the traced run confirms each workload's dominant layer.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from checks import CHECKS, KNOWN
from tracing import COUNT_FIELDS, LAYER_METRICS, add_summary, layer_value
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
JOB_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"),
    ("ok_share", "ratio"), ("peak_rss_mb", "MB"),
]


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def encode(job: dict, trace: bool) -> bytes:
    """The job as job.py reads it from stdin; quotients travel as int64s."""
    payload = {k: v for k, v in job.items() if k not in ("const", "check")}
    payload["trace"] = trace
    if "quotients" in job:
        raw = array("q", job["quotients"]).tobytes()
        payload["quotients"] = base64.b64encode(raw).decode()
    return json.dumps(payload).encode()


def run_job(data: bytes) -> dict:
    """Start job.py, feed it an encoded job and collect its report.

    ``setup_s`` runs from just before the spawn to the end of
    ``import cfcert`` in the child; ``job_s`` is the child's own timing of
    the call, after the import and the input are read.
    """
    spawned = _clock()
    # -S: the interpreter's site hooks belong to the machine, not to cfcert
    proc = subprocess.Popen([sys.executable, "-S", str(JOB)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(data, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
    if proc.returncode != 0 or not stdout.strip():
        return {"error": f"job process exit {proc.returncode}: "
                         f"{stderr.decode(errors='replace').strip()[-400:]}"}
    report = json.loads(stdout.decode().splitlines()[-1])
    report["setup_s"] = report["t_imported"] - spawned
    report["job_s"] = report["t_end"] - report["t_start"]
    return report


def check(job: dict, report: dict) -> str | None:
    if "error" in report:
        return report["error"]
    return CHECKS[job["check"]](job, report["output"])


def tail(values: list[float], level: int) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(level / 100 * len(ranked)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object and details for --report."""
    build, level = WORKLOADS[name]
    jobs = build(random.Random(seed))
    min_jobs = math.ceil(10 / (1 - level / 100))
    # compile cfcert's bytecode and warm the file cache before timing
    warm = run_job(encode({"kind": "noop"}, False))
    if "error" in warm:
        raise RuntimeError(warm["error"])

    payloads = [encode(job, trace) for job in jobs]
    passes: list[list[dict]] = []
    pass_s: list[float] = []
    started = _clock()
    while (len(passes) < 2 or _clock() - started < seconds
           or len(passes) * len(jobs) < min_jobs):
        begin = _clock()
        passes.append([run_job(data) for data in payloads])
        pass_s.append(_clock() - begin)

    reasons = [check(job, report) for reports in passes
               for job, report in zip(jobs, reports)]
    attempted = len(reasons)
    failed = sum(r is not None for r in reasons)
    unexpected = sorted({r for r in reasons
                         if r is not None and not r.startswith(KNOWN)})
    known = sorted({r for r in reasons if r is not None} - set(unexpected))
    reports = [r for reports in passes for r in reports if "error" not in r]
    times = [r["job_s"] for r in reports]
    details = {"level": level, "samples": len(times), "passes": len(passes),
               "failed_share": failed / attempted,
               "unexpected": unexpected, "known": known}

    if not trace:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "run_s": statistics.median(pass_s),
            "job_s.p50": statistics.median(times),
            "job_s.tail": tail(times, level),
            "ok_share": 1 - failed / attempted,
            "peak_rss_mb": max(r["rss_kb"] for r in reports) / 1024,
        }
        units = dict(END_TO_END)
    else:
        totals = []
        for pass_reports in passes:
            total: dict = {}
            work = {"mul_bits": 0, "muls": 0}
            for report in pass_reports:
                if "error" in report:
                    continue
                add_summary(total, report["trace"])
                for key in work:
                    work[key] += report["work"][key]
            totals.append((total, work))
        # self-check: every traced pass makes the same calls
        counts = [({k: [v[f] for f in COUNT_FIELDS] for k, v in total.items()},
                   work) for total, work in totals]
        if any(c != counts[0] for c in counts[1:]):
            unexpected.append("traced passes disagree on their counts")
        metrics, units = {}, {}
        for spec in LAYER_METRICS:
            units[spec["name"]] = spec["unit"]
            if spec["stat"] == "run_s":
                metrics[spec["name"]] = statistics.median(pass_s)
            elif spec["stat"] in ("mul_bits", "muls"):
                metrics[spec["name"]] = totals[0][1][spec["stat"]]
            elif spec["stat"] == "self_s":
                metrics[spec["name"]] = statistics.median(
                    layer_value(total, spec) for total, _ in totals)
            else:
                metrics[spec["name"]] = layer_value(totals[0][0], spec)

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "details": details}


def _dominant(name: str, traced: dict) -> tuple[bool, str]:
    """Whether the traced run confirms the workload's dominant layer."""
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    selfs = {k: v for k, v in m.items() if k.endswith(".self_s")}
    if name == "deep":
        top = max(selfs, key=selfs.get)
        return top == "cf.expand.self_s", f"largest self time: {top}"
    if name == "tables":
        heavy = sum(v for k, v in selfs.items() if k.startswith(
            ("measure.", "probe.", "reals.ln_", "reals.exp_", "reals.sin_")))
        cf = sum(v for k, v in selfs.items() if k.startswith("cf."))
        return heavy > cf, f"measure+probe+ln/exp/sin {heavy:.3f} s vs cf {cf:.3f} s"
    share = sum(v for k, v in selfs.items()
                if k.startswith("convergents.")) / m["trace.run_s"]
    return share > 0.9, f"convergents self time {share:.1%} of traced run_s"


def report(seed: int, seconds: float) -> int:
    moves = {spec["name"]: spec["moves"] for spec in LAYER_METRICS}
    status = 0
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, False)
        traced = run_workload(name, seed, seconds, True)
        d = plain["details"]
        print(f"== {name} (seed {seed}): {plain['result']['attempted']} jobs "
              f"in {d['passes']} passes, correct={plain['result']['correct']}")
        for metric, m in plain["result"]["metrics"].items():
            extra = ""
            if metric == "job_s.tail":
                extra = f"  (p{d['level']} of {d['samples']} jobs)"
            print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']:<6}{extra}")
        print(f"  {'failed_share':<36} {d['failed_share']:>14.6g} ratio")
        for reason in d["known"] + d["unexpected"]:
            print(f"    failure: {reason}")
        overhead = (traced["result"]["metrics"]["trace.run_s"]["value"]
                    - plain["result"]["metrics"]["run_s"]["value"])
        print(f"  {'tracing overhead (traced - untraced run_s)':<36} "
              f"{overhead:>8.6g} s")
        for metric, m in traced["result"]["metrics"].items():
            print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']:<6}  "
                  f"moves {moves[metric]}")
        ok, text = _dominant(name, traced["result"])
        print(f"  dominant layer {'confirmed' if ok else 'NOT confirmed'}: {text}")
        if not (plain["result"]["correct"] and traced["result"]["correct"]):
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    missing = [p for p in ("src/cfcert/__init__.py", "tests/reference_data.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a cfcert checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    d = outcome["details"]
    for reason in d["unexpected"]:
        print(f"unexpected failure: {reason}", file=sys.stderr)
    print(f"# {d['samples']} jobs in {d['passes']} passes; job_s.tail is "
          f"p{d['level']}; failed_share {d['failed_share']:.6g}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
