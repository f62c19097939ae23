"""Run one benchmark job in a fresh interpreter and report it as JSON.

Started by run.py with the job on stdin.  The clock readings use
CLOCK_MONOTONIC, which is shared by all processes of the machine, so the
parent can subtract its own spawn time from ``t_imported``.  Outputs are
serialised after the timed region; large integers travel as hex, which
avoids Python's limit on decimal conversion.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import cfcert.cli  # noqa: E402  (the import is what setup_s measures)

t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import base64  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from array import array  # noqa: E402

from oracle import digest  # noqa: E402


def _run(job: dict, counter):
    """The timed call; every cfcert name is looked up at call time."""
    kind = job["kind"]
    if kind == "cli":
        out = io.StringIO()
        rc = cfcert.cli.run(job["argv"], out)
        return rc, out.getvalue()
    if kind == "eval":
        spec = cfcert.PiPower(job["t"], job["s"])
        return cfcert.eval_constant(spec, cfcert.PrecisionBudget(job["digits"]))
    if kind == "noop":
        return None
    terms, n = job["terms"], job["n"]
    if kind == "final":
        return cfcert.final_convergent(terms, n, job["engine"], counter)
    if kind == "identities":
        convs = cfcert.convergents_iter(terms, n, counter)
        return (convs, cfcert.check_determinant(convs),
                cfcert.convergents_matrix(terms, n, counter),
                cfcert.telescoping_sum(terms, job["n_telescoping"]))
    raise ValueError(f"unknown job kind {kind!r}")


def _hex_fraction(x) -> list[str]:
    return [hex(x.numerator), hex(x.denominator)]


def _serialise(kind: str, result) -> dict:
    if kind == "cli":
        rc, stdout = result
        return {"rc": rc, "stdout": stdout}
    if kind == "eval":
        return {"lo": _hex_fraction(result.lo), "hi": _hex_fraction(result.hi)}
    if kind == "final":
        return {"p": hex(result.p), "q": hex(result.q)}
    if kind == "identities":
        convs, det_ok, matrix, tele = result
        return {"iter": digest((c.p, c.q) for c in convs),
                "determinant": det_ok,
                "matrix": digest((c.p, c.q) for c in matrix),
                "telescoping": _hex_fraction(tele)}
    return {}


def main() -> None:
    job = json.load(sys.stdin)
    if "quotients" in job:
        job["terms"] = array("q", base64.b64decode(job["quotients"])).tolist()
    tracer = counter = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(cfcert)
        counter = cfcert.WorkCounter()
    t_start = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = _run(job, counter)
    t_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    report = {
        "t_imported": t_imported,
        "t_start": t_start,
        "t_end": t_end,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output": _serialise(job["kind"], result),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["work"] = {"mul_bits": counter.bits,
                          "muls": counter.multiplications}
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    sys.stderr.flush()
    # skip interpreter teardown, which would free every big integer first
    os._exit(0)


if __name__ == "__main__":
    main()
