"""Output checks, run by the parent outside the timed region.

Each check returns ``None`` when the output is right, else a reason.  A
reason that starts with ``KNOWN`` is one of the two documented defects
(rows beyond --digits in ``probe`` and ``verify``): it counts as a failed
job but keeps the run's ``correct`` flag, so a change that fixes them
shows as fewer failures and any other wrong output still fails the run.
"""

from __future__ import annotations

import importlib.util
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import oracle
from workloads import ENGINE_TERMS, LIST_TERMS, TELESCOPING_TERMS

ROOT = Path(__file__).resolve().parent.parent
KNOWN = "KNOWN"


@lru_cache(maxsize=None)
def reference_data():
    """tests/reference_data.py, the frozen pi^2 fixtures."""
    path = ROOT / "tests" / "reference_data.py"
    spec = importlib.util.spec_from_file_location("reference_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def _surd_expand(const, count: int) -> tuple[int, ...]:
    from cfcert import Surd, surd_expand

    spec = Surd(const.a, const.b, const.d, const.c)
    return surd_expand(spec, count).quotients.terms[:count]


def _fraction(pair) -> Fraction:
    return Fraction(int(pair[0], 16), int(pair[1], 16))


def check_expand(job, out) -> str | None:
    if out["rc"] != 0:
        return f"exit {out['rc']}"
    terms = tuple(int(x) for x in out["stdout"].split())
    count = int(job["argv"][3])
    const = job["const"]
    if len(terms) != count:
        return f"{len(terms)} quotients, wanted {count}"
    if const.is_surd:
        expected = _surd_expand(const, count)
    else:
        expected = oracle.quotients(const, count)
        if const.token == "pi2":
            fixture = tuple(reference_data().PI2_QUOTIENTS_27)
            if terms[:27] != fixture:
                return "pi2 prefix differs from the fixture"
    if terms != expected:
        first = next(i for i, (a, b) in enumerate(zip(terms, expected)) if a != b)
        return f"quotient {first} differs from the oracle"
    return None


def check_eval(job, out) -> str | None:
    lo, hi = _fraction(out["lo"]), _fraction(out["hi"])
    digits = job["digits"]
    if hi - lo > Fraction(1, 10 ** digits):
        return "enclosure wider than 10^-digits"
    olo, ohi = oracle.enclosure(job["const"], digits + 30)
    # the oracle is 10^-30 times narrower; failing containment would need
    # the true value within that distance of an endpoint
    if not (lo <= olo and ohi <= hi):
        return "enclosure misses the oracle value"
    return None


@lru_cache(maxsize=None)
def _table_reference(const, count: int):
    """Oracle convergents 0..count-1 and an enclosure that resolves them."""
    convs = oracle.convergents(oracle.quotients(const, count))
    return convs, oracle.value_for(const, convs[-1][1])


def _mu_display_ok(text: str, p: int, q: int, alpha) -> bool:
    """Displayed mu is the ceiling at six decimals of -ln|a - p/q| / ln q."""
    shown = Decimal(text)
    err = sorted(abs(a - Fraction(p, q)) for a in alpha)
    with localcontext() as ctx:
        ctx.prec = 60
        lnq = Decimal(q).ln()
        mu_hi = -oracle.to_decimal(err[0]).ln() / lnq
        mu_lo = -oracle.to_decimal(err[1]).ln() / lnq
        return shown - Decimal("0.000001") < mu_hi and mu_lo <= shown


def _lagrange(q: int, mu: str) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        value = ((Decimal(mu) - 2) * Decimal(q).ln()).exp()
        return str(value.quantize(Decimal("0.000001"), ROUND_HALF_EVEN))


def check_measure(job, out) -> str | None:
    if out["rc"] != 0:
        return f"exit {out['rc']}"
    lines = out["stdout"].splitlines()
    rows = int(job["argv"][3])
    if lines[0] != "n,p,q,mu,lagrange" or len(lines) != rows + 1:
        return "unexpected table shape"
    const = job["const"]
    convs, alpha = _table_reference(const, rows)
    fixture = {}
    if const.token == "pi2":
        fixture = {r[0]: r for r in reference_data().PI2_MEASURE_TABLE}
    for line, (p, q) in zip(lines[1:], convs):
        n, ps, qs, mu, lag = line.split(",")
        n = int(n)
        if (int(ps), int(qs)) != (p, q):
            return f"row {n}: convergent differs from the oracle"
        if n in fixture:
            want = fixture[n]
            if (mu or None, lag) != (want[3], want[4]):
                return f"row {n}: differs from the pi2 fixture"
        if q == 1:
            if (mu, lag) != ("", "1.000000"):
                return f"row {n}: q = 1 row"
            continue
        if not _mu_display_ok(mu, p, q, alpha):
            return f"row {n}: mu {mu} is not the certified ceiling"
        if lag != _lagrange(q, mu):
            return f"row {n}: lagrange {lag}"
    return None


def _close(text: str, want: Decimal) -> bool:
    """A %.6e field against the value it rounds: within one unit in 10^6."""
    return abs(Decimal(text) - want) <= abs(want) * Decimal("1e-6")


def check_probe(job, out) -> str | None:
    if out["rc"] != 0:
        return f"exit {out['rc']}"
    lines = out["stdout"].splitlines()
    rows = int(job["argv"][3])
    if len(lines) != rows:  # header plus one row per convergent but the last
        return "unexpected table shape"
    const = job["const"]
    digits = int(job["argv"][job["argv"].index("--digits") + 1])
    convs, alpha = _table_reference(const, rows)
    bad_rows = []
    with localcontext() as ctx:
        ctx.prec = 40
        pi = oracle.decimal_pi()
        for line, (p, q) in zip(lines[1:], convs):
            n, eps, direct, reduced, unscaled, lower, upper, env = line.split(",")
            n = int(n)
            eps_true = oracle.to_decimal(q * alpha[0] - p)
            sin_pi_eps = abs(oracle.decimal_sin(pi * eps_true))
            ok = (_close(eps, eps_true)
                  and _close(reduced, sin_pi_eps)
                  and _close(unscaled, abs(oracle.decimal_sin(eps_true)))
                  and (direct == "" if const.token != "pi2"
                       else _close(direct, sin_pi_eps))
                  and (n == 1 or lower == upper == "True")
                  and env != "False")
            if not ok:
                bad_rows.append((n, abs(eps_true)))
    if not bad_rows:
        return None
    first = bad_rows[0][0]
    if all(e < Decimal(10) ** -digits for _, e in bad_rows):
        return f"{KNOWN}: {len(bad_rows)} rows from {first} beyond --digits"
    return f"row {first} is wrong"


def check_verify(job, out) -> str | None:
    lines = [l for l in out["stdout"].splitlines() if not l.startswith("note:")]
    fails = [l for l in lines if not l.endswith(": PASS")]
    if not fails and out["rc"] == 0:
        return None
    prefix = "residual bounds: FAIL (first failure at n="
    if out["rc"] == 1 and len(fails) == 1 and fails[0].startswith(prefix):
        n = int(fails[0][len(prefix):-1])
        digits = int(job["argv"][job["argv"].index("--digits") + 1])
        convs, alpha = _table_reference(job["const"], n)
        p, q = convs[n - 1]
        if abs(q * alpha[0] - p) < Fraction(1, 10 ** digits):
            return f"{KNOWN}: residual bounds fail from n={n}, beyond --digits"
    return f"exit {out['rc']}: {'; '.join(fails)}"


@lru_cache(maxsize=None)
def _stream_reference(terms: tuple[int, ...]):
    """Oracle (p, q) at the sizes the engine jobs use, from one recurrence."""
    keep = {ENGINE_TERMS - 1, ENGINE_TERMS, TELESCOPING_TERMS}
    at, listed = {}, []
    p0, p1, q0, q1 = 0, 1, 1, 0
    for n, a in enumerate(terms[:ENGINE_TERMS + 1]):
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if n <= LIST_TERMS:
            listed.append((p1, q1))
        if n in keep:
            at[n] = (p1, q1)
    return at, oracle.digest(listed)


def check_engine(job, out) -> str | None:
    at, list_digest = _stream_reference(tuple(job["quotients"]))
    n = job["n"]
    if job["kind"] == "final":
        p, q = int(out["p"], 16), int(out["q"], 16)
        if (p, q) != at[n]:
            return f"{job['engine']} engine differs from the oracle"
        pp, qp = at[n - 1]
        if p * qp - pp * q != (-1) ** (n - 1):
            return "determinant identity fails"
        return None
    if out["iter"] != list_digest or out["matrix"] != list_digest:
        return "list engines differ from the oracle"
    if out["determinant"] is not True:
        return "check_determinant rejected exact convergents"
    p, q = at[job["n_telescoping"]]
    if _fraction(out["telescoping"]) != Fraction(p, q):
        return "telescoping sum differs from p_n/q_n"
    return None


CHECKS = {
    "expand": check_expand,
    "eval": check_eval,
    "measure": check_measure,
    "probe": check_probe,
    "verify": check_verify,
    "final": check_engine,
    "identities": check_engine,
}
