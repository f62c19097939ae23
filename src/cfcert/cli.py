"""Command-line frontend: expand, convergents, measure, probe, verify, bench.

Exit codes: 0 success, 1 domain error (uncertified terms, precision cap),
2 usage error.  All output except benchmark timings is deterministic for
a fixed configuration.
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

from .cf import expand, surd_expand
from .convergents import (
    WorkCounter,
    check_determinant,
    convergents_fast,
    convergents_iter,
    convergents_matrix,
    final_convergent,
    telescoping_sums,
)
from .measure import measure_table, mu_table
from .probe import PI2, bound_check, probe_table
from .reals import (DEFAULT_BUDGET, ConstantSpec, DecimalLiteral, PiPower,
                    PrecisionBudget, PrecisionError, Surd)

_ENGINES = ("iter", "matrix", "fast")
_BENCH_SIZES = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)


def parse_constant(token: str) -> ConstantSpec:
    """Constant syntax: pi, pi2, pi3, pi^t/s, sqrt:d, surd:a,b,d,c, lit:x, golden."""
    if token == "pi":
        return PiPower(1, 1)
    if token == "pi2":
        return PI2
    if token == "pi3":
        return PiPower(3, 1)
    if token == "golden":
        return Surd(1, 1, 5, 2)
    if token.startswith("pi^"):
        return PiPower(*_integers(token, *token[3:].split("/", 1)))
    if token.startswith("sqrt:"):
        return Surd(0, 1, *_integers(token, token[5:]), 1)
    if token.startswith("surd:"):
        parts = token[5:].split(",")
        if len(parts) != 4:
            raise ValueError("surd takes four integers: surd:a,b,d,c")
        return Surd(*_integers(token, *parts))
    if token.startswith("lit:"):
        return DecimalLiteral(token[4:])
    raise ValueError(f"unknown constant {token!r}")


def _integers(token: str, *fields: str) -> list[int]:
    """The integer fields of a constant token: ASCII digits, optional sign,
    as the regex [+-]?[0-9]+ reads them."""
    for field in fields:
        digits = field[1:] if field[:1] in ("+", "-") else field
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"constant {token!r}: {field!r} is not an integer")
    return [int(field) for field in fields]


def _print(out, line: str = "") -> None:
    out.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_expand(args, out) -> int:
    quotients = expand(parse_constant(args.constant), args.terms)
    shown = quotients.terms[:args.terms]
    if args.format == "csv":
        _print(out, "n,a")
        for i, a in enumerate(shown):
            _print(out, f"{i},{a}")
    else:
        _print(out, " ".join(str(a) for a in shown))
    return 0


def _cmd_convergents(args, out) -> int:
    quotients = expand(parse_constant(args.constant), args.terms)
    upto = min(args.terms, len(quotients)) - 1
    if args.engine == "fast":
        convs = [convergents_fast(quotients, upto)]
    elif args.engine == "matrix":
        convs = convergents_matrix(quotients, upto)
    else:
        convs = convergents_iter(quotients, upto)
    if args.format == "csv":
        _print(out, "n,p,q")
        for c in convs:
            _print(out, f"{c.n + 1},{c.p},{c.q}")
    else:
        for c in convs:
            _print(out, f"{c.p}/{c.q}")
    return 0


def _measure_text(rows, out) -> None:
    wp = max(len(str(r.p)) for r in rows)
    wq = max(len(str(r.q)) for r in rows)
    wn = len(str(rows[-1].display_n))
    header = (f"{'n':>{wn}}  {'p_n':>{wp}}  {'q_n':>{wq}}  "
              f"{'mu_n':>9}  {'q^(mu_n-2)':>12}")
    _print(out, header)
    for r in rows:
        mu, lag = ("" if x is None else str(x) for x in (r.mu, r.lagrange))
        _print(out, f"{r.display_n:>{wn}}  {r.p:>{wp}}  {r.q:>{wq}}  "
                    f"{mu:>9}  {lag:>12}")


def _cmd_measure(args, out) -> int:
    spec = parse_constant(args.constant)
    budget = PrecisionBudget(args.digits)
    if args.format == "plot":
        for r in mu_table(spec, args.terms, budget):
            if r.mu is not None:
                _print(out, f"({r.display_n},{r.mu})")
        return 0
    rows = measure_table(spec, args.terms, budget)
    if args.format == "csv":
        _print(out, "n,p,q,mu,lagrange")
        for r in rows:
            mu, lag = ("" if x is None else str(x) for x in (r.mu, r.lagrange))
            _print(out, f"{r.display_n},{r.p},{r.q},{mu},{lag}")
    else:
        _measure_text(rows, out)
    return 0


def _cmd_probe(args, out) -> int:
    spec = parse_constant(args.constant)
    budget = PrecisionBudget(args.digits)
    quotients = expand(spec, args.terms, budget)
    upto = min(args.terms, len(quotients)) - 1
    convs = convergents_iter(quotients, upto)
    rows = probe_table(spec, convs, budget)
    if args.format == "csv":
        _print(out, "n,epsilon,sin_direct,sin_reduced,sin_unscaled,"
                    "lower_ok,upper_ok,envelope_ok")
        for r, row_cells in rows:
            _print(out, f"{r.display_n},{','.join(row_cells)},"
                        f"{r.lower_bound_ok},{r.upper_bound_ok},{r.envelope_ok}")
    else:
        _print(out, f"{'n':>3}  {'epsilon':>14}  {'|sin(direct)|':>14}  "
                    f"{'|sin(pi*eps)|':>14}  {'|sin(eps)|':>14}  bounds  envelope")
        for r, row_cells in rows:
            bounds = "ok" if (r.lower_bound_ok and r.upper_bound_ok) else "FAIL"
            env = {True: "ok", False: "FAIL", None: "-"}[r.envelope_ok]
            _print(out, f"{r.display_n:>3}  "
                        + "".join(f"{c:>14}  " for c in row_cells)
                        + f"{bounds:>6}  {env}")
    return 0


def _cmd_verify(args, out) -> int:
    spec = parse_constant(args.constant)
    budget = PrecisionBudget(args.digits)
    quotients = expand(spec, args.terms, budget)
    n_avail = min(args.terms, len(quotients))
    upto = n_avail - 1
    results = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        suffix = f" ({detail})" if detail else ""
        _print(out, f"{name}: {'PASS' if ok else 'FAIL'}{suffix}")

    if quotients.terminated:
        _print(out, f"note: rational constant, expansion terminates after "
                    f"{len(quotients.terms)} terms")
    if isinstance(spec, Surd):
        sx = surd_expand(spec, n_avail)
        period = ",".join(str(a) for a in sx.period_terms)
        _print(out, f"note: surd period [{period}] after preperiod {sx.preperiod}")
        agree = sx.quotients.terms[:n_avail] == quotients.terms[:n_avail]
        report("surd exact/interval agreement", agree)

    convs = convergents_iter(quotients, upto)
    report("determinant identity", check_determinant(convs))

    sums = telescoping_sums(quotients, upto)
    bad = next((f"first failure at n={c.n}" for pair, c in zip(sums, convs)
                if pair != (c.p, c.q)), "")
    report("telescoping identity", not bad, bad)

    matrix = convergents_matrix(quotients, upto)
    fast = convergents_fast(quotients, upto)
    engines_ok = matrix == convs and (fast.p, fast.q) == (convs[-1].p, convs[-1].q)
    report("engine equivalence", engines_ok)

    if upto >= 1 and not quotients.terminated:
        flags = bound_check(spec, convs, budget)
        # row n is convs[n - 1]; classical bounds hold from the second convergent
        bad = next((f"first failure at n={n}" for n, (lower, upper, _) in
                    enumerate(flags[1:], 2) if not (lower and upper)), "")
        report("residual bounds", not bad, bad)
        bad = next((f"violated at n={n}" for n, (*_, envelope) in enumerate(flags, 1)
                    if envelope is False), "")
        report("sine envelope", not bad, bad)

    return 0 if all(results) else 1


def _bench_quotients(args) -> list[int]:
    if args.constant == "random":
        import random  # only this command needs it; the CLI starts without it

        rng = random.Random(args.seed if args.seed is not None else 0)
        return [rng.randint(1, 9) for _ in range(args.terms)]
    if args.seed is not None:
        raise ValueError("--seed applies only to bench random")
    spec = parse_constant(args.constant)
    if isinstance(spec, Surd):
        return list(surd_expand(spec, args.terms).quotients.terms[:args.terms])
    # bench times the engines on reproducible exact quotient streams
    raise ValueError("bench needs a surd constant (e.g. golden, sqrt:2) or 'random'")


def _cmd_bench(args, out) -> int:
    terms = _bench_quotients(args)
    sizes = sorted({s for s in _BENCH_SIZES if s <= len(terms)} | {len(terms)})
    for size in sizes:
        prefix = terms[:size]
        results = {}
        for engine in _ENGINES:
            counter = WorkCounter()
            start = time.perf_counter()
            last = final_convergent(prefix, size - 1, engine, counter)
            wall = time.perf_counter() - start
            results[engine] = (last.p, last.q)
            _print(out, f"bench terms={size} engine={engine} "
                        f"mul_bits={counter.bits} muls={counter.multiplications} "
                        f"wall_s={wall:.4f}")
        agree = len(set(results.values())) == 1
        _print(out, f"bench terms={size} agreement={'ok' if agree else 'MISMATCH'}")
        if not agree:
            return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# One entry per sub-command: name, handler, help and flags, which both
# _build_parser and _parse read.  A flag is (spellings, convert, default,
# help): convert is int or the tuple of the flag's choices, and the flag
# is stored under its first spelling without the dashes.
_CONSTANT_HELP = "pi, pi2, pi3, pi^t/s, sqrt:d, surd:a,b,d,c, lit:x, golden"
_TERMS = (("--terms", "--rows", "-n"), int, 30, "terms / table rows (default 30)")
_DIGITS = (("--digits",), int, DEFAULT_BUDGET.digits,
           "significant digits, plus guard digits, of every residual: where "
           "precision starts, not what is printed (default %(default)s)")
_FORMAT = (("--format",), ("text", "csv"), "text", None)
_COMMANDS = (
    ("expand", _cmd_expand, "certified partial quotients", (_TERMS, _FORMAT)),
    ("convergents", _cmd_convergents, "convergents p_n/q_n",
     (_TERMS, (("--engine",), _ENGINES, "iter", None), _FORMAT)),
    ("measure", _cmd_measure, "irrationality-measure table",
     (_TERMS, _DIGITS, (("--format",), ("text", "csv", "plot"), "text", None))),
    ("probe", _cmd_probe, "residual and sine-probe table", (_TERMS, _DIGITS, _FORMAT)),
    ("verify", _cmd_verify, "identity and bound checks", (_TERMS, _DIGITS)),
    ("bench", _cmd_bench, "engine benchmark on exact quotients",
     (_TERMS, (("--seed",), int, None, None))),
)


def _build_parser():
    """The argparse parser of ``_COMMANDS``, built with argparse's own
    defaults: the renderer of help and usage errors, and the parser of
    every line that ``_parse`` declines.  Only those lines build it."""
    import argparse  # a well-formed command line never needs it

    parser = argparse.ArgumentParser(
        prog="cfcert",
        description="Certified continued fractions, convergents, and "
                    "irrationality-measure tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help, flags in _COMMANDS:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("constant", help=_CONSTANT_HELP)
        for spellings, convert, default, text in flags:
            kind = {"type": int} if convert is int else {"choices": convert}
            p.add_argument(*spellings, dest=spellings[0][2:], default=default,
                           help=text, **kind)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``_build_parser().parse_args(argv)`` returns, for
    a line of one shape: an exact command name, a constant that does not
    start with '-', then pairs of an exact flag spelling of that command
    and its value, the last repeat winning.  An int value is ASCII digits
    within the int-str limit; a choice is one of the flag's choices.

    None for every other line (help, abbreviations, '=' or glued values,
    '--', flags before the constant, values starting with '-'), which
    argparse then parses or refuses with its own messages.
    """
    command = next((c for c in _COMMANDS if c[0] == argv[0]), None) if argv else None
    if command is None or len(argv) % 2 or argv[1].startswith("-"):
        return None
    name, handler, _, flags = command
    spelled = {spelling: flag for flag in flags for spelling in flag[0]}
    values = {spellings[0][2:]: default for spellings, _, default, _ in flags}
    for spelling, text in zip(argv[2::2], argv[3::2]):
        if spelling not in spelled:
            return None
        spellings, convert, _, _ = spelled[spelling]
        if convert is int and text.isascii() and text.isdigit():
            try:
                value = int(text)
            except ValueError:  # past the int-str limit, which argparse refuses
                return None
        elif convert is not int and text in convert:
            value = text
        else:
            return None
        values[spellings[0][2:]] = value
    return SimpleNamespace(command=name, handler=handler, constant=argv[1], **values)


def run(argv: list[str] | None = None, out=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    # exact integers print at any size; the old limit is back on return
    str_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if str_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.terms < 1:
            raise ValueError("--terms must be >= 1")
        return args.handler(args, out)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        if str_limit is not None:
            sys.set_int_max_str_digits(str_limit)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
