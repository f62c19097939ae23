"""Per-layer spans and counts, recorded by wrapping cfcert's public functions.

The wrappers replace module attributes where the functions are looked up
(``cfcert.cf.eval_constant``, ``cfcert.probe.mu_n``, ...), so a call from
one layer into another passes through exactly one wrapper.  A span keeps
the wrapped function's name, the module it was looked up in (its site),
its start, end and parent span.  Spans stay in memory until the job ends;
only the per-(name, site) aggregates leave the process.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

LAYERS = ("reals", "cf", "convergents", "measure", "probe", "cli")

_clock = time.perf_counter


class Tracer:
    """Installs span-recording wrappers and aggregates them per (name, site)."""

    def __init__(self):
        self.spans: list[list] = []  # [key, start, end, parent index]
        self.stack: list[int] = []
        self.stats: dict[tuple[str, str], dict] = {}

    def install(self, package) -> None:
        """Wrap every public layer function at every module attribute."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"]
                   for layer in LAYERS}
        public = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    public[obj] = f"{layer}.{attr}"
        for site, mod in [*modules.items(), ("api", package)]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in public:
                    setattr(mod, attr, self._wrap(public[obj], site, obj,
                                                  package.PrecisionError))

    def _wrap(self, name: str, site: str, fn, precision_error):
        key = (name, site)
        stats = self.stats.setdefault(
            key, dict.fromkeys(COUNT_FIELDS + ("self_s",), 0))
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [key, _clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            stats["calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except precision_error:
                stats["failed"] += 1
                raise
            finally:
                span[2] = _clock()
                stack.pop()
            _count(name, stats, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> list[dict]:
        """Self time per (name, site): span time minus its child spans."""
        child_time = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (key, start, end, _), inner in zip(self.spans, child_time):
            self.stats[key]["self_s"] += (end - start) - inner
        return [dict(name=name, site=site, **s)
                for (name, site), s in self.stats.items() if s["calls"]]


def _count(name, stats, args, kwargs, result) -> None:
    if name == "cf.expand":
        stats["quotients"] += len(result)
    elif name == "reals.eval_constant":
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        stats["digits_max"] = max(stats["digits_max"], budget.digits)
    elif name == "reals.pi_interval":
        scale = args[0] if args else kwargs["scale"]
        stats["scale_max"] = max(stats["scale_max"], scale)
    elif name in ("measure.mu_n", "probe.residual") and result is not None:
        stats["useful"] += 1


def _m(metric, unit, better, span, stat, moves, site=None):
    return {"name": metric, "unit": unit, "better": better, "span": span,
            "site": site, "stat": stat, "moves": moves}


# Per-layer metrics.  ``moves`` names the end-to-end metric each should
# move, per workload, when the layer gets faster or does less work.
LAYER_METRICS = [
    _m("cli.run.self_s", "s", "lower", "cli.run", "self_s",
       "tables: job_s.p50 (formatting)"),
    _m("cf.expand.self_s", "s", "lower", "cf.expand", "self_s",
       "deep: run_s, job_s.p50; tables: little; engines: none"),
    _m("cf.expand.quotients", "count", "higher", "cf.expand", "quotients",
       "deep: run_s per quotient"),
    _m("cf.eval_constant.calls", "count", "lower", "reals.eval_constant",
       "calls", "deep: run_s (duplicate agreement runs)", site="cf"),
    _m("cf.eval_constant.digits_max", "digits", "lower", "reals.eval_constant",
       "digits_max", "deep: run_s", site="cf"),
    _m("cf.surd_expand.self_s", "s", "lower", "cf.surd_expand", "self_s",
       "deep: run_s; tables: verify on surds"),
    _m("reals.eval_constant.self_s", "s", "lower", "reals.eval_constant",
       "self_s", "deep: run_s"),
    _m("reals.eval_constant.calls", "count", "lower", "reals.eval_constant",
       "calls", "deep: run_s; tables: run_s"),
    _m("reals.pi_interval.self_s", "s", "lower", "reals.pi_interval",
       "self_s", "deep: run_s"),
    _m("reals.pi_interval.calls", "count", "lower", "reals.pi_interval",
       "calls", "deep: run_s; tables: run_s"),
    _m("reals.pi_interval.scale_max", "digits", "lower", "reals.pi_interval",
       "scale_max", "deep: run_s"),
    _m("reals.sin_certified.self_s", "s", "lower", "reals.sin_certified",
       "self_s", "tables: run_s"),
    _m("reals.sin_certified.calls", "count", "lower", "reals.sin_certified",
       "calls", "tables: run_s"),
    _m("reals.ln_certified.self_s", "s", "lower", "reals.ln_certified",
       "self_s", "tables: run_s"),
    _m("reals.ln_certified.calls", "count", "lower", "reals.ln_certified",
       "calls", "tables: run_s"),
    _m("reals.exp_certified.self_s", "s", "lower", "reals.exp_certified",
       "self_s", "tables: run_s"),
    _m("reals.exp_certified.calls", "count", "lower", "reals.exp_certified",
       "calls", "tables: run_s"),
    _m("measure.measure_table.self_s", "s", "lower", "measure.measure_table",
       "self_s", "tables: run_s, job_s.p50"),
    _m("measure.mu_n.self_s", "s", "lower", "measure.mu_n", "self_s",
       "tables: run_s, job_s.p50", site="measure"),
    _m("measure.mu_n.calls", "count", "lower", "measure.mu_n", "calls",
       "tables: run_s, job_s.p50", site="measure"),
    _m("measure.mu_n.failed", "count", "lower", "measure.mu_n", "failed",
       "tables: run_s (escalations)", site="measure"),
    _m("measure.mu_n.useful_ratio", "ratio", "higher", "measure.mu_n",
       "useful_ratio", "tables: run_s", site="measure"),
    _m("measure.lagrange.self_s", "s", "lower", "measure.lagrange", "self_s",
       "tables: run_s, job_s.p50"),
    _m("measure.lagrange.calls", "count", "lower", "measure.lagrange", "calls",
       "tables: run_s"),
    _m("probe.probe_table.self_s", "s", "lower", "probe.probe_table", "self_s",
       "tables: job_s.tail"),
    _m("probe.sine_probe.self_s", "s", "lower", "probe.sine_probe", "self_s",
       "tables: job_s.tail"),
    _m("probe.residual.calls", "count", "lower", "probe.residual", "calls",
       "tables: job_s.tail"),
    _m("probe.residual.failed", "count", "lower", "probe.residual", "failed",
       "tables: job_s.tail (escalations)"),
    _m("probe.residual.useful_ratio", "ratio", "higher", "probe.residual",
       "useful_ratio", "tables: job_s.tail"),
    _m("probe.bound_check.self_s", "s", "lower", "probe.bound_check", "self_s",
       "tables: job_s.tail"),
    _m("probe.mu_n.calls", "count", "lower", "measure.mu_n", "calls",
       "tables: job_s.tail (mu work the table discards)", site="probe"),
    _m("probe.mu_n.self_s", "s", "lower", "measure.mu_n", "self_s",
       "tables: job_s.tail (mu work the table discards)", site="probe"),
    _m("probe.envelope_check.self_s", "s", "lower", "probe.envelope_check",
       "self_s", "tables: job_s.tail"),
    *(_m(f"convergents.{fn}.self_s", "s", "lower", f"convergents.{fn}",
         "self_s", "engines: run_s")
      for fn in ("convergents_iter", "convergents_matrix", "convergents_fast",
                 "final_convergent", "check_determinant")),
    _m("convergents.telescoping_sum.self_s", "s", "lower",
       "convergents.telescoping_sum", "self_s",
       "engines: run_s; tables: job_s.tail (verify is O(n^2))"),
    _m("convergents.mul_bits", "bits", "lower", None, "mul_bits",
       "engines: run_s"),
    _m("convergents.muls", "count", "lower", None, "muls", "engines: run_s"),
    _m("trace.run_s", "s", "lower", None, "run_s",
       "traced run_s; minus untraced run_s it is the tracing overhead"),
]

# the deterministic fields of a (name, site) aggregate
COUNT_FIELDS = ("calls", "failed", "useful", "quotients", "digits_max",
                "scale_max")


def add_summary(total: dict, summary: list[dict]) -> None:
    """Fold one job's summary into a per-pass total keyed by (name, site)."""
    for row in summary:
        acc = total.setdefault((row["name"], row["site"]),
                               dict.fromkeys(COUNT_FIELDS + ("self_s",), 0))
        for field in ("calls", "failed", "useful", "quotients", "self_s"):
            acc[field] += row[field]
        for field in ("digits_max", "scale_max"):
            acc[field] = max(acc[field], row[field])


def layer_value(total: dict, spec: dict):
    """One per-layer metric from a per-pass total."""
    rows = [acc for (name, site), acc in total.items()
            if name == spec["span"] and spec["site"] in (None, site)]
    stat = spec["stat"]
    if stat == "useful_ratio":
        calls = sum(r["calls"] for r in rows)
        return sum(r["useful"] for r in rows) / calls if calls else 0.0
    if stat.endswith("_max"):
        return max((r[stat] for r in rows), default=0)
    return sum(r[stat] for r in rows)
