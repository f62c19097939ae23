"""Kernel runs per command, pinned.

Each command's runs of the Taylor series and of the ln, exp and sine
point kernels, and the residual's calls of ``eval_constant``, are counted
in-process by wrapping the module globals of ``reals``.  ``cf`` imports
its own ``eval_constant``, so its expansion levels are not counted.  The
counts are deterministic: every kernel result and cut cell is fixed by
its arguments, whatever the process has kept.  A change that adds a
kernel run fails here and must update the pin with its reason.
"""

import io

import pytest

import cfcert.cli as cli
import cfcert.reals as reals

KERNELS = ("_series_fx", "_ln_point_fx", "_exp_point_fx", "_sin_point_fx",
           "eval_constant")


def kernel_runs(argv: str, monkeypatch) -> tuple[int, ...]:
    counts = dict.fromkeys(KERNELS, 0)

    def counted(name, fn):
        def run(*args):
            counts[name] += 1
            return fn(*args)
        return run

    with monkeypatch.context() as mp:
        for name in KERNELS:
            mp.setattr(reals, name, counted(name, getattr(reals, name)))
        assert cli.run(argv.split(), out=io.StringIO()) == 0
    return tuple(counts.values())


@pytest.mark.parametrize("argv, runs", [
    ("measure pi2 --rows 148", (584, 438, 146, 0, 148)),
    ("probe pi2 --rows 200 --format csv", (597, 0, 0, 597, 201)),
    ("verify pi2 --terms 200", (199, 0, 0, 199, 201)),
    ("measure sqrt:199 --rows 100", (396, 297, 99, 0, 100)),
])
def test_kernel_runs_per_command(argv, runs, monkeypatch):
    # as series / ln / exp / sin / residual's eval_constant
    assert kernel_runs(argv, monkeypatch) == runs


def test_kernel_runs_do_not_depend_on_kept_constants(monkeypatch):
    first = kernel_runs("measure pi2 --rows 30", monkeypatch)
    monkeypatch.setattr(reals, "_KEPT", {})
    assert kernel_runs("measure pi2 --rows 30", monkeypatch) == first
