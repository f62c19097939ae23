"""Deep-row CLI output: stdout (as sha256) and exit code per command.

These rows are where mu's logs and the residual escalation do the most
work: late convergents of pi^2 and sqrt(199), and a --digits far above
what six decimals need.  Digests are compared the way
``test_golden`` compares its commands.
"""

import pytest

from test_golden import run_digest

DEEP = {
    "measure pi2 --rows 600 --format csv":
        (0, "456dad7db9414e9c86538bb0c43f1bb94bcc5723c7ceb4ff99d4efbd70767ddf"),
    "measure pi2 --rows 5 --digits 4400":
        (0, "f42b06f2c75a6997d7ff1757274168010e056f841725e42955cbc802fd9afb6c"),
    "measure sqrt:199 --rows 40 --digits 800":
        (0, "b1fe463e64b54446e474b05ca695c967cc9d2f74a043e90069f5000a2371e7fb"),
}


@pytest.mark.parametrize("command", DEEP)
def test_stdout_and_exit_code(command):
    assert run_digest(command) == DEEP[command]
