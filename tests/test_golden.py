"""Golden CLI output: stdout (as sha256) and exit code per command.

These pin the bytes that every command but bench prints, so a refactor
that should not change the output is held to that.  After a deliberate
output change, print the new digests with

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.dump()"

and say in the change why each one moved.
"""

import hashlib
import io

import pytest

import cfcert.cli as cli

GOLDEN = {
    "measure pi2 --rows 60":
        (0, "38fed7ddb9c4c7e45ab94012c33982b0c8a12bf97109f75db49932ddeec96919"),
    "probe pi2 --rows 110 --format csv":
        (0, "4748325b56378f298274e9419be32146911e2a7e10a39b16b328722689b08e3f"),
    "verify pi2 --terms 110":
        (0, "76e43457583bd002de31a2db693d7b90640c9826f8c0bd843a0ec8b5cc59597f"),
    "measure pi^3/4 --rows 30 --format csv":
        (0, "987344c331b144e602065e8758c6d37860a567ba582d0af2eed3f79098724581"),
    "probe pi^3/4 --rows 30":
        (0, "7ecb7faf1af64109e12f9bc125c95a34de32de42861d139d4b0b3dd7fc27bfdf"),
    "verify pi^3/4 --terms 30":
        (0, "76e43457583bd002de31a2db693d7b90640c9826f8c0bd843a0ec8b5cc59597f"),
    "measure surd:1,2,69,5 --rows 30":
        (0, "548cae5b31c5c1b5c54e57949cdaad2d04eb6748718456bf7a720ac2fef0e3a3"),
    "probe sqrt:199 --rows 30 --format csv":
        (0, "6e02376768b3762861bd50e76622f63d4e7470241513dc79de4451e0dbc058d8"),
    "verify sqrt:199 --terms 30":
        (0, "24052e158498c62b0c203f3ad776cba0d35c0e70f2e6b2a57f0a8d4c8026a44d"),
    "measure lit:0.123456789 --rows 12 --format csv":
        (0, "b7f5755d5ecf4f7bf67ae993f6ddb24c4b37d349cd968b5b6abc18dcb862fb6b"),
    "probe lit:0.123456789 --rows 12":
        (0, "05e559e9c262aaebfc8148a472f6c604a785fde19c85b84c7884e34dddf20c44"),
    "verify lit:0.123456789 --terms 12":
        (0, "bcfa1ec1292aea4a09de79a8512bfa42e6f8ab47274c306d04e84a147756b5fb"),
    "verify pi2 --terms 40 --digits 5":
        (0, "76e43457583bd002de31a2db693d7b90640c9826f8c0bd843a0ec8b5cc59597f"),
    "measure lit:0.101 --rows 3":
        (0, "8b246eb15e401c0698fdee9d72f2fc81121bb6f02cc3456d444251841c963b73"),
    # the largest shapes of perfbench's tables workload
    "probe pi2 --rows 200 --format csv":
        (0, "801e8c6a79ab14af1f777c145b392846f00bff13121b3afaccad0f52671ed8ef"),
    "verify pi2 --terms 200":
        (0, "76e43457583bd002de31a2db693d7b90640c9826f8c0bd843a0ec8b5cc59597f"),
    "probe pi^3/4 --rows 110 --format csv":
        (0, "a06379a84d628c0cce7370e516ec8d838c69c3af3676231b740849056e90e9d8"),
    "verify surd:1,2,69,5 --terms 110":
        (0, "cf0f06dd72f2f115ff8da35facbe9b49e736bf1e1b7d4c3eb97e1e1a4da0da8c"),
    "measure sqrt:199 --rows 150 --format csv":
        (0, "b06c8243d04a9ce8662fd8ed5b08383420310ac8dc17396adfe15be1f02dfc07"),
    "measure pi2 --rows 300":
        (0, "fc4af2bd5a6146a389602ffd8d9edc4abb01d24e34bc2237d82dfcf26e8cd9d7"),
    # the series at 2000 digits, far above the default 60
    "probe pi2 --rows 3 --digits 2000":
        (0, "ed9685b6b314ca5675753e34138a0d5985e0311bc1e92e75b796107942b11314"),
    # the precision cap: exit 1 before any row is printed
    "verify pi2 --terms 10 --digits 999990":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "expand pi2 --terms 1040":
        (0, "b8a393dfd7888654cc64f63a73bf19109a7486c9539a024d2b9afe3117f0f7a6"),
    "expand pi^7/4 --terms 300 --format csv":
        (0, "599d94018628614958c62678fe97c0aa7ed2322d49cd9fc077d52bdd863c4946"),
    "expand surd:1,2,69,5 --terms 500":
        (0, "c4c0fd02646e1afb175bc468a65e8428b3a0690b7ee65fbe7b9d6373f746b68c"),
    # perfbench's deep expand shapes: a root of pi and a surd, both through
    # Euclid on one enclosure
    "expand pi^5/3 --terms 1040":
        (0, "b09be35910e43fdc9df6a4950e877454682dd0ed0fa9b9f2c81e40124ec78735"),
    "expand sqrt:199 --terms 1040":
        (0, "785a0eddbc226888a2075e7567693b340eaffcc1113cd28e580902d08cf4b5ac"),
    "expand pi2 --terms 6000":
        (0, "5aba3705d03885ec8ca02ea7bf32bf9ef20edda07560fabf8a1111bf8e73d59f"),
    # a cell scale past the cap at every level: exit 1, nothing printed
    "expand pi^1000000 --terms 3":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "convergents pi^-2/3 --terms 120 --format csv":
        (0, "cb682cbb25141890c2b7ea8e8015f7955db9036f7b5899923572884fb8e66360"),
    "convergents golden --terms 3000 --engine fast":
        (0, "f60af61614a091bc031b9a3b90f46da0dfac9270d6e9a6fec52df04107d92218"),
    "convergents lit:0.123456789 --terms 20 --engine matrix":
        (0, "6de33aaea1fdf5be8ba8bc118515262c073d0ccc8b379bce264251d07e190804"),
}


def run_digest(command: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.run(command.split(), out=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def dump() -> None:
    for command in GOLDEN:
        code, digest = run_digest(command)
        print(f'    "{command}":\n        ({code}, "{digest}"),')


@pytest.mark.parametrize("command", GOLDEN)
def test_stdout_and_exit_code(command):
    assert run_digest(command) == GOLDEN[command]
