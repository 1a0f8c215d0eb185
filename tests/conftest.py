import runpy
from pathlib import Path

import pytest

from tftkit.ring import DEFAULT_MODULUS, PrimeField


@pytest.fixture(scope="session")
def f17():
    # tiny field, handy for hand-checkable values: 17 - 1 = 2^4
    return PrimeField.from_modulus(17)


@pytest.fixture(scope="session")
def field():
    return PrimeField.from_modulus(DEFAULT_MODULUS)


@pytest.fixture(scope="session")
def cli_scratch():
    # tools/cli_scratch.py's names: measure, the one traced procedure of
    # every scratch reading, run, its phases of one CLI command, and
    # passes, the reading of each kernel pass function
    return runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "cli_scratch.py"))
