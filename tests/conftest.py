import random
from pathlib import Path

import pytest

from detl.serialize import Workspace

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "detl" / "fixtures"


@pytest.fixture(scope="session")
def ws() -> Workspace:
    return Workspace.load_dir(FIXTURES)


@pytest.fixture(scope="session")
def M(ws):
    return ws.models["M"][0]


@pytest.fixture(scope="session")
def M8(ws):
    return ws.models["M8"][0]


def action(ws, name):
    return ws.actions[name][0]


@pytest.fixture
def rng():
    return random.Random(0)
