import json
import pathlib

import pytest

from graphprob import parse_graph

from .pinned import FIXTURES, GOLDENS

FIXTURE_NAMES = (
    "one_loop",
    "single_edge",
    "parallel_edges",
    "c3",
    "bouquet3",
    "loops_bridge",
    "lollipop",
    "mixed_exits",
)


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.graph"


def load_fixture(name: str):
    return parse_graph(fixture_path(name).read_text(encoding="utf-8"))


def load_golden(name: str):
    return json.loads((GOLDENS / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def graphs():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def one_loop():
    return load_fixture("one_loop")


@pytest.fixture(scope="session")
def single_edge():
    return load_fixture("single_edge")


@pytest.fixture(scope="session")
def c3():
    return load_fixture("c3")


@pytest.fixture(scope="session")
def lollipop():
    return load_fixture("lollipop")
