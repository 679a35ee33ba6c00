import itertools
import pathlib

import pytest

from cstree import Context, CsiStatement, VariableSystem, load_spec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def load(name: str):
    return load_spec(fixture_path(name))


def _context_statements(system: VariableSystem, ctx: Context):
    """Candidate statements within one context, canonical pairs only.

    Unassigned free variables are marginalized out, so this ranges over
    every (A, B, S) choice, saturated or not.
    """
    free = [v for v in system.variables if ctx.get(v) is None]
    for split in itertools.product((0, 1, 2, 3), repeat=len(free)):
        a = frozenset(v for v, t in zip(free, split) if t == 0)
        b = frozenset(v for v, t in zip(free, split) if t == 1)
        if not a or not b or min(a) > min(b):
            continue
        s = frozenset(v for v, t in zip(free, split) if t == 2)
        yield CsiStatement(a, b, s, ctx)


@pytest.fixture
def fig1():
    return load("fig1.json")


@pytest.fixture
def fig3():
    return load("fig3.json")


@pytest.fixture
def fig4():
    return load("fig4.json")


@pytest.fixture
def fig5_tree():
    return load("fig5_tree.json")


@pytest.fixture
def chain():
    return load("chain123.json")
