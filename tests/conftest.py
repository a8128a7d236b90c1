from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import codar_router.router as router_module
from codar_router import Circuit, preset_architecture
from codar_router.cli import bundled_corpus_dir


@pytest.fixture(scope="session")
def square4():
    return preset_architecture("square4")


@pytest.fixture(scope="session")
def demo6():
    return preset_architecture("demo6")


@pytest.fixture()
def golden_fixture() -> Circuit:
    """T on q1, then two CXs from q0; CX(0,3) needs one SWAP on square4."""
    return Circuit(4).t(1).cx(0, 2).cx(0, 3)


@pytest.fixture()
def context_fixture() -> Circuit:
    """T on q2 plus a blocked CX(0,3); the good SWAP avoids Q2 entirely."""
    return Circuit(4).t(2).cx(0, 3)


@pytest.fixture()
def walkthrough_fixture() -> Circuit:
    """Six-qubit scheduling walkthrough: CX(0,2), T(1), then blocked CX(0,3)."""
    return Circuit(6).cx(0, 2).t(1).cx(0, 3)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return bundled_corpus_dir()


@pytest.fixture()
def tune_router(monkeypatch):
    """Set values the router works out for itself, for this test only.

    ``tune_router(stall_limit=1, swap_cap=50)`` overrides those attributes on
    every router built from then on, each call replacing the last; ``None``
    keeps the router's own value.  Returns the list of routers built.
    """
    overrides: dict = {}
    routers = []
    init = router_module._Router.__init__

    def tuned_init(self, *args):
        init(self, *args)
        for name, value in overrides.items():
            if not hasattr(self, name):
                raise AttributeError(f"the router sets no {name!r}")
            setattr(self, name, value)
        routers.append(self)

    def tune(**attrs):
        overrides.clear()
        overrides.update((name, value) for name, value in attrs.items() if value is not None)
        return routers

    monkeypatch.setattr(router_module._Router, "__init__", tuned_init)
    return tune
