import json
from pathlib import Path

import pytest

from cpssperso.meta_model import (
    Component,
    ComponentType,
    Relation,
    RelationKind,
    SosGraph,
    SystemNode,
    full_component,
)
from cpssperso import rl_core, workshop_env
from cpssperso.workshop_env import FactoredModel

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = REPO_ROOT / "configs"

_KIND_COMPONENTS = {
    "CPS": (ComponentType.CYBER, ComponentType.PHYSICAL),
    "PSS": (ComponentType.PHYSICAL, ComponentType.SOCIAL),
    "CSS": (ComponentType.CYBER, ComponentType.SOCIAL),
    "CPSS": (ComponentType.CYBER, ComponentType.PHYSICAL, ComponentType.SOCIAL),
}


def node_of(node_id: str, kind: str, independent: bool = True) -> SystemNode:
    """Fully-capable node classifying to the given composite kind."""
    return SystemNode(
        id=node_id,
        components=tuple(full_component(k) for k in _KIND_COMPONENTS[kind]),
        operational_independence=independent,
        managerial_independence=independent,
    )


def worker_cobot_graph(*relation_kinds: RelationKind) -> SosGraph:
    return SosGraph(
        nodes=(node_of("worker", "PSS"), node_of("cobot", "CPSS")),
        edges=tuple(Relation("worker", "cobot", k) for k in relation_kinds),
    )


@pytest.fixture
def workshop_graph_path() -> Path:
    return CONFIGS / "smart_workshop_graph.json"


@pytest.fixture
def rp_only_graph_path() -> Path:
    return CONFIGS / "worker_cobot_rp_only_graph.json"


@pytest.fixture
def workshop_config() -> dict:
    with open(CONFIGS / "workshop.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def write_config(tmp_path):
    """Write a config dict to a temp file and return its path."""

    def _write(doc: dict, name: str = "config.json") -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return path

    return _write


@pytest.fixture
def no_full_state_solver(monkeypatch):
    """``FactoredModel.expect`` and ``FactoredModel.dense``, the full-state
    solver, raise while the test runs."""

    def refuse(self, *args):
        raise AssertionError("the full-state solver was used")

    monkeypatch.setattr(FactoredModel, "expect", refuse)
    monkeypatch.setattr(FactoredModel, "dense", refuse)


@pytest.fixture
def reward_cells_calls(monkeypatch):
    """The arguments of every ``reward_cells`` call while the test runs,
    through ``workshop_env`` and ``rl_core`` alike."""
    calls = []
    build = workshop_env.reward_cells

    def counted(*args):
        calls.append(args)
        return build(*args)

    for module in (workshop_env, rl_core):
        monkeypatch.setattr(module, "reward_cells", counted)
    return calls
