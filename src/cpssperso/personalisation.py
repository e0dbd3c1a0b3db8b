"""Three-layer personalisation pipeline over one workshop definition.

The workshop, including its context elements (machines), their influence on
the user and the reward weights, is defined once, by ``EnvParams``.  Layer 1
binds the personalisation roles (user, device, crowd, hosting CPSS) to nodes
of a composition graph and checks that every context element of the workshop
is a node too.  Layer 2 holds the stakeholders' objectives and detects
conflicting pairs.  Layer 3 assembles the resulting reinforcement-learning
task definition from the bound roles and the ``EnvParams``: the state
composition, the action set, and prioritised per-entity reward terms -
exactly what the workshop environment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .meta_model import SosGraph, SystemKind, classify_system
from .workshop_env import ACTIONS, Action, EnvParams, dataclass_from_config


class UnknownSystemError(ValueError):
    """A role refers to a node that is not in the graph."""


class RoleCollisionError(ValueError):
    """The personalisation user and device must be different systems."""


class DuplicateObjectiveError(ValueError):
    """Objective ids must be unique."""


class Direction(str, Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class PersoScenario:
    """Role binding: who is personalised for, by what, among whom."""

    user: str
    device: str
    crowd: tuple[str, ...] = ()
    cpss: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"user": self.user, "device": self.device, "crowd": list(self.crowd)}
        if self.cpss is not None:
            out["cpss"] = self.cpss
        return out


def scenario_from_dict(raw: Mapping) -> PersoScenario:
    """Parse a ``roles`` mapping.  Unknown keys are rejected, so a context
    list fails instead of being ignored: the context elements are defined by
    ``EnvParams.contexts`` alone."""
    return dataclass_from_config(PersoScenario, raw, "roles")


@dataclass(frozen=True)
class ObjectiveSpec:
    """A stakeholder's objective.  It carries no weight: the reward weights
    are defined once, by ``EnvParams.weights``."""

    id: str
    owner: str
    metric: str
    direction: Direction


def objectives_from_config(raw: Sequence[Mapping]) -> list[ObjectiveSpec]:
    """One ObjectiveSpec per entry of the `objectives` list; every key is
    required and unknown keys, ``weight`` among them, are rejected."""
    return [dataclass_from_config(ObjectiveSpec, o, f"objectives[{i}]") for i, o in enumerate(raw)]


@dataclass(frozen=True)
class RewardTerm:
    term_id: str
    owner: str
    weight: float


@dataclass(frozen=True)
class RlTaskDef:
    """What the personalising agent optimises: an ordered state composition
    (user, crowd aggregate, each influencing context element), the discrete
    action set, prioritised reward terms, and the discount."""

    state_composition: tuple[str, ...]
    action_set: tuple[Action, ...]
    reward_terms: tuple[RewardTerm, ...]
    gamma: float


@dataclass(frozen=True)
class BindingResult:
    scenario: PersoScenario
    warnings: tuple[str, ...]


def bind_roles(graph: SosGraph, role_config: Mapping, params: EnvParams) -> BindingResult:
    """Layer 1: resolve the personalisation roles against the graph.

    Every role id and every context element of the workshop
    (``params.contexts``) must be a graph node, and the user and device must
    differ.  A device whose own components do not classify to a single-system
    CPSS is accepted but flagged: without social actuation on the device the
    assemblage cannot be a true CPSS.
    """
    scenario = scenario_from_dict(role_config)
    node_ids = {n.id for n in graph.nodes}
    referenced = [scenario.user, scenario.device, *scenario.crowd]
    referenced += [c.id for c in params.contexts]
    if scenario.cpss is not None:
        referenced.append(scenario.cpss)
    for node_id in referenced:
        if node_id not in node_ids:
            raise UnknownSystemError(f"role refers to unknown system: {node_id!r}")
    if scenario.user == scenario.device:
        raise RoleCollisionError(
            f"user and device must be different systems, both are {scenario.user!r}"
        )
    warnings = []
    device_kind = classify_system(graph.node(scenario.device).components)
    if device_kind is not SystemKind.CPSS:
        warnings.append(
            f"device {scenario.device!r} classifies as {device_kind.value}, not a "
            "single-system CPSS: the assemblage is a SoS but not a true CPSS"
        )
    return BindingResult(scenario, tuple(warnings))


def detect_conflicts(
    objectives: Sequence[ObjectiveSpec],
) -> list[tuple[ObjectiveSpec, ObjectiveSpec]]:
    """Layer 2: unordered pairs of objectives on the same metric pulling in
    opposite directions (same direction on a shared metric is complementary,
    not a conflict)."""
    seen: set[str] = set()
    for o in objectives:
        if o.id in seen:
            raise DuplicateObjectiveError(f"duplicate objective id: {o.id!r}")
        seen.add(o.id)
    ordered = sorted(objectives, key=lambda o: o.id)
    out = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a.metric == b.metric and a.direction is not b.direction:
                out.append((a, b))
    return out


def assemble_rl_task(
    scenario: PersoScenario,
    objectives: Sequence[ObjectiveSpec],
    params: EnvParams,
) -> RlTaskDef:
    """Layer 3: turn a bound scenario and the workshop into the RL task.

    State composition is the user, one crowd aggregate, and exactly the
    context elements of ``params`` that influence the worker.  Reward terms
    mirror that composition with the weights of ``params``, whose user weight
    strictly dominates (``EnvParams`` enforces it); the discount is
    ``params.gamma``.
    """
    detect_conflicts(objectives)  # validates id uniqueness as a side condition
    w = params.weights
    composition = [scenario.user]
    terms = [RewardTerm("worker", scenario.user, w.w_worker)]
    if scenario.crowd:
        aggregate = "+".join(scenario.crowd)
        composition.append(aggregate)
        terms.append(RewardTerm("team", aggregate, w.w_team))
    for ctx in params.contexts:
        if ctx.influences_worker:
            composition.append(ctx.id)
            terms.append(RewardTerm(f"context:{ctx.id}", ctx.id, w.w_context))
    return RlTaskDef(
        state_composition=tuple(composition),
        action_set=ACTIONS,
        reward_terms=tuple(terms),
        gamma=params.gamma,
    )
