import itertools

import numpy as np
import pytest

from cpssperso.meta_model import load_graph
from cpssperso.personalisation import (
    Direction,
    DuplicateObjectiveError,
    ObjectiveSpec,
    PersoScenario,
    RoleCollisionError,
    UnknownSystemError,
    assemble_rl_task,
    bind_roles,
    detect_conflicts,
    objectives_from_config,
    scenario_from_dict,
)
from cpssperso.workshop_env import ACTIONS, ContextConfig, EnvParams, env_params_from_config


@pytest.fixture
def graph(workshop_graph_path):
    return load_graph(workshop_graph_path)


ROLES = {"user": "worker1", "device": "cobot1", "crowd": ["team1"]}
PARAMS = EnvParams(contexts=(ContextConfig("machine1"),))


def objective(oid, owner="cobot1", metric="throughput", direction="maximize"):
    return ObjectiveSpec(oid, owner, metric, Direction(direction))


class TestBindRoles:
    def test_workshop_roles_bind_cleanly(self, graph):
        result = bind_roles(graph, ROLES, PARAMS)
        assert result.warnings == ()
        assert result.scenario.user == "worker1"
        assert result.scenario.device == "cobot1"
        assert result.scenario.crowd == ("team1",)

    def test_non_cpss_device_flagged(self, graph):
        roles = dict(ROLES, device="machine1")  # a CPS, no social actuation
        result = bind_roles(graph, roles, PARAMS)
        assert len(result.warnings) == 1
        assert "not a single-system CPSS" in result.warnings[0]

    def test_unknown_context_id_rejected(self, graph):
        params = EnvParams(contexts=(ContextConfig("machine1"), ContextConfig("ghost")))
        with pytest.raises(UnknownSystemError):
            bind_roles(graph, ROLES, params)

    def test_user_device_collision_rejected(self, graph):
        with pytest.raises(RoleCollisionError):
            bind_roles(graph, dict(ROLES, device="worker1"), PARAMS)

    def test_rebinding_serialized_scenario_is_identity(self, graph):
        scenario = bind_roles(graph, ROLES, PARAMS).scenario
        again = bind_roles(graph, scenario.to_dict(), PARAMS).scenario
        assert again == scenario

    def test_dict_round_trip(self):
        scenario = PersoScenario("worker1", "cobot1", ("team1",), "ws")
        assert scenario_from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize(
        "field, value",
        [("user", 5), ("device", [1]), ("crowd", "ab"), ("crowd", [7]), ("cpss", 3)],
    )
    def test_non_string_role_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"roles.{field}"):
            scenario_from_dict(dict(ROLES, **{field: value}))

    def test_string_roles_parse(self):
        raw = {"user": "worker1", "device": "cobot1", "crowd": ["team1", "team2"], "cpss": "ws"}
        assert scenario_from_dict(raw) == PersoScenario("worker1", "cobot1", ("team1", "team2"), "ws")
        assert scenario_from_dict({"user": "u", "device": "d"}) == PersoScenario("u", "d", ())

    def test_null_cpss_parses_as_none(self):
        assert scenario_from_dict({"user": "u", "device": "d", "cpss": None}) == PersoScenario("u", "d")

    def test_leftover_context_list_rejected(self):
        with pytest.raises(ValueError, match="context"):
            scenario_from_dict(dict(ROLES, context=[{"id": "machine1"}]))


class TestDetectConflicts:
    def test_opposite_directions_on_shared_metric_conflict(self):
        objs = [
            objective("a", metric="worker_comfort", direction="maximize"),
            objective("b", owner="workshop", metric="worker_comfort", direction="minimize"),
        ]
        conflicts = detect_conflicts(objs)
        assert len(conflicts) == 1
        assert {conflicts[0][0].id, conflicts[0][1].id} == {"a", "b"}

    def test_same_direction_is_complementary(self):
        objs = [
            objective("a", metric="throughput"),
            objective("b", owner="team1", metric="throughput"),
        ]
        assert detect_conflicts(objs) == []

    def test_empty_input_empty_output(self):
        assert detect_conflicts([]) == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateObjectiveError):
            detect_conflicts([objective("a"), objective("a")])

    def test_matches_brute_force_and_is_order_invariant(self):
        rng = np.random.default_rng(13)
        metrics = ["m1", "m2", "m3"]
        for _ in range(25):
            objs = [
                objective(
                    f"o{i}",
                    metric=metrics[rng.integers(len(metrics))],
                    direction="maximize" if rng.integers(2) else "minimize",
                )
                for i in range(rng.integers(0, 8))
            ]
            expected = sum(
                1
                for a, b in itertools.combinations(objs, 2)
                if a.metric == b.metric and a.direction is not b.direction
            )
            found = detect_conflicts(objs)
            assert len(found) == expected
            shuffled = [objs[i] for i in rng.permutation(len(objs))]
            assert {frozenset((x.id, y.id)) for x, y in found} == {
                frozenset((x.id, y.id)) for x, y in detect_conflicts(shuffled)
            }


class TestAssembleRlTask:
    SCENARIO = PersoScenario("worker1", "cobot1", ("team1",))

    def test_default_scenario_composition(self):
        task = assemble_rl_task(self.SCENARIO, [], PARAMS)
        assert task.state_composition == ("worker1", "team1", "machine1")
        assert [t.term_id for t in task.reward_terms] == ["worker", "team", "context:machine1"]
        assert [t.weight for t in task.reward_terms] == [1.0, 0.5, 0.5]
        assert task.action_set == ACTIONS
        assert task.gamma == 0.95

    def test_non_influencing_context_excluded(self):
        params = EnvParams(contexts=(ContextConfig("machine1", False),))
        task = assemble_rl_task(self.SCENARIO, [], params)
        assert task.state_composition == ("worker1", "team1")
        assert [t.term_id for t in task.reward_terms] == ["worker", "team"]

    def test_user_weight_strictly_greatest_in_terms(self):
        task = assemble_rl_task(self.SCENARIO, [], PARAMS)
        user_weight = task.reward_terms[0].weight
        assert all(user_weight > t.weight for t in task.reward_terms[1:])

    def test_matches_workshop_env_configuration(self, workshop_config, graph):
        params, _profile = env_params_from_config(workshop_config["env"])
        scenario = bind_roles(graph, workshop_config["roles"], params).scenario
        objectives = objectives_from_config(workshop_config["objectives"])
        task = assemble_rl_task(scenario, objectives, params)
        env_influencing = [
            c["id"]
            for c in workshop_config["env"]["contexts"]
            if c.get("influences_worker", True)
        ]
        task_contexts = [t.owner for t in task.reward_terms if t.term_id.startswith("context:")]
        assert task_contexts == env_influencing
        assert task.gamma == workshop_config["env"]["gamma"]
        weights = workshop_config["env"]["weights"]
        assert [t.weight for t in task.reward_terms] == [
            weights["w_worker"], weights["w_team"], weights["w_context"]
        ]
