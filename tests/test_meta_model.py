import itertools
import json
import re

import numpy as np
import pytest

from cpssperso.meta_model import (
    AxiomId,
    Capability,
    Component,
    ComponentType,
    GraphFormatError,
    GraphValidationError,
    InvalidSystemError,
    Relation,
    RelationKind,
    SosGraph,
    SystemKind,
    SystemNode,
    ViolationCode,
    classify_sos,
    classify_system,
    full_component,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    validate_graph,
)
from conftest import CONFIGS, node_of, worker_cobot_graph

CYBER = full_component(ComponentType.CYBER)
PHYSICAL = full_component(ComponentType.PHYSICAL)
SOCIAL = full_component(ComponentType.SOCIAL)
SENSING_ONLY = Component(ComponentType.PHYSICAL, frozenset({Capability.SENSING}))


class TestClassifySystem:
    def test_cyber_physical_is_cps(self):
        assert classify_system({CYBER, PHYSICAL}) is SystemKind.CPS

    def test_physical_social_is_pss(self):
        assert classify_system({PHYSICAL, SOCIAL}) is SystemKind.PSS

    def test_full_triple_is_cpss(self):
        assert classify_system({CYBER, PHYSICAL, SOCIAL}) is SystemKind.CPSS

    def test_sensing_only_physical_degrades_to_css(self):
        assert classify_system({CYBER, SENSING_ONLY, SOCIAL}) is SystemKind.CSS

    def test_empty_components_rejected(self):
        with pytest.raises(InvalidSystemError):
            classify_system(set())

    def test_exhaustive_over_all_subsets(self):
        kinds = set()
        for r in (1, 2, 3):
            for combo in itertools.combinations(ComponentType, r):
                kinds.add(classify_system(full_component(k) for k in combo))
        assert kinds == set(SystemKind)

    def test_capabilities_pool_across_components(self):
        sensing = Component(ComponentType.PHYSICAL, frozenset({Capability.SENSING}))
        actuating = Component(ComponentType.PHYSICAL, frozenset({Capability.ACTUATION}))
        assert classify_system({sensing, actuating}) is SystemKind.PHYSICAL_SYSTEM
        assert classify_system({sensing, actuating, SOCIAL}) is SystemKind.PSS

    def test_lone_partial_physical_falls_back_to_physical(self):
        # nothing satisfied: classification falls back to the families present
        assert classify_system({SENSING_ONLY}) is SystemKind.PHYSICAL_SYSTEM

    def test_component_capability_invariants(self):
        with pytest.raises(InvalidSystemError):
            Component(ComponentType.CYBER, frozenset())
        with pytest.raises(InvalidSystemError):
            Component(ComponentType.CYBER, frozenset({Capability.SENSING}))


class TestValidateGraph:
    def test_empty_graph_is_well_formed(self):
        assert validate_graph(SosGraph()) == []

    def test_dangling_endpoint_reported(self):
        graph = SosGraph(
            nodes=(node_of("cb1", "CPSS"),),
            edges=(Relation("cb1", "w9", RelationKind.RS),),
        )
        report = validate_graph(graph)
        assert [(v.code, v.subject) for v in report] == [
            (ViolationCode.DANGLING_ENDPOINT, "w9")
        ]

    def test_duplicate_id_reported(self):
        graph = SosGraph(nodes=(node_of("cb1", "CPSS"), node_of("cb1", "PSS")))
        report = validate_graph(graph)
        assert (ViolationCode.DUPLICATE_ID, "cb1") in [(v.code, v.subject) for v in report]

    def test_self_loop_reported(self):
        graph = SosGraph(
            nodes=(node_of("a", "CPSS"),),
            edges=(Relation("a", "a", RelationKind.RS),),
        )
        assert validate_graph(graph)[0].code is ViolationCode.SELF_LOOP

    def test_empty_components_reported(self):
        graph = SosGraph(nodes=(SystemNode("hollow", ()),))
        assert validate_graph(graph)[0].code is ViolationCode.EMPTY_COMPONENTS

    def test_relation_endpoints_must_cover_involved_families(self):
        # a social relation needs a social component on at least one side
        graph = SosGraph(
            nodes=(node_of("a", "CPS"), node_of("b", "CPS")),
            edges=(Relation("a", "b", RelationKind.RS),),
        )
        assert validate_graph(graph)[0].code is ViolationCode.INVALID_RELATION
        ok = SosGraph(
            nodes=(node_of("a", "CPS"), node_of("b", "CPSS")),
            edges=(Relation("a", "b", RelationKind.RS),),
        )
        assert validate_graph(ok) == []


class TestClassifySos:
    def test_worker_cobot_social_relation_is_true_cpss(self):
        result = classify_sos(worker_cobot_graph(RelationKind.RS, RelationKind.RP))
        assert result.is_sos and result.is_true_cpss
        assert result.matched_axioms == (AxiomId.A1,)
        assert result.component_union is SystemKind.CPSS
        assert result.weak_emergence

    def test_physical_relation_alone_is_sos_but_not_cpss(self):
        result = classify_sos(worker_cobot_graph(RelationKind.RP))
        assert result.is_sos and not result.is_true_cpss
        assert result.matched_axioms == ()

    def test_two_workers_form_another_sos_kind(self):
        graph = SosGraph(
            nodes=(node_of("worker1", "PSS"), node_of("worker2", "PSS")),
            edges=(
                Relation("worker1", "worker2", RelationKind.RP),
                Relation("worker1", "worker2", RelationKind.RS),
            ),
        )
        result = classify_sos(graph)
        assert result.is_sos and not result.is_true_cpss
        assert result.component_union is SystemKind.PSS
        assert result.matched_axioms == (AxiomId.OTHER,)

    def test_dependent_nodes_do_not_form_a_sos(self):
        graph = SosGraph(
            nodes=(node_of("worker", "PSS", independent=False), node_of("cobot", "CPSS")),
            edges=(Relation("worker", "cobot", RelationKind.RS),),
        )
        result = classify_sos(graph)
        assert not result.is_sos and not result.is_true_cpss
        assert result.matched_axioms == ()

    def test_invalid_graph_rejected_with_report(self):
        graph = SosGraph(
            nodes=(node_of("a", "CPSS"),),
            edges=(Relation("a", "missing", RelationKind.RS),),
        )
        with pytest.raises(GraphValidationError) as err:
            classify_sos(graph)
        assert err.value.violations[0].code is ViolationCode.DANGLING_ENDPOINT

    def test_cps_and_css_social_relations_with_cobot(self):
        for kind, axiom in (("CPS", AxiomId.A2), ("CSS", AxiomId.A3)):
            graph = SosGraph(
                nodes=(node_of("dev", kind), node_of("cobot", "CPSS")),
                edges=(Relation("dev", "cobot", RelationKind.RS),),
            )
            result = classify_sos(graph)
            assert result.matched_axioms == (axiom,)
            assert result.is_true_cpss


class TestProperties:
    def test_removing_social_relations_disables_true_cpss(self):
        rng = np.random.default_rng(7)
        kinds = ("CPS", "PSS", "CSS", "CPSS")
        for _ in range(50):
            n = int(rng.integers(2, 5))
            nodes = tuple(node_of(f"n{i}", kinds[rng.integers(4)]) for i in range(n))
            edges = []
            for _ in range(rng.integers(1, 6)):
                i, j = rng.choice(n, size=2, replace=False)
                k = RelationKind(list(RelationKind)[rng.integers(7)])
                edge = Relation(f"n{i}", f"n{j}", k)
                trial = SosGraph(nodes, tuple(edges) + (edge,))
                if not validate_graph(trial):
                    edges.append(edge)
            graph = SosGraph(nodes, tuple(edges))
            stripped = SosGraph(
                nodes, tuple(e for e in edges if e.kind is not RelationKind.RS)
            )
            assert not classify_sos(stripped).is_true_cpss
            _ = classify_sos(graph)  # classification total on valid graphs

    def test_classification_invariant_under_relabeling_and_reversal(self):
        graph = worker_cobot_graph(RelationKind.RS, RelationKind.RP)
        relabeled = SosGraph(
            nodes=tuple(
                SystemNode(
                    id="x_" + n.id,
                    components=n.components,
                    operational_independence=n.operational_independence,
                    managerial_independence=n.managerial_independence,
                )
                for n in reversed(graph.nodes)
            ),
            edges=tuple(
                Relation("x_" + e.target, "x_" + e.source, e.kind) for e in graph.edges
            ),
        )
        assert classify_sos(graph) == classify_sos(relabeled)

    def test_component_union_monotone_under_growth(self):
        rng = np.random.default_rng(11)
        kinds = ("CPS", "PSS", "CSS", "CPSS")
        from cpssperso.meta_model import KIND_FAMILIES

        for _ in range(40):
            n1 = int(rng.integers(1, 4))
            nodes1 = tuple(node_of(f"a{i}", kinds[rng.integers(4)]) for i in range(n1))
            extra = tuple(
                node_of(f"b{i}", kinds[rng.integers(4)]) for i in range(rng.integers(1, 3))
            )
            g1 = SosGraph(nodes1, ())
            g2 = SosGraph(nodes1 + extra, ())
            u1 = classify_sos(g1).component_union
            u2 = classify_sos(g2).component_union
            assert KIND_FAMILIES[u1] <= KIND_FAMILIES[u2]


class TestGraphIo:
    def test_round_trip(self):
        graph = worker_cobot_graph(RelationKind.RS, RelationKind.RP)
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_file_round_trip(self, tmp_path):
        graph = worker_cobot_graph(RelationKind.RS)
        path = tmp_path / "g.json"
        save_graph(graph, path)
        assert load_graph(path) == graph

    def test_shipped_workshop_graph_classifies_via_axiom_one(self, workshop_graph_path):
        result = classify_sos(load_graph(workshop_graph_path))
        assert result.is_true_cpss
        assert AxiomId.A1 in result.matched_axioms

    def test_camel_case_capability_accepted(self):
        graph = graph_from_dict(
            {
                "nodes": [
                    {"id": "s", "components": [{"kind": "social", "capabilities": ["socialActuation"]}]}
                ],
                "edges": [],
            }
        )
        assert graph.nodes[0].components[0].capabilities == frozenset(
            {Capability.SOCIAL_ACTUATION}
        )

    def test_unknown_relation_kind_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_dict({"nodes": [], "edges": [{"from": "a", "to": "b", "kind": "RX"}]})

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["nodes"][0].update(id=5), "nodes[0].id"),
            (lambda d: d["edges"][0].update({"from": 5}), "edges[0].from"),
            (lambda d: d["edges"][0].update(to=["cobot"]), "edges[0].to"),
            (lambda d: d["nodes"][0].update(operational_independence="false"), "nodes[0].operational_independence"),
            (lambda d: d["nodes"][1].update(managerial_independence=0), "nodes[1].managerial_independence"),
            (lambda d: d["nodes"][0].update(objectives="ab"), "nodes[0].objectives"),
            (lambda d: d["nodes"][0].update(objectives=["a", 1]), "nodes[0].objectives"),
        ],
        ids=["node-id-number", "edge-from-number", "edge-to-list", "independence-string",
             "independence-number", "objectives-string", "objectives-non-string"],
    )
    def test_non_json_type_rejected_naming_the_field(self, edit, field):
        """Ids are JSON strings, the independence flags JSON booleans and
        objectives a list of strings; no value is cast into one."""
        doc = graph_to_dict(worker_cobot_graph(RelationKind.RS))
        edit(doc)
        with pytest.raises(GraphFormatError, match=re.escape(field)):
            graph_from_dict(doc)

    @pytest.mark.parametrize("name", ["smart_workshop_graph.json", "worker_cobot_rp_only_graph.json"])
    def test_shipped_graphs_load_as_written(self, name):
        raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
        graph = load_graph(CONFIGS / name)
        assert [n.id for n in graph.nodes] == [n["id"] for n in raw["nodes"]]
        for node, doc in zip(graph.nodes, raw["nodes"]):
            assert node.operational_independence is doc.get("operational_independence", True)
            assert node.managerial_independence is doc.get("managerial_independence", True)
            assert node.objectives == tuple(doc.get("objectives", []))
        assert [(e.source, e.target) for e in graph.edges] == [(e["from"], e["to"]) for e in raw["edges"]]
