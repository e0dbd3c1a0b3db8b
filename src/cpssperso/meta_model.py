"""CPSS systemic formalism: component taxonomy, relation kinds, and
System-of-Systems classification.

Systems are typed by which of the three component families they contain
(cyber, physical, social) and whether those components carry the expected
capabilities: a physical component must both sense and actuate, a cyber
component must compute, a social component must actuate socially.  A family
whose capability requirement is unmet is dropped from the effective set
before classification (capability degradation).

Graphs of such systems are classified for SoS emergence: two or more
operationally and managerially independent systems joined by at least one
relation form a SoS, and a social relation (RS) that touches a single-system
CPSS upgrades the assemblage to a true CPSS.  All types are immutable and
all operations are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable


class InvalidSystemError(ValueError):
    """A component set that cannot be classified (e.g. empty)."""


class GraphFormatError(ValueError):
    """A graph document that does not follow the file schema."""


class GraphValidationError(ValueError):
    """Raised when an operation requires a well-formed graph but got one
    with violations; carries the full validation report."""

    def __init__(self, violations: list["Violation"]):
        self.violations = list(violations)
        summary = "; ".join(str(v) for v in self.violations)
        super().__init__(f"graph is not well-formed: {summary}")


class ComponentType(str, Enum):
    CYBER = "Cyber"
    PHYSICAL = "Physical"
    SOCIAL = "Social"


class Capability(str, Enum):
    SENSING = "sensing"
    ACTUATION = "actuation"
    COMPUTATION = "computation"
    SOCIAL_ACTUATION = "social_actuation"


#: The capabilities of each family.  A component may carry only these, and
#: a system's components must pool all of them for the family to count
#: toward the system kind.
FAMILY_CAPABILITIES: dict[ComponentType, frozenset[Capability]] = {
    ComponentType.PHYSICAL: frozenset({Capability.SENSING, Capability.ACTUATION}),
    ComponentType.CYBER: frozenset({Capability.COMPUTATION}),
    ComponentType.SOCIAL: frozenset({Capability.SOCIAL_ACTUATION}),
}


@dataclass(frozen=True)
class Component:
    """One component of a system: a family plus the capabilities it carries."""

    kind: ComponentType
    capabilities: frozenset[Capability]

    def __post_init__(self) -> None:
        caps = frozenset(self.capabilities)
        object.__setattr__(self, "capabilities", caps)
        if not caps:
            raise InvalidSystemError(f"{self.kind.value} component has no capabilities")
        extra = caps - FAMILY_CAPABILITIES[self.kind]
        if extra:
            names = ", ".join(sorted(c.value for c in extra))
            raise InvalidSystemError(
                f"{self.kind.value} component cannot carry: {names}"
            )


def full_component(kind: ComponentType) -> Component:
    """A component carrying every capability its family allows."""
    return Component(kind, FAMILY_CAPABILITIES[kind])


class SystemKind(str, Enum):
    CYBER_SYSTEM = "CyberSystem"
    PHYSICAL_SYSTEM = "PhysicalSystem"
    SOCIAL_SYSTEM = "SocialSystem"
    CPS = "CPS"
    PSS = "PSS"
    CSS = "CSS"
    CPSS = "CPSS"


_KIND_BY_FAMILIES: dict[frozenset[ComponentType], SystemKind] = {
    frozenset({ComponentType.CYBER}): SystemKind.CYBER_SYSTEM,
    frozenset({ComponentType.PHYSICAL}): SystemKind.PHYSICAL_SYSTEM,
    frozenset({ComponentType.SOCIAL}): SystemKind.SOCIAL_SYSTEM,
    frozenset({ComponentType.CYBER, ComponentType.PHYSICAL}): SystemKind.CPS,
    frozenset({ComponentType.PHYSICAL, ComponentType.SOCIAL}): SystemKind.PSS,
    frozenset({ComponentType.CYBER, ComponentType.SOCIAL}): SystemKind.CSS,
    frozenset(ComponentType): SystemKind.CPSS,
}

#: Component families a system kind stands for (inverse of the kind map).
KIND_FAMILIES: dict[SystemKind, frozenset[ComponentType]] = {
    v: k for k, v in _KIND_BY_FAMILIES.items()
}


class RelationKind(str, Enum):
    RC = "RC"
    RP = "RP"
    RS = "RS"
    RCP = "RCP"
    RPS = "RPS"
    RCS = "RCS"
    RCPS = "RCPS"

    @property
    def involved(self) -> frozenset[ComponentType]:
        """Component families a relation of this kind runs between."""
        return _RELATION_FAMILIES[self]


_RELATION_FAMILIES: dict[RelationKind, frozenset[ComponentType]] = {
    RelationKind.RC: frozenset({ComponentType.CYBER}),
    RelationKind.RP: frozenset({ComponentType.PHYSICAL}),
    RelationKind.RS: frozenset({ComponentType.SOCIAL}),
    RelationKind.RCP: frozenset({ComponentType.CYBER, ComponentType.PHYSICAL}),
    RelationKind.RPS: frozenset({ComponentType.PHYSICAL, ComponentType.SOCIAL}),
    RelationKind.RCS: frozenset({ComponentType.CYBER, ComponentType.SOCIAL}),
    RelationKind.RCPS: frozenset(ComponentType),
}


class Coupling(str, Enum):
    TIGHT = "Tight"
    LOOSE = "Loose"


@dataclass(frozen=True)
class SystemNode:
    """A system participating in a composition graph.

    Both independence flags must be true for the node to count toward SoS
    formation.  An empty component tuple is representable so that
    `validate_graph` can report it as data instead of failing construction.
    """

    id: str
    components: tuple[Component, ...]
    operational_independence: bool = True
    managerial_independence: bool = True
    coupling: Coupling = Coupling.LOOSE
    objectives: tuple[str, ...] = ()

    @property
    def independent(self) -> bool:
        return self.operational_independence and self.managerial_independence


@dataclass(frozen=True)
class Relation:
    """An undirected relation between two systems (direction is recorded but
    never significant)."""

    source: str
    target: str
    kind: RelationKind


@dataclass(frozen=True)
class SosGraph:
    nodes: tuple[SystemNode, ...] = ()
    edges: tuple[Relation, ...] = ()

    def node(self, node_id: str) -> SystemNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)


class AxiomId(str, Enum):
    A1 = "A1"  # RS between a single-system CPSS and a PSS
    A2 = "A2"  # RS between a CPS and a single-system CPSS
    A3 = "A3"  # RS between a CSS and a single-system CPSS
    OTHER = "OTHER"  # SoS formed some other way (paired RP + RS relations)


_AXIOM_ORDER = {AxiomId.A1: 0, AxiomId.A2: 1, AxiomId.A3: 2, AxiomId.OTHER: 3}


@dataclass(frozen=True)
class SosClassification:
    component_union: SystemKind
    is_sos: bool
    is_true_cpss: bool
    matched_axioms: tuple[AxiomId, ...]
    #: provenance flag: the SoS (when there is one) arises as weak emergence
    #: from interactions between independent systems
    weak_emergence: bool

    def to_dict(self) -> dict:
        return {
            "component_union": self.component_union.value,
            "is_sos": self.is_sos,
            "is_true_cpss": self.is_true_cpss,
            "matched_axioms": [a.value for a in self.matched_axioms],
            "weak_emergence": self.weak_emergence,
        }


class ViolationCode(str, Enum):
    DUPLICATE_ID = "duplicate_id"
    EMPTY_COMPONENTS = "empty_components"
    DANGLING_ENDPOINT = "dangling_endpoint"
    SELF_LOOP = "self_loop"
    INVALID_RELATION = "invalid_relation"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code.value}({self.subject}): {self.message}"


def classify_system(components: Iterable[Component]) -> SystemKind:
    """Classify a set of components into one of the seven system kinds.

    Capabilities are pooled per family; a family whose required capabilities
    are not all present is dropped before classification.  If no family
    survives (only possible for partially-capable physical-only systems),
    classification falls back to the families present.
    """
    comps = tuple(components)
    if not comps:
        raise InvalidSystemError("a system needs at least one component")
    pooled: dict[ComponentType, set[Capability]] = {}
    for c in comps:
        pooled.setdefault(c.kind, set()).update(c.capabilities)
    satisfied = {
        fam for fam, caps in pooled.items() if FAMILY_CAPABILITIES[fam] <= caps
    }
    effective = satisfied if satisfied else set(pooled)
    return _KIND_BY_FAMILIES[frozenset(effective)]


def validate_graph(graph: SosGraph) -> list[Violation]:
    """Check every structural invariant; returns all violations (empty iff
    the graph is well-formed).  Violations are data, not failures."""
    report: list[Violation] = []
    seen: set[str] = set()
    for n in graph.nodes:
        if n.id in seen:
            report.append(
                Violation(ViolationCode.DUPLICATE_ID, n.id, "node id used twice")
            )
        seen.add(n.id)
        if not n.components:
            report.append(
                Violation(ViolationCode.EMPTY_COMPONENTS, n.id, "node has no components")
            )
    families: dict[str, frozenset[ComponentType]] = {
        n.id: frozenset(c.kind for c in n.components) for n in graph.nodes
    }
    for e in graph.edges:
        dangling = False
        for endpoint in (e.source, e.target):
            if endpoint not in families:
                report.append(
                    Violation(
                        ViolationCode.DANGLING_ENDPOINT,
                        endpoint,
                        f"edge {e.source}->{e.target} references a missing node",
                    )
                )
                dangling = True
        if dangling:
            continue
        if e.source == e.target:
            report.append(
                Violation(ViolationCode.SELF_LOOP, e.source, "relation endpoints must differ")
            )
            continue
        union = families[e.source] | families[e.target]
        missing = e.kind.involved - union
        if missing:
            names = ", ".join(sorted(f.value for f in missing))
            report.append(
                Violation(
                    ViolationCode.INVALID_RELATION,
                    f"{e.source}->{e.target}",
                    f"{e.kind.value} needs {names} on at least one endpoint",
                )
            )
    return report


def classify_sos(graph: SosGraph) -> SosClassification:
    """Classify a composition graph for SoS emergence and true-CPSS status.

    A SoS exists when at least one relation joins two independent systems.
    The CPSS-forming axioms all require an RS relation incident on a node
    whose own components classify to CPSS:

    * A1 - RS joining a single-system CPSS and a PSS,
    * A2 - RS joining a CPS and a single-system CPSS,
    * A3 - RS joining a CSS and a single-system CPSS.

    A SoS matching none of them is bucketed as OTHER only when it is held
    together by both a plain physical (RP) and a plain social (RS) relation,
    the one remaining formation pattern this model encodes (e.g. a team of
    workers).  Raises GraphValidationError when the graph is not well-formed.
    """
    report = validate_graph(graph)
    if report:
        raise GraphValidationError(report)
    if not any(n.components for n in graph.nodes):
        raise InvalidSystemError("graph has no components to classify")

    node_kind = {n.id: classify_system(n.components) for n in graph.nodes}
    independent = {n.id for n in graph.nodes if n.independent}
    sos_edges = [
        e for e in graph.edges if e.source in independent and e.target in independent
    ]
    is_sos = bool(sos_edges)

    union_kind = classify_system(c for n in graph.nodes for c in n.components)

    axioms: set[AxiomId] = set()
    for e in sos_edges:
        if e.kind is not RelationKind.RS:
            continue
        pair = {node_kind[e.source], node_kind[e.target]}
        if pair == {SystemKind.CPSS, SystemKind.PSS}:
            axioms.add(AxiomId.A1)
        elif pair == {SystemKind.CPS, SystemKind.CPSS}:
            axioms.add(AxiomId.A2)
        elif pair == {SystemKind.CSS, SystemKind.CPSS}:
            axioms.add(AxiomId.A3)
    is_true_cpss = bool(axioms)
    if is_sos and not axioms:
        has_rp = any(e.kind is RelationKind.RP for e in sos_edges)
        has_rs = any(e.kind is RelationKind.RS for e in sos_edges)
        if has_rp and has_rs:
            axioms.add(AxiomId.OTHER)

    return SosClassification(
        component_union=union_kind,
        is_sos=is_sos,
        is_true_cpss=is_true_cpss,
        matched_axioms=tuple(sorted(axioms, key=_AXIOM_ORDER.__getitem__)),
        weak_emergence=is_sos,
    )


# ---------------------------------------------------------------------------
# Graph file format (JSON document with "nodes" and "edges")
# ---------------------------------------------------------------------------

_CAPABILITY_ALIASES = {
    "socialactuation": Capability.SOCIAL_ACTUATION,
    "social_actuation": Capability.SOCIAL_ACTUATION,
    "sensing": Capability.SENSING,
    "actuation": Capability.ACTUATION,
    "computation": Capability.COMPUTATION,
}


def _parse_capability(raw: object) -> Capability:
    cap = _CAPABILITY_ALIASES.get(str(raw).strip().lower())
    if cap is None:
        raise GraphFormatError(f"unknown capability: {raw!r}")
    return cap


def _parse_component(raw: object) -> Component:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise GraphFormatError(f"component must be an object with a kind: {raw!r}")
    kind_raw = str(raw["kind"]).strip().lower()
    for kind in ComponentType:
        if kind.value.lower() == kind_raw:
            break
    else:
        raise GraphFormatError(f"unknown component kind: {raw['kind']!r}")
    caps = raw.get("capabilities")
    if caps is None:
        return full_component(kind)
    if not isinstance(caps, list):
        raise GraphFormatError(f"capabilities must be a list: {caps!r}")
    try:
        return Component(kind, frozenset(_parse_capability(c) for c in caps))
    except InvalidSystemError as exc:
        raise GraphFormatError(str(exc)) from exc


_JSON_TYPE_NAMES = {str: "a string", bool: "true or false", list: "a list of strings"}


def _json_value(raw: dict, key: str, default, tp: type, where: str):
    """``raw[key]``, or ``default`` when the key is absent, which must be of
    the JSON type ``tp``: a string, a boolean, or (``list``) a list of
    strings.  str() and bool() would read 5 as "5" and "false" as true."""
    value = raw.get(key, default)
    if not isinstance(value, tp) or (tp is list and not all(isinstance(v, str) for v in value)):
        raise GraphFormatError(f"{where}.{key} must be {_JSON_TYPE_NAMES[tp]}, got {value!r}")
    return value


def graph_from_dict(data: object) -> SosGraph:
    """Build a graph from the plain document schema; raises GraphFormatError
    on any schema problem (structural invariants are left to validate_graph)."""
    if not isinstance(data, dict):
        raise GraphFormatError("graph document must be an object")
    nodes_raw = data.get("nodes", [])
    edges_raw = data.get("edges", [])
    if not isinstance(nodes_raw, list) or not isinstance(edges_raw, list):
        raise GraphFormatError("'nodes' and 'edges' must be arrays")
    nodes = []
    for i, raw in enumerate(nodes_raw):
        if not isinstance(raw, dict) or "id" not in raw:
            raise GraphFormatError(f"node must be an object with an id: {raw!r}")
        where = f"nodes[{i}]"
        coupling_raw = str(raw.get("coupling", "Loose")).strip().lower()
        if coupling_raw not in ("tight", "loose"):
            raise GraphFormatError(f"unknown coupling: {raw.get('coupling')!r}")
        components = raw.get("components", [])
        if not isinstance(components, list):  # a string or an object would be read item by item
            raise GraphFormatError(f"{where}.components must be a list, got {components!r}")
        nodes.append(
            SystemNode(
                id=_json_value(raw, "id", None, str, where),
                components=tuple(_parse_component(c) for c in components),
                operational_independence=_json_value(raw, "operational_independence", True, bool, where),
                managerial_independence=_json_value(raw, "managerial_independence", True, bool, where),
                coupling=Coupling.TIGHT if coupling_raw == "tight" else Coupling.LOOSE,
                objectives=tuple(_json_value(raw, "objectives", [], list, where)),
            )
        )
    edges = []
    for i, raw in enumerate(edges_raw):
        if not isinstance(raw, dict) or "from" not in raw or "to" not in raw:
            raise GraphFormatError(f"edge must be an object with from/to: {raw!r}")
        try:
            kind = RelationKind(str(raw.get("kind", "")))
        except ValueError:
            raise GraphFormatError(f"unknown relation kind: {raw.get('kind')!r}") from None
        where = f"edges[{i}]"
        source = _json_value(raw, "from", None, str, where)
        edges.append(Relation(source, _json_value(raw, "to", None, str, where), kind))
    return SosGraph(tuple(nodes), tuple(edges))


def graph_to_dict(graph: SosGraph) -> dict:
    return {
        "nodes": [
            {
                "id": n.id,
                "components": [
                    {
                        "kind": c.kind.value,
                        "capabilities": sorted(cap.value for cap in c.capabilities),
                    }
                    for c in n.components
                ],
                "operational_independence": n.operational_independence,
                "managerial_independence": n.managerial_independence,
                "coupling": n.coupling.value,
                "objectives": list(n.objectives),
            }
            for n in graph.nodes
        ],
        "edges": [
            {"from": e.source, "to": e.target, "kind": e.kind.value}
            for e in graph.edges
        ],
    }


def load_graph(path: str | Path) -> SosGraph:
    """Read a graph document from disk; GraphFormatError covers both JSON
    syntax errors and schema problems."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    return graph_from_dict(data)


def save_graph(graph: SosGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2, sort_keys=True)
        fh.write("\n")
