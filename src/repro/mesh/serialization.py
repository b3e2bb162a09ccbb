"""JSON serialization of machine state.

The roll-back/reconfigure story (Section 1) implies persistence: the
diagnostic layer records the fault set, and the reconfiguration step's
output (the lamb set) must reach every router.  This module defines a
small, versioned JSON format for meshes, tori, fault sets, and
reconfiguration outcomes, with strict validation on load.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .faults import FaultSet
from .geometry import Mesh
from .torus import Torus

__all__ = [
    "mesh_to_dict",
    "mesh_from_dict",
    "faults_to_dict",
    "faults_from_dict",
    "lamb_outcome_to_dict",
    "lamb_outcome_from_dict",
    "routing_table_to_dict",
    "routing_table_from_dict",
    "dumps",
    "loads",
]

_FORMAT_VERSION = 1


def mesh_to_dict(mesh: Mesh) -> Dict[str, Any]:
    """Serialize a mesh or torus."""
    return {
        "type": "torus" if mesh.is_torus else "mesh",
        "widths": list(mesh.widths),
    }


def mesh_from_dict(data: Dict[str, Any]) -> Mesh:
    """Inverse of :func:`mesh_to_dict`."""
    kind = data.get("type")
    widths = data.get("widths")
    if kind not in ("mesh", "torus") or not isinstance(widths, list):
        raise ValueError(f"not a mesh record: {data!r}")
    cls = Torus if kind == "torus" else Mesh
    return cls(tuple(int(w) for w in widths))


def faults_to_dict(faults: FaultSet) -> Dict[str, Any]:
    """Serialize a fault set (mesh included)."""
    return {
        "version": _FORMAT_VERSION,
        "mesh": mesh_to_dict(faults.mesh),
        "node_faults": [list(v) for v in faults.node_faults],
        "link_faults": [
            [list(u), list(w)] for (u, w) in faults.link_faults
        ],
    }


def faults_from_dict(data: Dict[str, Any]) -> FaultSet:
    """Inverse of :func:`faults_to_dict`; validates every fault."""
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")
    mesh = mesh_from_dict(data["mesh"])
    nodes = [tuple(int(x) for x in v) for v in data.get("node_faults", [])]
    links = [
        (tuple(int(x) for x in u), tuple(int(x) for x in w))
        for (u, w) in data.get("link_faults", [])
    ]
    return FaultSet(mesh, nodes, links)


def lamb_outcome_to_dict(result) -> Dict[str, Any]:
    """Serialize a reconfiguration outcome: the fault set, the
    k-round ordering, and the lamb set.

    (A deliberately lean record — partitions and matrices are cheap to
    recompute and huge to store.)
    """
    return {
        "version": _FORMAT_VERSION,
        "faults": faults_to_dict(result.faults),
        "orderings": [list(pi.perm) for pi in result.orderings],
        "method": result.method,
        "lambs": sorted(list(v) for v in result.lambs),
        "cover_weight": result.cover_weight,
    }


def lamb_outcome_from_dict(data: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`lamb_outcome_to_dict`.

    Returns a dict with ``faults`` (:class:`FaultSet`), ``orderings``
    (:class:`KRoundOrdering`), ``method``, ``lambs`` (set of nodes) and
    ``cover_weight`` — everything needed to re-validate or re-run.
    """
    from ..routing.ordering import KRoundOrdering, Ordering

    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")
    faults = faults_from_dict(data["faults"])
    orderings = KRoundOrdering(
        [Ordering(tuple(int(x) for x in perm)) for perm in data["orderings"]]
    )
    lambs = {tuple(int(x) for x in v) for v in data["lambs"]}
    for v in sorted(lambs):
        if not faults.mesh.contains(v):
            raise ValueError(f"lamb {v} outside the mesh")
        if faults.node_is_faulty(v):
            raise ValueError(f"lamb {v} is faulty")
    return {
        "faults": faults,
        "orderings": orderings,
        "method": str(data.get("method", "bipartite")),
        "lambs": lambs,
        "cover_weight": float(data.get("cover_weight", 0.0)),
    }


def routing_table_to_dict(table) -> Dict[str, Any]:
    """Serialize a :class:`repro.core.RoutingTable` and its resolved
    entries — the one reconfiguration artifact that previously had no
    serialized form.

    Like :func:`lamb_outcome_to_dict` the record is lean: the embedded
    outcome carries faults/orderings/lambs (partitions and reachability
    matrices are recomputable), and ``entries`` lists every route
    resolved so far, sorted by ``(source, dest)`` for a canonical,
    diff-stable encoding.
    """
    return {
        "version": _FORMAT_VERSION,
        "outcome": lamb_outcome_to_dict(table.result),
        "policy": table.policy,
        "entries": [
            {
                "source": list(e.source),
                "dest": list(e.dest),
                "intermediates": [list(v) for v in e.intermediates],
                "rounds_used": e.rounds_used,
                "hops": e.hops,
                "turns": e.turns,
            }
            for e in sorted(
                table.entries(), key=lambda e: (e.source, e.dest)
            )
        ],
    }


def routing_table_from_dict(data: Dict[str, Any], result=None):
    """Inverse of :func:`routing_table_to_dict`.

    ``result`` may supply the live :class:`~repro.core.LambResult` the
    table belongs to; when omitted, a lean result is reconstructed from
    the embedded outcome record (faults, orderings, lambs — partitions
    and reachability matrices come back empty, exactly as documented
    for :func:`lamb_outcome_to_dict`).  Every stored entry is validated
    against the survivor set on load; entries whose endpoints are not
    survivors make the record invalid (``ValueError``).
    """
    from ..core.routing_table import RouteEntry, RoutingTable

    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")
    outcome = lamb_outcome_from_dict(data["outcome"])
    if result is None:
        result = _lean_lamb_result(outcome)
    else:
        if result.faults != outcome["faults"]:
            raise ValueError("routing-table record belongs to another fault set")
        if result.orderings != outcome["orderings"]:
            raise ValueError("routing-table record belongs to another ordering")
        if set(result.lambs) != outcome["lambs"]:
            raise ValueError("routing-table record belongs to another lamb set")
    table = RoutingTable(result, policy=str(data.get("policy", "shortest")))
    entries = []
    for rec in data.get("entries", []):
        entries.append(
            RouteEntry(
                source=tuple(int(x) for x in rec["source"]),
                dest=tuple(int(x) for x in rec["dest"]),
                intermediates=tuple(
                    tuple(int(x) for x in v) for v in rec["intermediates"]
                ),
                rounds_used=int(rec["rounds_used"]),
                hops=int(rec["hops"]),
                turns=int(rec["turns"]),
            )
        )
    table.preload(entries)
    return table


def _lean_lamb_result(outcome: Dict[str, Any]):
    """A :class:`~repro.core.LambResult` rebuilt from a serialized
    outcome: routable (mesh/faults/orderings/lambs/survivor tests all
    work) but with empty partitions and reachability matrices and no
    reach index; a :class:`~repro.core.RoutingTable` over it builds
    the index from the faults and orderings on its first route miss."""
    import numpy as np

    from ..core.lamb import LambResult
    from ..core.reachability import ReachabilityData

    faults = outcome["faults"]
    return LambResult(
        mesh=faults.mesh,
        faults=faults,
        orderings=outcome["orderings"],
        method=outcome["method"],
        lambs=frozenset(outcome["lambs"]),
        chosen_ses=(),
        chosen_des=(),
        ses_partition=[],
        des_partition=[],
        reach=ReachabilityData(
            Rk=np.zeros((0, 0), dtype=bool),
            round_matrices=[],
            intersection_matrices=[],
            partial=[],
        ),
        cover_weight=float(outcome["cover_weight"]),
    )


def dumps(record: Dict[str, Any]) -> str:
    """JSON-encode any record produced by this module."""
    return json.dumps(record, sort_keys=True, indent=2)


def loads(text: str) -> Dict[str, Any]:
    """Parse JSON text back into a record dict."""
    return json.loads(text)
