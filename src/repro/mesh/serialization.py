"""JSON serialization of machine state.

The roll-back/reconfigure story (Section 1) implies persistence: the
diagnostic layer records the fault set, and the reconfiguration step's
output (the lamb set) must reach every router.  This module defines a
small, versioned JSON format for meshes, tori, fault sets, and
reconfiguration outcomes, with strict validation on load.

Routing tables have no serialized form: Lamb1 costs O(k·d³·f³ + |Λ|),
independent of mesh size (Theorem 6.8), so a table is rebuilt from its
outcome record rather than stored.
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


def dumps(record: Dict[str, Any]) -> str:
    """JSON-encode any record produced by this module."""
    return json.dumps(record, sort_keys=True, indent=2)


def loads(text: str) -> Dict[str, Any]:
    """Parse JSON text back into a record dict."""
    return json.loads(text)
