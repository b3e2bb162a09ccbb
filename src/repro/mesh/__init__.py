"""Mesh topology substrate: meshes, tori, fault sets, rectangles."""

from .faults import (
    FaultSet,
    cross_block,
    l_shaped_block,
    random_link_faults,
    random_node_faults,
    rectangular_block,
    t_shaped_block,
)
from .geometry import Link, Mesh, Node
from .hypercube import (
    address_to_node,
    ecube_route_addresses,
    gray_code_ring,
    hamming_distance,
    node_to_address,
)
from .patterns import (
    clustered_faults,
    dust_and_clusters,
    partial_plane_faults,
    random_walk_cluster,
)
from .serialization import (
    dumps,
    faults_from_dict,
    faults_to_dict,
    lamb_outcome_from_dict,
    lamb_outcome_to_dict,
    loads,
    mesh_from_dict,
    mesh_to_dict,
)
from .regions import (
    Rect,
    Rects,
    as_rects,
    rect_intersection_matrix,
    rects_are_disjoint,
    rects_total_size,
)
from .torus import Torus

__all__ = [
    "Mesh",
    "Torus",
    "Node",
    "Link",
    "FaultSet",
    "Rect",
    "Rects",
    "as_rects",
    "random_node_faults",
    "random_link_faults",
    "rectangular_block",
    "cross_block",
    "l_shaped_block",
    "t_shaped_block",
    "rect_intersection_matrix",
    "rects_total_size",
    "rects_are_disjoint",
    "node_to_address",
    "address_to_node",
    "hamming_distance",
    "ecube_route_addresses",
    "gray_code_ring",
    "random_walk_cluster",
    "clustered_faults",
    "partial_plane_faults",
    "dust_and_clusters",
    "mesh_to_dict",
    "mesh_from_dict",
    "faults_to_dict",
    "faults_from_dict",
    "lamb_outcome_to_dict",
    "lamb_outcome_from_dict",
    "dumps",
    "loads",
]
