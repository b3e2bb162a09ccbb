"""Hypercube helpers (Section 7: "the algorithms can be applied
directly to d-dimensional hypercubes, that is, meshes M_d(2)").

On ``M_d(2)`` nodes are bit vectors, dimension-ordered routing is the
classic *e-cube* routing (fix address bits in ascending order), and
routes have a clean algebraic form.  These helpers provide the
bit-level view on top of the general mesh machinery and are
cross-checked against it in the tests.
"""

from __future__ import annotations

from typing import List, Sequence

from .geometry import Node

__all__ = [
    "node_to_address",
    "address_to_node",
    "hamming_distance",
    "ecube_route_addresses",
    "gray_code_ring",
]


def node_to_address(node: Sequence[int]) -> int:
    """Pack a hypercube node (a 0/1 tuple) into an integer address;
    coordinate j is bit j."""
    addr = 0
    for j, b in enumerate(node):
        if b not in (0, 1):
            raise ValueError(f"{tuple(node)} is not a hypercube node")
        addr |= int(b) << j
    return addr


def address_to_node(address: int, d: int) -> Node:
    """Inverse of :func:`node_to_address`."""
    if not 0 <= address < (1 << d):
        raise ValueError(f"address {address} out of range for d={d}")
    return tuple((address >> j) & 1 for j in range(d))


def hamming_distance(a: int, b: int) -> int:
    """Bit-level Hamming distance = L1 mesh distance on M_d(2)."""
    return bin(a ^ b).count("1")


def ecube_route_addresses(src: int, dst: int, d: int) -> List[int]:
    """The e-cube route as an address sequence: correct differing bits
    in ascending order — exactly dimension-ordered routing on M_d(2).
    """
    if not (0 <= src < (1 << d) and 0 <= dst < (1 << d)):
        raise ValueError("addresses out of range")
    route = [src]
    cur = src
    diff = src ^ dst
    for j in range(d):
        if diff & (1 << j):
            cur ^= 1 << j
            route.append(cur)
    return route


def gray_code_ring(d: int) -> List[int]:
    """A Hamiltonian ring of the d-cube (reflected Gray code).

    Consecutive addresses differ in one bit, so the ring embeds in the
    hypercube with dilation 1 — the standard way to run ring
    collectives on a hypercube machine.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return [i ^ (i >> 1) for i in range(1 << d)]
