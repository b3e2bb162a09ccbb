"""Output checks.  Each returns a list of problems; empty means the
output passed.  An op with any problem counts as a failed op."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "check_lamb_result",
    "check_sim_stats",
    "check_query_replies",
    "check_route_matches",
    "check_write_reply",
]


def check_lamb_result(result: Any, bound: int) -> List[str]:
    """Lamb1 output: Theorem 6.4's partition bound, every zero of
    R^(k) covered by a chosen SES or DES, every lamb a good node."""
    problems = []
    if len(result.ses_partition) > bound:
        problems.append(f"|SES| = {len(result.ses_partition)} > B = {bound}")
    if len(result.des_partition) > bound:
        problems.append(f"|DES| = {len(result.des_partition)} > B = {bound}")
    chosen_s = np.zeros(result.reach.Rk.shape[0], dtype=bool)
    chosen_d = np.zeros(result.reach.Rk.shape[1], dtype=bool)
    chosen_s[list(result.chosen_ses)] = True
    chosen_d[list(result.chosen_des)] = True
    zeros = np.argwhere(~result.reach.Rk)
    uncovered = ~(chosen_s[zeros[:, 0]] | chosen_d[zeros[:, 1]])
    if uncovered.any():
        i, j = zeros[int(np.argmax(uncovered))]
        problems.append(f"R^(k) zero ({i}, {j}) is not covered")
    faults = result.faults
    for v in result.lambs:
        if not result.mesh.contains(v) or faults.node_is_faulty(v):
            problems.append(f"lamb {v} is not a good node")
            break
    return problems


def check_sim_stats(stats: Any, injected: int) -> List[str]:
    """A drained simulation: nothing dangling, everything delivered."""
    problems = []
    if not stats.all_accounted:
        problems.append(
            f"{stats.total_messages - stats.delivered - stats.aborted} "
            f"messages unaccounted for"
        )
    if stats.delivered != injected:
        problems.append(f"delivered {stats.delivered} of {injected} injected")
    return problems


def check_query_replies(
    replies: Sequence[Dict[str, Any]],
    queries: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    epoch: int,
) -> List[str]:
    """Every reply ok, on ``epoch``, with the queried endpoints."""
    if len(replies) != len(queries):
        return [f"{len(replies)} replies for {len(queries)} queries"]
    for reply, (src, dst) in zip(replies, queries):
        if not reply.get("ok"):
            return [f"query {src}->{dst} failed: {reply.get('error')}"]
        if reply.get("epoch") != epoch:
            return [f"reply on epoch {reply.get('epoch')}, expected {epoch}"]
        if tuple(reply["source"]) != src or tuple(reply["dest"]) != dst:
            return [
                f"reply route {reply['source']}->{reply['dest']} for "
                f"query {src}->{dst}"
            ]
    return []


def check_route_matches(reply: Dict[str, Any], entry: Any) -> List[str]:
    """A wire reply equals a direct ``RoutingTable.lookup`` entry."""
    got = (
        tuple(reply["source"]),
        tuple(reply["dest"]),
        tuple(tuple(v) for v in reply["intermediates"]),
        reply["rounds_used"],
        reply["hops"],
        reply["turns"],
    )
    want = (
        entry.source,
        entry.dest,
        tuple(entry.intermediates),
        entry.rounds_used,
        entry.hops,
        entry.turns,
    )
    if got != want:
        return [f"wire route {got} differs from the table's {want}"]
    return []


def check_write_reply(
    reply: Dict[str, Any], epoch: int, faults: int, new_fault: Any = None
) -> List[str]:
    """A delta or repair reply: ok, on the next epoch, with the expected
    fault count, and the new fault not reported as a lamb."""
    problems = []
    if reply.get("epoch") != epoch:
        problems.append(f"write activated epoch {reply.get('epoch')}, "
                        f"expected {epoch}")
    if reply.get("faults") != faults:
        problems.append(f"write reports {reply.get('faults')} faults, "
                        f"expected {faults}")
    if new_fault is not None and list(new_fault) in reply.get("lamb_nodes", []):
        problems.append(f"faulty node {new_fault} reported as a lamb")
    return problems
