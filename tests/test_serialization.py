"""Tests for JSON serialization (repro.mesh.serialization)."""

import pytest
from hypothesis import given, settings

from repro.core import (
    RoutingTable,
    build_routing_table,
    find_lamb_set,
    is_lamb_set,
)
from repro.mesh import FaultSet, Mesh, Torus
from repro.mesh.serialization import (
    dumps,
    faults_from_dict,
    faults_to_dict,
    lamb_outcome_from_dict,
    lamb_outcome_to_dict,
    loads,
    mesh_from_dict,
    mesh_to_dict,
    routing_table_from_dict,
    routing_table_to_dict,
)
from repro.routing import repeated, xy

from conftest import faulty_meshes


class TestMeshRoundTrip:
    def test_mesh(self):
        m = Mesh((3, 4, 5))
        assert mesh_from_dict(mesh_to_dict(m)) == m

    def test_torus(self):
        t = Torus((8, 8))
        back = mesh_from_dict(mesh_to_dict(t))
        assert back == t
        assert back.is_torus

    def test_mesh_and_torus_distinct(self):
        assert mesh_from_dict(mesh_to_dict(Mesh((4, 4)))) != Torus((4, 4))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            mesh_from_dict({"type": "klein-bottle", "widths": [4, 4]})
        with pytest.raises(ValueError):
            mesh_from_dict({"type": "mesh"})


class TestFaultRoundTrip:
    @given(faulty_meshes())
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, faults):
        back = faults_from_dict(loads(dumps(faults_to_dict(faults))))
        assert back == faults

    def test_version_check(self):
        d = faults_to_dict(FaultSet(Mesh((4, 4))))
        d["version"] = 99
        with pytest.raises(ValueError):
            faults_from_dict(d)

    def test_invalid_fault_rejected_on_load(self):
        d = faults_to_dict(FaultSet(Mesh((4, 4))))
        d["node_faults"] = [[9, 9]]
        with pytest.raises(ValueError):
            faults_from_dict(d)


class TestLambOutcomeRoundTrip:
    def test_round_trip_and_revalidation(self, paper_faults):
        orderings = repeated(xy(), 2)
        result = find_lamb_set(paper_faults, orderings)
        record = loads(dumps(lamb_outcome_to_dict(result)))
        back = lamb_outcome_from_dict(record)
        assert back["faults"] == paper_faults
        assert back["orderings"] == orderings
        assert back["lambs"] == set(result.lambs)
        assert back["cover_weight"] == result.cover_weight
        assert is_lamb_set(back["faults"], back["orderings"], back["lambs"])

    def test_faulty_lamb_rejected(self, paper_faults):
        result = find_lamb_set(paper_faults, repeated(xy(), 2))
        record = lamb_outcome_to_dict(result)
        record["lambs"].append([9, 1])  # a faulty node
        with pytest.raises(ValueError):
            lamb_outcome_from_dict(record)

    def test_out_of_mesh_lamb_rejected(self, paper_faults):
        result = find_lamb_set(paper_faults, repeated(xy(), 2))
        record = lamb_outcome_to_dict(result)
        record["lambs"].append([99, 99])
        with pytest.raises(ValueError):
            lamb_outcome_from_dict(record)


class TestRoutingTableRoundTrip:
    def _table(self, paper_faults, n_pairs=12, policy="shortest"):
        result = find_lamb_set(paper_faults, repeated(xy(), 2))
        survivors = result.survivors()
        pairs = [
            (survivors[i], survivors[-1 - i]) for i in range(n_pairs)
        ]
        table = build_routing_table(result, pairs=pairs, policy=policy)
        return table, result

    def test_round_trip_entries(self, paper_faults):
        table, result = self._table(paper_faults)
        record = loads(dumps(routing_table_to_dict(table)))
        back = routing_table_from_dict(record)
        assert len(back) == len(table)
        assert back.policy == table.policy
        orig = {(e.source, e.dest): e for e in table.entries()}
        for e in back.entries():
            assert orig[(e.source, e.dest)] == e

    def test_round_trip_with_live_result(self, paper_faults):
        table, result = self._table(paper_faults, n_pairs=4)
        back = routing_table_from_dict(
            routing_table_to_dict(table), result=result
        )
        assert {(e.source, e.dest) for e in back.entries()} == {
            (e.source, e.dest) for e in table.entries()
        }
        # The restored table is live: it can resolve *new* routes too.
        survivors = result.survivors()
        entry = back.lookup(survivors[5], survivors[17])
        assert entry.hops >= 1

    @pytest.mark.parametrize("policy", ["shortest", "first", "random"])
    def test_lean_restore_routes_like_live_table(self, paper_faults, policy):
        """A record restored without its live result carries a lean
        result (empty partitions, no reach index).  Its first miss
        builds the index from the faults and orderings, and every
        never-cached pair is answered exactly as a live table with the
        same seed answers it, tie-break draws included."""
        table, result = self._table(paper_faults, n_pairs=3, policy=policy)
        back = routing_table_from_dict(loads(dumps(routing_table_to_dict(table))))
        assert back.result.reach_index is None
        assert not back.result.ses_partition
        live = RoutingTable(result, policy=policy, seed=0)
        survivors = result.survivors()
        cached = {(e.source, e.dest) for e in back.entries()}
        fresh = [(survivors[5 * i], survivors[-7 - 3 * i]) for i in range(12)]
        fresh += [((0, 1), (9, 2)), ((11, 0), (10, 9))]
        for v, w in fresh:
            assert (v, w) not in cached
            assert back.lookup(v, w) == live.lookup(v, w)

    def test_mismatched_result_rejected(self, paper_faults):
        table, _ = self._table(paper_faults, n_pairs=2)
        other = find_lamb_set(
            FaultSet(Mesh((12, 12)), [(3, 3)]), repeated(xy(), 2)
        )
        with pytest.raises(ValueError):
            routing_table_from_dict(routing_table_to_dict(table), result=other)

    def test_non_survivor_entry_rejected(self, paper_faults):
        table, result = self._table(paper_faults, n_pairs=2)
        record = routing_table_to_dict(table)
        bad = dict(record["entries"][0])
        bad["source"] = [9, 1]  # a faulty node
        record["entries"].append(bad)
        with pytest.raises(ValueError):
            routing_table_from_dict(record)

    def test_version_check(self, paper_faults):
        table, _ = self._table(paper_faults, n_pairs=1)
        record = routing_table_to_dict(table)
        record["version"] = 99
        with pytest.raises(ValueError):
            routing_table_from_dict(record)
