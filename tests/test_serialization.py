"""Tests for JSON serialization (repro.mesh.serialization)."""

import pytest
from hypothesis import given, settings

from repro.core import find_lamb_set, is_lamb_set
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
