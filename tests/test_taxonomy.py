import dataclasses
import json
import math

import pytest

from vcslab.cli import RunConfig, main, run_class_checks
from vcslab.frequencies import FrequencyConfig
from vcslab.registry import get, registry
from vcslab.structure import SpecError
from vcslab.taxonomy import (
    EDGE_WINDOW,
    FactorComponent,
    FactorRelation,
    _descendant_state,
    canonical_signature,
    class_counts,
    declared_factor_relations,
    deformation_graph,
    enumerate_subclasses,
    graph_to_dot,
    graph_to_json,
    landau_map,
    verify_edge_continuity,
    verify_factor,
)

CFG2 = FrequencyConfig((1.0, 2.0))
CFG3 = FrequencyConfig((1.0, 2.0, 3.0))


def knf(kind, tower, scalar):
    return FactorComponent((kind, tower), scalar, "knf")


# the catalog's factor statements written out one by one: sub-class B-D of
# a one-variable family is its A times z_s^(db k nf) omega_s^(-db'/2 k nf)
DECLARED_RELATIONS = [
    FactorRelation("2d.1dof.plain1.A", "2d.1dof.plain1.B", (knf("omega", 1, -0.5),)),
    FactorRelation("2d.1dof.plain1.A", "2d.1dof.plain1.C", (knf("z", 1, 1.0),)),
    FactorRelation("2d.1dof.plain1.A", "2d.1dof.plain1.D", (knf("z", 1, 1.0), knf("omega", 1, -0.5))),
    FactorRelation("2d.1dof.gamma1.A", "2d.1dof.gamma1.B", (knf("z", 1, -1.0),)),
    FactorRelation("2d.1dof.gamma1.A", "2d.1dof.gamma1.C", (knf("omega", 1, 0.5),)),
    FactorRelation("2d.1dof.gamma1.A", "2d.1dof.gamma1.D", (knf("z", 1, -1.0), knf("omega", 1, 0.5))),
    FactorRelation("2d.1dof.plain2.A", "2d.1dof.plain2.B", (knf("omega", 2, -0.5),)),
    FactorRelation("2d.1dof.plain2.A", "2d.1dof.plain2.C", (knf("z", 2, 1.0),)),
    FactorRelation("2d.1dof.plain2.A", "2d.1dof.plain2.D", (knf("z", 2, 1.0), knf("omega", 2, -0.5))),
    FactorRelation("2d.1dof.gamma2.A", "2d.1dof.gamma2.B", (knf("z", 2, -1.0),)),
    FactorRelation("2d.1dof.gamma2.A", "2d.1dof.gamma2.C", (knf("omega", 2, 0.5),)),
    FactorRelation("2d.1dof.gamma2.A", "2d.1dof.gamma2.D", (knf("z", 2, -1.0), knf("omega", 2, 0.5))),
    # the second-tower canonical factor z2^n2 [w2^n2 n2!]^(-1/2)
    FactorRelation(
        "2d.1dof.gamma1.A",
        "2d.2dof.gamma1-plain.A",
        (
            FactorComponent(("z", 2), 1.0, "nf"),
            FactorComponent(("omega", 2), -0.5, "nf"),
            FactorComponent(("factorial", 2), -0.5, "nf"),
        ),
    ),
]


def verify_pinned_limit(edge, tmp_path):
    """Exit code and convergence verdict of the CLI with the edge's ratio pinned
    to zero, at the default frequencies (1, 2, 3) and fixed index 0."""
    out = tmp_path / "limit.json"
    i, j = edge.parameter
    (fixed_tower,) = get(edge.ancestor).fixed
    rc = main([
        "verify", edge.ancestor, "--kappa", f"{i}{j}=0", "--fixed", f"n{fixed_tower}=0",
        "--checks", "convergence", "--out", str(out),
    ])
    (rep,) = json.loads(out.read_text())["results"]
    return rc, rep["verdict"]


class TestEnumerateSubclasses:
    @pytest.mark.parametrize("family", ["plain-plain", "gamma1-plain", "plain-gamma2", "gamma1-gamma2"])
    def test_sixteen_quadruples_partitioned(self, family):
        rows = enumerate_subclasses(family)
        assert len(rows) == 16
        kinds = [r[1] for r in rows]
        assert kinds.count("base") == 1
        assert kinds.count("relevant") == 3
        assert kinds.count("factor") == 12

    def test_first_family_relevant_tuples(self):
        rows = {q: (kind, detail) for q, kind, detail in enumerate_subclasses("plain-plain")}
        assert rows[(0, 0, 0, 0)][0] == "base"
        for q in [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)]:
            assert rows[q][0] == "relevant"
        for q in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]:
            assert rows[q][0] == "factor"

    def test_second_family_relevant_tuples(self):
        rows = {q: (kind, detail) for q, kind, detail in enumerate_subclasses("gamma1-plain")}
        assert rows[(1, 1, 0, 0)][0] == "base"
        for q in [(1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]:
            assert rows[q][0] == "relevant"
        # deviating first-tower exponents produce fixed-index prefactors
        assert rows[(0, 0, 1, 1)][0] == "factor"
        assert "gamma1-plain.D" in rows[(0, 0, 1, 1)][1]

    def test_one_variable_families_are_factor_towers(self):
        rows = enumerate_subclasses("gamma")
        kinds = [r[1] for r in rows]
        assert kinds.count("base") == 1 and kinds.count("factor") == 3

    def test_unknown_family(self):
        with pytest.raises(SpecError):
            enumerate_subclasses("fifth")


class TestFactorRelations:
    def test_generated_relations_match_the_written_table(self):
        assert declared_factor_relations() == DECLARED_RELATIONS

    def test_catalog_covers_all_one_dof_variants(self):
        rels = declared_factor_relations()
        ids = {r.sub_b for r in rels}
        for s in ("1", "2"):
            for fam in ("plain", "gamma"):
                for letter in "BCD":
                    assert f"2d.1dof.{fam}{s}.{letter}" in ids

    @pytest.mark.parametrize("rel", declared_factor_relations(), ids=lambda r: r.sub_b)
    def test_every_declared_factor_verifies(self, rel):
        rep = verify_factor(rel, CFG2, fixed_value=3)
        assert rep.passed, rep.as_dict()

    def test_ratio_constant_across_summed_index(self):
        rel = next(r for r in declared_factor_relations() if r.sub_b == "2d.2dof.gamma1-plain.A")
        rep = verify_factor(rel, CFG2, fixed_value=2)
        meta = dict(rep.metadata)
        assert meta["ratio_variance"] <= 1e-20


class TestDeformationGraph:
    def test_one_variable_graph(self):
        edges = deformation_graph(2, 1)
        defined = {(e.ancestor, e.descendant) for e in edges if e.status == "defined"}
        assert ("2d.1dof.gamma1.A", "2d.1dof.plain1.A") in defined
        assert ("2d.1dof.plain1.B", "2d.1dof.plain1.A") in defined
        assert ("2d.1dof.gamma2.A", "2d.1dof.plain2.A") in defined

    def test_two_variable_graph_matches_classification(self):
        edges = deformation_graph(2, 2)
        by_anc = {}
        for e in edges:
            by_anc.setdefault(e.ancestor, []).append(e)
        # the fully deformed family has no defined limits (reciprocal ratios)
        for letter in "ABCD":
            assert all(e.status == "forbidden" for e in by_anc[f"2d.2dof.gamma1-gamma2.{letter}"])
        # second-family exponent variants are not of the plain type either
        for letter in "BCD":
            assert all(e.status == "forbidden" for e in by_anc[f"2d.2dof.gamma1-plain.{letter}"])
        # while A flows to the plain class
        assert any(
            e.status == "defined" and e.descendant == "2d.2dof.plain-plain.A"
            for e in by_anc["2d.2dof.gamma1-plain.A"]
        )
        for letter in "ABCD":
            assert any(
                e.status == "defined" and e.descendant == "2d.2dof.plain-plain.A"
                for e in by_anc[f"2d.2dof.plain-gamma2.{letter}"]
            )

    def test_case13_forbidden_limit(self, tmp_path):
        edges = deformation_graph(3, 2)
        e = next(
            e
            for e in edges
            if e.ancestor == "3d.2dof.gamma13-gamma32" and e.parameter == (3, 2)
        )
        assert e.status == "forbidden"
        assert "decouples" in e.reason
        assert verify_pinned_limit(e, tmp_path) == (0, "undefined")

    def test_case13_reciprocal_forbidden(self, tmp_path):
        edges = deformation_graph(3, 2)
        e = next(
            e for e in edges if e.ancestor == "3d.2dof.gamma13-gamma3" and e.parameter == (1, 3)
        )
        assert e.status == "forbidden" and "reciprocal" in e.reason
        assert verify_pinned_limit(e, tmp_path) == (0, "undefined")

    @pytest.mark.parametrize("dim, dof", [(2, 1), (2, 2), (3, 2)])
    def test_cli_predicts_undefined_exactly_on_forbidden_edges(self, dim, dof):
        # the CLI judges a ratio pinned to zero by the graph's own test
        for e in deformation_graph(dim, dof):
            (rep,) = run_class_checks(
                e.ancestor, RunConfig(kappa_overrides={e.parameter: 0.0}, checks=["norm"])
            )
            undefined = rep["residuals"] == {"predicted-undefined": 0.0}
            assert undefined == (e.status == "forbidden"), e
            if undefined:
                assert rep["metadata"]["reason"] == e.reason, e

    def test_text_stated_chains_present(self):
        edges = deformation_graph(3, 2)
        defined = {(e.ancestor, e.descendant, e.parameter) for e in edges if e.status == "defined"}
        chains = [
            ("3d.2dof.gamma13-gamma23", "3d.2dof.plain-gamma23", (1, 3)),
            ("3d.2dof.gamma1-gamma32", "3d.2dof.gamma13-gamma32", (1, 2)),
            ("3d.2dof.gamma1-gamma32", "3d.2dof.gamma12-gamma32", (1, 3)),
            ("3d.2dof.gamma1-gamma32", "3d.2dof.gamma1-plain3", (3, 2)),
            ("3d.2dof.gamma1-plain3", "3d.2dof.gamma12-plain3", (1, 3)),
            ("3d.2dof.gamma12-gamma31", "3d.2dof.gamma12-plain3", (3, 1)),
            ("3d.2dof.gamma12-gamma3", "3d.2dof.plain-gamma3", (1, 2)),
            ("3d.2dof.plain-gamma3", "3d.2dof.plain-gamma32", (3, 1)),
            ("3d.2dof.gamma1-gamma2", "3d.2dof.gamma12-gamma2", (1, 3)),
            ("3d.2dof.gamma1-gamma3", "3d.2dof.gamma13-gamma3", (1, 2)),
            ("3d.2dof.gamma1-gamma3", "3d.2dof.gamma1-gamma31", (3, 2)),
        ]
        for c in chains:
            assert c in defined, c

    def test_symmetry_identified_edges(self):
        edges = deformation_graph(3, 2)
        # k23 -> 0 from the independent ancestor lands on the symmetric
        # image of the registered (1,g23) class
        e = next(
            e
            for e in edges
            if e.ancestor == "3d.2dof.gamma13-gamma23" and e.parameter == (2, 3)
        )
        assert e.status == "defined"
        assert e.descendant == "3d.2dof.plain-gamma23"
        assert e.via_symmetry

    def test_defined_edges_form_a_dag(self):
        edges = [e for e in deformation_graph(3, 2) if e.status == "defined"]
        # term count strictly decreases along every edge, so cycles are
        # impossible; verify by topological sort
        import graphlib

        ts = graphlib.TopologicalSorter()
        for e in edges:
            if e.descendant != e.ancestor:
                ts.add(e.ancestor, e.descendant)
        list(ts.static_order())  # raises on cycles

    def test_symmetry_closure_of_case12(self):
        # one representative per swap orbit is registered, so the swapped
        # image of every case-(12) class resolves back through the orbit
        sigs = {canonical_signature(s): s.id for s in registry()}
        for s in registry():
            if s.case == "12":
                image = s.relabeled({1: 2, 2: 1})
                direct = canonical_signature(image)
                double = canonical_signature(image.relabeled({1: 2, 2: 1}))
                assert direct in sigs or double in sigs, s.id
                if direct not in sigs:
                    assert sigs[double] == s.id

    def test_continuity_of_defined_edges_sample(self):
        edges = [e for e in deformation_graph(3, 2) if e.status == "defined"]
        sample = [e for e in edges if e.ancestor in (
            "3d.2dof.gamma1-gamma32", "3d.2dof.gamma13-gamma23", "3d.2dof.gamma12-gamma3"
        )]
        assert sample
        for e in sample:
            rep = verify_edge_continuity(e, CFG3, (1,))
            assert rep.passed, (e, rep.as_dict())

    def test_unsupported_pair(self):
        for _ in range(2):
            with pytest.raises(SpecError):
                deformation_graph(3, 1)

    def test_memoized_graph_cannot_be_changed_by_a_caller(self):
        graph = deformation_graph(2, 2)
        assert isinstance(graph, tuple)
        assert deformation_graph(2, 2) is graph
        before = [dataclasses.astuple(e) for e in graph]
        held = list(graph)
        held.clear()
        with pytest.raises(TypeError):
            graph[0] = graph[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph[0].status = "forbidden"
        assert [dataclasses.astuple(e) for e in deformation_graph(2, 2)] == before


    def test_shared_descendant_state_cannot_be_changed_by_a_caller(self):
        edge = next(
            e for e in deformation_graph(3, 2)
            if e.status == "defined" and not e.via_symmetry
        )
        before = verify_edge_continuity(edge, CFG3, (1,)).as_dict()
        # the descendant's state as verify_edge_continuity asks for it
        anc, desc = get(edge.ancestor), get(edge.descendant)
        z = {t: 0.8 * math.sqrt(CFG3.omega(t)) for t in anc.tower_ids}
        hits = _descendant_state.cache_info().hits
        shared = _descendant_state(
            desc, CFG3, tuple(z[t] for t in desc.tower_ids), (1,), (EDGE_WINDOW,) * len(anc.summed)
        )
        assert _descendant_state.cache_info().hits == hits + 1
        with pytest.raises(TypeError):
            shared.coeffs[next(iter(shared.coeffs))] = 0.0
        assert verify_edge_continuity(edge, CFG3, (1,)).as_dict() == before


class TestClassCounts:
    def test_case12_count(self):
        assert class_counts(3, 2, case="12") == 10

    def test_two_variable_total(self):
        assert class_counts(3, 2) == 22
        assert class_counts(3, 2, case="13") == 12

    def test_three_variable_count(self):
        assert class_counts(3, 3) == 40

    def test_counts_match_registry(self):
        assert class_counts(3, 2) == len([s for s in registry() if s.dimension == 3 and s.dof == 2])

    def test_unsupported(self):
        with pytest.raises(SpecError):
            class_counts(4, 2)
        with pytest.raises(SpecError):
            class_counts(3, 2, case="23")
        # three variables have no case
        for case in ("12", "13", "bogus"):
            with pytest.raises(SpecError):
                class_counts(3, 3, case=case)


class TestLandauMap:
    def test_isotropic_limit(self):
        osc = landau_map(0.0, 3.0)
        assert osc.omega_plus == pytest.approx(3.0)
        assert osc.omega_minus == pytest.approx(3.0)
        assert not osc.degenerate
        assert osc.config().shifts == (0.5, 0.5)

    def test_degenerate_limit(self):
        osc = landau_map(3.0, 0.0)
        assert osc.omega_plus == pytest.approx(6.0)
        assert osc.omega_minus == 0.0
        assert osc.degenerate
        with pytest.raises(SpecError):
            osc.config()

    def test_three_four_five(self):
        osc = landau_map(3.0, 4.0)
        assert osc.omega_plus == pytest.approx(8.0)
        assert osc.omega_minus == pytest.approx(2.0)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            landau_map(0.0, 0.0)


class TestGraphExport:
    def test_dot_wellformed(self):
        dot = graph_to_dot(deformation_graph(2, 2))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "status=forbidden" in dot and "status=defined" in dot
        assert dot.count("{") == dot.count("}")

    def test_json_shape(self):
        rows = graph_to_json(deformation_graph(3, 2))
        assert all(set(r) == {"ancestor", "descendant", "parameter", "status", "reason", "via_symmetry"} for r in rows)
        params = {r["parameter"] for r in rows}
        assert "kappa32" in params


class TestClassLevelGraph:
    def test_two_dof_collapse_has_four_class_nodes(self):
        from vcslab.taxonomy import collapse_to_classes

        edges = collapse_to_classes(deformation_graph(2, 2))
        nodes = {e.ancestor for e in edges} | {e.descendant for e in edges if e.descendant}
        assert nodes == {
            "2d.2dof.plain-plain.A",
            "2d.2dof.gamma1-plain.A",
            "2d.2dof.plain-gamma2.A",
            "2d.2dof.gamma1-gamma2.A",
        }
        defined = {(e.ancestor, e.descendant) for e in edges if e.status == "defined"}
        assert ("2d.2dof.gamma1-plain.A", "2d.2dof.plain-plain.A") in defined
        assert ("2d.2dof.plain-gamma2.A", "2d.2dof.plain-plain.A") in defined

    def test_3d_graph_separates_the_two_cases(self):
        # deformation limits never move a class between the (z1,z2) and
        # (z1,z3) sectors: the graph splits into the two case groups
        edges = deformation_graph(3, 2)
        nodes = {e.ancestor for e in edges} | {e.descendant for e in edges if e.descendant}
        by_case = {"12": set(), "13": set()}
        for n in nodes:
            by_case[get(n).case].add(n)
        assert len(by_case["12"]) == 10 and len(by_case["13"]) == 12
        for e in edges:
            if e.descendant:
                assert get(e.ancestor).case == get(e.descendant).case
