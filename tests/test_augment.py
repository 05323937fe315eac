import pytest

from alternator.augment import (
    augment_regions,
    compute_circles,
    make_augmented,
    region_incidences,
)
from alternator.diagram import (
    Sign,
    Tag,
    is_alternating,
    non_alternating_edges,
    trace_faces,
)
from alternator.errors import CircleNotSimple
from alternator.gen import random_diagram
from alternator.verify import restriction

from conftest import alternation_violated, face_nonalt_signs, flip_tag


def corpus(n=80):
    for seed in range(n):
        yield random_diagram(2 + seed % 3, 8 + seed % 13, seed)


class TestRegionIncidences:
    def test_alternating_trefoil_empty(self, trefoil):
        for face in trace_faces(trefoil):
            assert region_incidences(trefoil, face) == []

    def test_flipped_trefoil_faces_at_switched_crossing(self, flipped_trefoil):
        # the switched crossing is crossing 0; every face touching it picks
        # up exactly one positive and one negative incidence
        d = flipped_trefoil
        for face in trace_faces(d):
            touches = any(d.vertex_of(x) == 0 for x in face.darts)
            inc = region_incidences(d, face)
            if touches:
                assert len(inc) == 2
                assert {s for _, s in inc} == {Sign.PLUS, Sign.MINUS}
            else:
                assert inc == []

    def test_matches_oracle_on_corpus(self):
        for d in corpus(40):
            for face in trace_faces(d):
                inc = region_incidences(d, face)
                assert [s for _, s in inc] == face_nonalt_signs(d, face)
                assert not alternation_violated([s for _, s in inc])

    def test_incidences_in_face_order(self, flipped_trefoil):
        for face in trace_faces(flipped_trefoil):
            inc = region_incidences(flipped_trefoil, face)
            positions = [face.darts.index(dart) for dart, _ in inc]
            assert positions == sorted(positions)

    def test_guard_fires_on_corrupt_face_data(self, flipped_trefoil):
        # no valid diagram can violate region alternation, so feed the
        # check a fabricated orbit holding two same-sign incidences
        from alternator.diagram import Face, classify_edges
        from alternator.errors import RegionAlternationViolated

        d = flipped_trefoil
        classes = classify_edges(d)
        same_sign_darts = [
            e.darts[0]
            for eid, e in d.edges.items()
            if classes[eid].non_alternating_sign is Sign.PLUS
        ]
        fake = Face(id=99, darts=tuple(same_sign_darts))
        with pytest.raises(RegionAlternationViolated):
            region_incidences(d, fake)


class TestAugmentRegions:
    def test_alternating_input_identity(self, trefoil):
        aug = augment_regions(trefoil)
        assert aug.diagram == trefoil
        assert aug.circles == ()
        assert aug.provenance == {eid: eid for eid in trefoil.edges}

    def test_flipped_trefoil(self, flipped_trefoil):
        aug = augment_regions(flipped_trefoil)
        assert aug.diagram.num_crossings == 7  # 3 + 4 non-alternating edges
        assert is_alternating(aug.diagram)
        # golden value from tracing the 4 midpoints and 4 arcs by hand:
        # the arcs chain all midpoints into a single circle
        assert aug.circle_count == 1

    def test_granny(self, granny):
        assert len(non_alternating_edges(granny)) == 2
        aug = augment_regions(granny)
        assert aug.diagram.num_crossings == 8
        assert aug.circle_count == 1
        assert len(aug.circles[0].edges) == 2

    def test_crossing_count_formula(self):
        for d in corpus():
            aug = augment_regions(d)
            assert (
                aug.diagram.num_crossings
                == d.num_crossings + len(non_alternating_edges(d))
            )

    def test_always_alternating(self):
        for d in corpus():
            assert is_alternating(augment_regions(d).diagram)

    def test_added_crossings_mix_strands(self):
        for d in corpus(30):
            aug = augment_regions(d)
            for cid, c in aug.diagram.crossings.items():
                tags = {
                    aug.diagram.edges[aug.diagram.edge_of(x)].tag
                    for x in c.rotation
                }
                if cid not in d.crossings:
                    assert tags == {Tag.ORIGINAL, Tag.AUGMENT}
                else:
                    assert tags == {Tag.ORIGINAL}

    def test_restriction_inverts(self):
        for d in corpus(40):
            assert restriction(augment_regions(d)) == d

    def test_idempotent_on_alternating_output(self):
        for d in corpus(20):
            once = augment_regions(d)
            again = augment_regions(once.diagram)
            assert again.diagram == once.diagram


class TestCircles:
    def test_no_augment_edges_no_circles(self, trefoil):
        assert augment_regions(trefoil).circles == ()

    def test_granny_circle(self, granny):
        circles = augment_regions(granny).circles
        assert len(circles) == 1
        assert len(circles[0].edges) == 2

    def test_each_augment_edge_in_one_circle(self):
        for d in corpus(30):
            aug = augment_regions(d)
            seen = [eid for c in aug.circles for eid in set(c.edges)]
            expected = [
                eid
                for eid, e in aug.diagram.edges.items()
                if e.tag is Tag.AUGMENT
            ]
            assert sorted(seen) == sorted(expected)

    def test_circle_walks_closed_and_simple(self):
        for d in corpus(30):
            aug = augment_regions(d)
            for c in aug.circles:
                # a simple circle visits each of its crossings once
                visits = [aug.diagram.vertex_of(x) for x in c.darts[1::2]]
                assert len(visits) == len(set(visits))

    def test_tampered_tag_detected(self, granny):
        aug = augment_regions(granny)
        bad = flip_tag(aug.diagram, aug.circles[0].edges[0])
        with pytest.raises(CircleNotSimple):
            compute_circles(bad)

    def test_doubled_granny_two_circles(self, doubled_granny):
        aug = augment_regions(doubled_granny)
        assert aug.circle_count == 2
        assert sorted(len(c.edges) for c in aug.circles) == [2, 2]
