import pytest

from alternator.augment import augment_regions
from alternator.diagram import Tag, is_alternating, trace_faces
from alternator.errors import (
    MoveError,
    NotAugmentArc,
    NotSameFace,
    SameCircle,
)
from alternator.gen import random_diagram
from alternator.moves import (
    MoveSite,
    type_i_merge,
    type_ii_push,
)
from alternator.verify import restriction

from conftest import harvest_type_i_sites, harvest_type_ii_sites, toggle_over_axis
from test_acceptance import _collect_sites


def multi_circle_cases(n):
    found = 0
    seed = 0
    while found < n and seed < 400:
        d = random_diagram(2 + seed % 3, 10 + seed % 11, seed)
        seed += 1
        if is_alternating(d):
            continue
        aug = augment_regions(d)
        if aug.circle_count >= 2 and harvest_type_i_sites(aug):
            found += 1
            yield d, aug


class TestTypeIMerge:
    def test_doubled_granny_two_arc_circles(self, doubled_granny):
        aug = augment_regions(doubled_granny)
        assert sorted(len(c.edges) for c in aug.circles) == [2, 2]
        site = harvest_type_i_sites(aug)[0]
        out = type_i_merge(aug, site)
        assert out.circle_count == 1
        assert out.diagram.num_crossings == aug.diagram.num_crossings

    def test_circle_count_drops_by_one(self):
        for d, aug in multi_circle_cases(10):
            site = harvest_type_i_sites(aug)[0]
            out = type_i_merge(aug, site)
            assert out.circle_count == aug.circle_count - 1

    def test_preserves_everything(self):
        for d, aug in multi_circle_cases(15):
            for site in harvest_type_i_sites(aug)[:4]:
                out = type_i_merge(aug, site)
                assert is_alternating(out.diagram)
                assert out.diagram.euler_characteristic() == 2
                assert restriction(out) == d
                assert out.diagram.num_crossings == aug.diagram.num_crossings

    def test_rejects_unknown_face(self, doubled_granny):
        aug = augment_regions(doubled_granny)
        site = harvest_type_i_sites(aug)[0]
        with pytest.raises(NotSameFace):
            type_i_merge(aug, MoveSite(face=10**6, dart_a=site.dart_a,
                                       dart_b=site.dart_b))

    def test_rejects_darts_off_face(self, doubled_granny):
        aug = augment_regions(doubled_granny)
        site = harvest_type_i_sites(aug)[0]
        faces = trace_faces(aug.diagram)
        other = next(
            f.id for f in faces
            if site.dart_a not in f.darts
        )
        with pytest.raises(NotSameFace):
            type_i_merge(aug, MoveSite(face=other, dart_a=site.dart_a,
                                       dart_b=site.dart_b))

    def test_rejects_same_circle(self):
        # seed 3 puts two arcs of one circle on a common face
        aug = augment_regions(random_diagram(3, 10, 3))
        d = aug.diagram
        circle_edges = set(aug.circles[0].edges)
        for face in trace_faces(d):
            arcs = [x for x in face.darts if d.edge_of(x) in circle_edges]
            if len({d.edge_of(x) for x in arcs}) >= 2:
                a = arcs[0]
                b = next(x for x in arcs if d.edge_of(x) != d.edge_of(a))
                with pytest.raises(SameCircle):
                    type_i_merge(aug, MoveSite(face=face.id, dart_a=a, dart_b=b))
                return
        raise AssertionError("expected a face with two arcs of circle 0")

    def test_rejects_original_edge(self, doubled_granny):
        aug = augment_regions(doubled_granny)
        d = aug.diagram
        for face in trace_faces(d):
            orig = [x for x in face.darts
                    if d.edges[d.edge_of(x)].tag is Tag.ORIGINAL]
            arcs = [x for x in face.darts
                    if d.edges[d.edge_of(x)].tag is Tag.AUGMENT]
            if orig and arcs:
                with pytest.raises(NotAugmentArc):
                    type_i_merge(aug, MoveSite(face=face.id, dart_a=orig[0],
                                               dart_b=arcs[0]))
                return


class TestTypeIIPush:
    def test_adds_two_crossings(self, granny):
        aug = augment_regions(granny)
        for site in harvest_type_ii_sites(aug)[:6]:
            out, _ = type_ii_push(aug, site)
            assert out.diagram.num_crossings == aug.diagram.num_crossings + 2
            assert out.circle_count == aug.circle_count

    def test_preserves_everything(self):
        checked = 0
        for seed in range(40):
            d = random_diagram(2 + seed % 3, 8 + seed % 9, seed)
            if is_alternating(d):
                continue
            aug = augment_regions(d)
            for site in harvest_type_ii_sites(aug)[:3]:
                out, _ = type_ii_push(aug, site)
                assert is_alternating(out.diagram)
                assert out.diagram.euler_characteristic() == 2
                assert restriction(out) == d
                checked += 1
        assert checked > 30

    def test_push_then_push_back_keeps_restriction(self, granny):
        aug = augment_regions(granny)
        site = harvest_type_ii_sites(aug)[0]
        once, record = type_ii_push(aug, site)
        mid_arc = record.arc_parts[1]
        mid_crossed = record.crossed_parts[1]
        d = once.diagram
        back_face = next(
            f for f in trace_faces(d)
            if any(d.edge_of(x) == mid_arc for x in f.darts)
            and any(d.edge_of(x) == mid_crossed for x in f.darts)
        )
        a = next(x for x in back_face.darts if d.edge_of(x) == mid_arc)
        b = next(x for x in back_face.darts if d.edge_of(x) == mid_crossed)
        twice, _ = type_ii_push(
            once, MoveSite(face=back_face.id, dart_a=a, dart_b=b)
        )
        assert twice.diagram.num_crossings == aug.diagram.num_crossings + 4
        assert restriction(twice) == restriction(aug)

    def test_new_crossings_mix_strands(self, granny):
        aug = augment_regions(granny)
        site = harvest_type_ii_sites(aug)[0]
        out, record = type_ii_push(aug, site)
        for cid in record.new_crossings:
            tags = {
                out.diagram.edges[out.diagram.edge_of(x)].tag
                for x in out.diagram.crossings[cid].rotation
            }
            assert tags == {Tag.ORIGINAL, Tag.AUGMENT}

    def test_rejects_original_arc(self, granny):
        aug = augment_regions(granny)
        site = harvest_type_ii_sites(aug)[0]
        with pytest.raises(NotAugmentArc):
            type_ii_push(aug, MoveSite(face=site.face, dart_a=site.dart_b,
                                       dart_b=site.dart_a))

    def test_rejects_pushing_across_itself(self, granny):
        aug = augment_regions(granny)
        d = aug.diagram
        site = harvest_type_ii_sites(aug)[0]
        with pytest.raises(MoveError):
            type_ii_push(aug, MoveSite(face=site.face, dart_a=site.dart_a,
                                       dart_b=site.dart_a))

    def test_assignment_search_is_deterministic(self, granny):
        aug = augment_regions(granny)
        site = harvest_type_ii_sites(aug)[0]
        r1 = type_ii_push(aug, site)[1]
        r2 = type_ii_push(aug, site)[1]
        assert r1 == r2

    def test_forced_assignment_is_the_only_alternating_one(self):
        # the old four-way over/under search as an oracle, on the push sites
        # of acceptance criterion 3: toggling either new crossing, or both,
        # must break alternation
        for _, aug, site in _collect_sites("push", 500):
            out, record = type_ii_push(aug, site)
            assert is_alternating(out.diagram)
            # the pushed strand passes over at exactly one new crossing
            assert record.over_axes[0] != record.over_axes[1]
            c1, c2 = record.new_crossings
            for toggled in ((c1,), (c2,), (c1, c2)):
                d = out.diagram
                for cid in toggled:
                    d = toggle_over_axis(d, cid)
                assert not is_alternating(d)
