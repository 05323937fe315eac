import pytest

from alternator.augment import augment_regions
from alternator.diagram import Tag, is_alternating, trace_faces
from alternator.gen import braid_closure, random_diagram
from alternator.merge import (
    components,
    find_dual_path,
    full_pipeline_with_stats,
    merge_once_with_stats,
)
from alternator.verify import restriction, verify

from conftest import WORD_8_19, WORD_8_20, WORD_8_21


def multi_circle_augs(n, min_circles=2):
    found = 0
    seed = 0
    while found < n and seed < 500:
        d = random_diagram(2 + seed % 3, 10 + seed % 13, seed)
        seed += 1
        if is_alternating(d):
            continue
        aug = augment_regions(d)
        if aug.circle_count >= min_circles:
            found += 1
            yield d, aug


class TestComponents:
    def test_no_circles_single_component(self, trefoil):
        aug = augment_regions(trefoil)
        comps = components(aug)
        assert len(comps) == 1
        assert comps[0].faces == frozenset(
            f.id for f in trace_faces(aug.diagram)
        )

    def test_granny_two_components(self, granny):
        aug = augment_regions(granny)
        assert aug.circle_count == 1
        comps = components(aug)
        assert len(comps) == 2
        for comp in comps:
            assert comp.boundary_circles == (0,)

    def test_some_component_sees_two_circles(self):
        for _, aug in multi_circle_augs(15):
            comps = components(aug)
            assert any(len(c.boundary_circles) >= 2 for c in comps)

    def test_circle_count_vs_component_count(self):
        # n disjoint circles cut the sphere into n + 1 components
        for _, aug in multi_circle_augs(15, min_circles=1):
            assert len(components(aug)) == aug.circle_count + 1


class TestFindDualPath:
    def _setup(self, aug):
        comps = components(aug)
        comp = next(c for c in comps if len(c.boundary_circles) >= 2)
        ci, cj = comp.boundary_circles[:2]
        return comp, ci, cj

    def test_path_endpoints_touch_circles(self):
        for _, aug in multi_circle_augs(10):
            comp, ci, cj = self._setup(aug)
            path = find_dual_path(aug, comp, ci, cj)
            assert len(path.faces) == len(path.steps) + 1
            circles = {c.id: c for c in aug.circles}
            d = aug.diagram
            first, last = path.faces[0], path.faces[-1]
            f_darts = trace_faces(d)[first].darts
            l_darts = trace_faces(d)[last].darts
            assert any(d.edge_of(x) in set(circles[ci].edges) for x in f_darts)
            assert any(d.edge_of(x) in set(circles[cj].edges) for x in l_darts)

    def test_steps_cross_shared_original_edges(self):
        for _, aug in multi_circle_augs(10):
            comp, ci, cj = self._setup(aug)
            path = find_dual_path(aug, comp, ci, cj)
            d = aug.diagram
            for i, dart in enumerate(path.steps):
                assert d.edges[d.edge_of(dart)].tag is Tag.ORIGINAL
                assert d.face_of(dart) == path.faces[i]
                assert d.face_of(d.twin(dart)) == path.faces[i + 1]

    def test_empty_path_when_sharing_a_face(self, doubled_granny):
        aug = augment_regions(doubled_granny)
        comp, ci, cj = self._setup(aug)
        path = find_dual_path(aug, comp, ci, cj)
        assert path.steps == ()
        assert len(path.faces) == 1

    def test_path_is_shortest(self):
        # oracle: breadth-first over an adjacency map built edge-wise,
        # independent of the face-orbit walk used by the implementation
        from collections import deque

        for _, aug in multi_circle_augs(10):
            comp, ci, cj = self._setup(aug)
            d = aug.diagram
            adjacency: dict[int, set[int]] = {}
            for e in d.edges.values():
                if e.tag is not Tag.ORIGINAL:
                    continue
                fa, fb = (d.face_of(x) for x in e.darts)
                adjacency.setdefault(fa, set()).add(fb)
                adjacency.setdefault(fb, set()).add(fa)
            circles = {c.id: c for c in aug.circles}

            def faces_touching(circle_id):
                return {
                    d.face_of(x) for x in circles[circle_id].darts
                }

            srcs, tgts = faces_touching(ci), faces_touching(cj)
            dist = {f: 0 for f in srcs}
            queue = deque(srcs)
            best = 0 if srcs & tgts else None
            while queue and best is None:
                f = queue.popleft()
                for g in adjacency.get(f, ()):
                    if g not in dist:
                        dist[g] = dist[f] + 1
                        if g in tgts:
                            best = dist[g]
                            break
                        queue.append(g)
            path = find_dual_path(aug, comp, ci, cj)
            assert len(path.steps) == best

    def test_rejects_circle_off_component(self):
        for _, aug in multi_circle_augs(1):
            comps = components(aug)
            comp = next(c for c in comps if len(c.boundary_circles) >= 2)
            outside = next(
                (c.id for c in aug.circles
                 if c.id not in comp.boundary_circles),
                None,
            )
            if outside is None:
                return
            with pytest.raises(ValueError):
                find_dual_path(aug, comp, comp.boundary_circles[0], outside)


class TestMergeOnce:
    def test_shared_face_needs_no_push(self, doubled_granny):
        aug = augment_regions(doubled_granny)
        out, pushes = merge_once_with_stats(aug)
        assert pushes == 0
        assert out.circle_count == aug.circle_count - 1
        assert out.diagram.num_crossings == aug.diagram.num_crossings

    def test_always_drops_one_circle(self):
        for d, aug in multi_circle_augs(20):
            out, pushes = merge_once_with_stats(aug)
            assert out.circle_count == aug.circle_count - 1
            assert is_alternating(out.diagram)
            assert restriction(out) == d
            assert (
                out.diagram.num_crossings
                == aug.diagram.num_crossings + 2 * pushes
            )

    def test_pushes_bounded_by_dual_distance(self):
        for _, aug in multi_circle_augs(20):
            comps = components(aug)
            comp = next(c for c in comps if len(c.boundary_circles) >= 2)
            ci, cj = comp.boundary_circles[:2]
            k = len(find_dual_path(aug, comp, ci, cj))
            _, pushes = merge_once_with_stats(aug)
            assert pushes <= k

    def test_rejects_fewer_than_two_circles(self, granny):
        aug = augment_regions(granny)
        with pytest.raises(ValueError):
            merge_once_with_stats(aug)


class TestMergeAll:
    def test_identity_without_circles(self, trefoil):
        aug = augment_regions(trefoil)
        out, stats = full_pipeline_with_stats(trefoil)
        assert out.diagram == aug.diagram
        assert stats.merges == 0

    def test_identity_with_one_circle(self, granny):
        aug = augment_regions(granny)
        out, stats = full_pipeline_with_stats(granny)
        assert out.diagram == aug.diagram
        assert stats.merges == 0

    def test_reaches_one_circle(self):
        for d, aug in multi_circle_augs(20):
            out, _ = full_pipeline_with_stats(d)
            assert out.circle_count == 1
            assert is_alternating(out.diagram)
            assert restriction(out) == d


class TestFullPipeline:
    def test_alternating_passthrough(self, trefoil):
        out, _ = full_pipeline_with_stats(trefoil)
        assert out.diagram == trefoil
        assert out.circle_count == 0

    def test_flipped_trefoil_golden(self, flipped_trefoil):
        out, stats = full_pipeline_with_stats(flipped_trefoil)
        assert out.circle_count == 1
        assert is_alternating(out.diagram)
        # golden values for this fixture: the single circle appears at the
        # augmentation stage, so no pushes and no band merges happen
        assert stats.pushes == 0
        assert stats.merges == 0
        assert out.diagram.num_crossings == 7 + 2 * stats.pushes

    def test_eight_crossing_knots(self):
        for word in (WORD_8_19, WORD_8_20, WORD_8_21):
            d = braid_closure(word)
            assert not is_alternating(d)
            out, stats = full_pipeline_with_stats(d)
            report = verify(d, out, 1, pushes=stats.pushes)
            assert report.passed, report

    def test_crossing_accounting(self):
        from alternator.diagram import non_alternating_edges

        for seed in range(40):
            d = random_diagram(3, 14, seed)
            if is_alternating(d):
                continue
            out, stats = full_pipeline_with_stats(d)
            assert (
                out.diagram.num_crossings
                == d.num_crossings
                + len(non_alternating_edges(d))
                + 2 * stats.pushes
            )

    def test_merges_equal_initial_circles_minus_one(self):
        for d, aug in multi_circle_augs(15):
            _, stats = full_pipeline_with_stats(d)
            assert stats.merges == aug.circle_count - 1
