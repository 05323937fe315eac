import dataclasses

import pytest

from alternator.augment import augment_regions, from_parsed
from alternator.codec import emit_pd, parse_pd
from alternator.errors import DegreeViolation
from alternator.gen import random_diagram
from alternator.merge import full_pipeline_with_stats
from alternator.verify import restriction, verify

from conftest import flip_tag, toggle_over_axis


def replace_diagram(aug, diagram):
    return dataclasses.replace(aug, diagram=diagram)


class TestRestriction:
    def test_identity_without_augment_edges(self, trefoil):
        aug = augment_regions(trefoil)
        assert restriction(aug) == trefoil

    def test_inverts_augmentation(self):
        for seed in range(30):
            d = random_diagram(2 + seed % 3, 9 + seed % 8, seed)
            assert restriction(augment_regions(d)) == d

    def test_inverts_full_pipeline(self):
        for seed in range(30):
            d = random_diagram(2 + seed % 3, 9 + seed % 8, seed)
            assert restriction(full_pipeline_with_stats(d)[0]) == d

    def test_degree_violation_on_tampered_tag(self, granny):
        aug = augment_regions(granny)
        arc = aug.circles[0].edges[0]
        bad = replace_diagram(aug, flip_tag(aug.diagram, arc))
        with pytest.raises(DegreeViolation):
            restriction(bad)

    def test_without_provenance_uses_fresh_ids(self, flipped_trefoil):
        out, _ = full_pipeline_with_stats(flipped_trefoil)
        reparsed = from_parsed(parse_pd(emit_pd(out.diagram)))
        r = restriction(reparsed)
        assert r.num_crossings == flipped_trefoil.num_crossings
        assert sorted(r.edges) == list(range(1, r.num_edges + 1))


class TestVerify:
    def test_pipeline_output_passes(self, flipped_trefoil):
        out, stats = full_pipeline_with_stats(flipped_trefoil)
        report = verify(flipped_trefoil, out, 1, pushes=stats.pushes)
        assert report.passed
        assert report.circle_count == 1
        assert report.details["inferred_pushes"] == stats.pushes

    def test_augment_only_passes(self, granny):
        aug = augment_regions(granny)
        report = verify(granny, aug, aug.circle_count, pushes=0)
        assert report.passed

    def test_wrong_expected_circles_fails(self, flipped_trefoil):
        out, _ = full_pipeline_with_stats(flipped_trefoil)
        report = verify(flipped_trefoil, out, 2)
        assert not report.passed
        assert report.circle_count == 1

    def test_toggled_over_axis_detected(self, flipped_trefoil):
        out, _ = full_pipeline_with_stats(flipped_trefoil)
        for cid in out.diagram.crossings:
            bad = replace_diagram(
                out, toggle_over_axis(out.diagram, cid)
            )
            report = verify(flipped_trefoil, bad, 1)
            assert not report.passed, f"crossing {cid} toggle went unnoticed"
            assert not (report.alternating and report.restriction_ok)

    def test_flipped_tag_detected(self, flipped_trefoil):
        out, _ = full_pipeline_with_stats(flipped_trefoil)
        for eid in out.diagram.edges:
            bad = replace_diagram(out, flip_tag(out.diagram, eid))
            report = verify(flipped_trefoil, bad, 1)
            assert not report.passed, f"edge {eid} tag flip went unnoticed"

    def test_never_raises_on_tampered_input(self, flipped_trefoil):
        out, _ = full_pipeline_with_stats(flipped_trefoil)
        for eid in out.diagram.edges:
            bad = replace_diagram(out, flip_tag(out.diagram, eid))
            verify(flipped_trefoil, bad, 1)  # must not throw

    def test_verify_from_text_round_trip(self, flipped_trefoil):
        # parsing the emitted result loses provenance; canonical comparison
        # still certifies the restriction
        out, _ = full_pipeline_with_stats(flipped_trefoil)
        reparsed = from_parsed(parse_pd(emit_pd(out.diagram)))
        report = verify(flipped_trefoil, reparsed, 1)
        assert report.passed

    def test_alternating_original_with_empty_augmentation(self, trefoil):
        aug = augment_regions(trefoil)
        report = verify(trefoil, aug, 0)
        assert report.passed
        assert report.circle_count == 0

    def test_accounting_requires_even_surplus(self, flipped_trefoil):
        out, stats = full_pipeline_with_stats(flipped_trefoil)
        report = verify(flipped_trefoil, out, 1, pushes=stats.pushes + 1)
        assert not report.crossing_accounting_ok
