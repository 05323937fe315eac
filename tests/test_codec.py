import json

import pytest

from alternator.augment import augment_regions
from alternator.codec import (
    canonical_pd,
    diagram_from_json,
    emit_json,
    emit_pd,
    parse_pd,
    parse_pd_code,
)
from alternator.diagram import Tag, is_alternating, non_alternating_edges
from alternator.errors import PdSyntaxError
from alternator.gen import random_diagram
from alternator.merge import full_pipeline_with_stats
from alternator.verify import verify

from conftest import FLIPPED_TREFOIL, TREFOIL


class TestParse:
    def test_trefoil(self):
        d = parse_pd(TREFOIL)
        assert d.num_crossings == 3
        assert is_alternating(d)

    def test_flipped_trefoil(self):
        d = parse_pd(FLIPPED_TREFOIL)
        assert len(non_alternating_edges(d)) == 4

    def test_arity_in_tuple(self):
        with pytest.raises(PdSyntaxError):
            parse_pd("X[1,2,3]")

    def test_error_location(self):
        with pytest.raises(PdSyntaxError) as exc:
            parse_pd("X[1,4,2,5]\nX[3,6,4")
        assert exc.value.line == 2

    def test_garbage(self):
        with pytest.raises(PdSyntaxError):
            parse_pd("hello")

    def test_empty(self):
        with pytest.raises(PdSyntaxError):
            parse_pd("   ")

    def test_whitespace_and_commas_between_crossings(self):
        d = parse_pd("X[1,4,2,5],\n  X[3,6,4,1] ,X[5,2,6,3]")
        assert d.num_crossings == 3

    def test_annotation_block_tags_edges(self):
        text = "X[2, 1, 3, 4] X[4, 3, 1, 2] A{1, 2}"
        d = parse_pd(text)
        tags = {eid: e.tag for eid, e in d.edges.items()}
        assert tags[1] is Tag.AUGMENT
        assert tags[2] is Tag.AUGMENT
        assert tags[3] is Tag.ORIGINAL

    def test_annotation_must_be_last(self):
        with pytest.raises(PdSyntaxError):
            parse_pd("A{1} X[2,1,3,4] X[4,3,1,2]")


class TestEmit:
    def test_trefoil_shape(self):
        text = emit_pd(parse_pd(TREFOIL))
        assert text.count("X[") == 3
        assert text.endswith("A{}")

    def test_round_trip_plain(self):
        d = parse_pd(TREFOIL)
        again = parse_pd(emit_pd(d))
        assert canonical_pd(again) == canonical_pd(d)

    def test_round_trip_with_tags(self):
        out, _ = full_pipeline_with_stats(parse_pd(FLIPPED_TREFOIL))
        text = emit_pd(out.diagram)
        again = parse_pd(text)
        assert canonical_pd(again) == canonical_pd(out.diagram)
        n_aug = sum(1 for e in again.edges.values() if e.tag is Tag.AUGMENT)
        assert n_aug == sum(
            1 for e in out.diagram.edges.values() if e.tag is Tag.AUGMENT
        )

    def test_pipeline_output_names_one_circle(self):
        out, _ = full_pipeline_with_stats(parse_pd(FLIPPED_TREFOIL))
        code = parse_pd_code(emit_pd(out.diagram))
        assert code.augment_labels  # non-empty A block
        # the named labels form a single closed augmenting walk
        from alternator.diagram import strand_components

        again = parse_pd(code.to_text())
        assert len(strand_components(again, Tag.AUGMENT)) == 1

    def test_labels_are_one_to_two_n(self):
        for seed in range(5):
            d = random_diagram(3, 9, seed)
            code = parse_pd_code(emit_pd(d))
            labels = sorted(x for t in code.crossings for x in t)
            n = len(code.crossings)
            assert labels == sorted(list(range(1, 2 * n + 1)) * 2)

    def test_emission_deterministic(self):
        d1 = random_diagram(3, 11, 5)
        d2 = random_diagram(3, 11, 5)
        assert emit_pd(d1) == emit_pd(d2)

    def test_reparse_preserves_canonical_form(self):
        for seed in range(5):
            d = random_diagram(3, 9, seed)
            assert canonical_pd(parse_pd(emit_pd(d))) == canonical_pd(d)


class TestCanonical:
    def test_invariant_under_relabelling(self):
        # same diagram entered with crossings in a different order
        a = parse_pd(TREFOIL)
        b = parse_pd("X[5,2,6,3] X[1,4,2,5] X[3,6,4,1]")
        assert canonical_pd(a) == canonical_pd(b)

    def test_invariant_under_tuple_rotation_by_two(self):
        a = parse_pd("X[2,1,3,4] X[4,3,1,2]")
        b = parse_pd("X[3,4,2,1] X[4,3,1,2]")
        assert canonical_pd(a) == canonical_pd(b)

    def test_distinguishes_over_under(self, trefoil, flipped_trefoil):
        assert canonical_pd(trefoil) != canonical_pd(flipped_trefoil)


class TestJson:
    def test_trefoil_document(self, trefoil):
        doc = json.loads(emit_json(trefoil))
        assert doc["format"] == "alternator/1"
        assert len(doc["crossings"]) == 3
        assert len(doc["edges"]) == 6
        assert len(doc["faces"]) == 5
        assert "report" not in doc

    def test_round_trip(self, granny):
        aug = augment_regions(granny)
        text = emit_json(aug.diagram)
        back = diagram_from_json(text)
        assert back == aug.diagram
        assert emit_json(back) == text

    def test_report_embedding(self, flipped_trefoil):
        out, _ = full_pipeline_with_stats(flipped_trefoil)
        report = verify(flipped_trefoil, out, 1)
        doc = json.loads(emit_json(out.diagram, report))
        assert doc["report"]["passed"] is True
        assert doc["report"]["circle_count"] == 1

    def test_circles_in_document(self, granny):
        aug = augment_regions(granny)
        doc = json.loads(emit_json(aug.diagram))
        assert len(doc["circles"]) == 1
        assert len(doc["circles"][0]["edges"]) == 2
