"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; under plain ``pytest -v`` each criterion shows up as one PASSED or
FAILED row instead.
"""

import dataclasses
import random
import time
from contextlib import contextmanager

import pytest

from alternator.augment import augment_regions
from alternator.cli import main
from alternator.codec import emit_pd, parse_pd
from alternator.diagram import (
    Tag,
    is_alternating,
    non_alternating_edges,
    trace_faces,
)
from alternator.errors import NoAlternatingAssignment
from alternator.gen import braid_closure, enumerate_diagrams, random_diagram
from alternator.merge import full_pipeline_with_stats
from alternator.moves import type_i_merge, type_ii_push
from alternator.verify import verify

from conftest import (
    FLIPPED_TREFOIL,
    GRANNY,
    WORD_8_19,
    WORD_8_20,
    WORD_8_21,
    alternation_violated,
    face_nonalt_signs,
    flip_tag,
    harvest_type_i_sites,
    harvest_type_ii_sites,
    toggle_over_axis,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


@pytest.fixture(scope="module")
def exhaustive_universe():
    return list(enumerate_diagrams(3, 6))


@pytest.fixture(scope="module")
def random_corpus():
    return [random_diagram(4, 30, seed) for seed in range(1000)]


def test_criterion_1_region_alternation(exhaustive_universe, random_corpus):
    with criterion("region alternation on exhaustive + random corpus"):
        start = time.monotonic()
        violations = 0
        for d in exhaustive_universe + random_corpus:
            for face in trace_faces(d):
                signs = face_nonalt_signs(d, face)
                if alternation_violated(signs):
                    violations += 1
                plus = sum(1 for s in signs if s.value == "+")
                if plus * 2 != len(signs):
                    violations += 1
        elapsed = time.monotonic() - start
        assert violations == 0
        assert len(exhaustive_universe) == 5208
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_augmentation(exhaustive_universe, random_corpus):
    with criterion("augmentation alternates with exact crossing count"):
        for d in exhaustive_universe + random_corpus:
            aug = augment_regions(d)
            assert is_alternating(aug.diagram)
            assert (
                aug.diagram.num_crossings
                == d.num_crossings + len(non_alternating_edges(d))
            )


def _collect_sites(kind, want):
    """Deterministically sample move sites across the seeded corpus."""
    rng = random.Random(20_000 + want)
    collected = []
    seed = 0
    while len(collected) < want and seed < 3000:
        d = random_diagram(2 + seed % 3, 10 + seed % 15, seed)
        seed += 1
        if is_alternating(d):
            continue
        aug = augment_regions(d)
        sites = (
            harvest_type_i_sites(aug)
            if kind == "merge"
            else harvest_type_ii_sites(aug)
        )
        if not sites:
            continue
        for site in rng.sample(sites, min(len(sites), 3)):
            if len(collected) < want:
                collected.append((d, aug, site))
    return collected


def test_criterion_3_moves_preserve_alternation():
    from alternator.verify import restriction

    with criterion("500 band merges and 500 finger pushes stay alternating"):
        merge_sites = _collect_sites("merge", 500)
        push_sites = _collect_sites("push", 500)
        assert len(merge_sites) == 500
        assert len(push_sites) == 500
        assignment_failures = 0
        for d, aug, site in merge_sites:
            out = type_i_merge(aug, site)
            assert is_alternating(out.diagram)
            assert out.diagram.euler_characteristic() == 2
            assert restriction(out) == d
            assert out.circle_count == aug.circle_count - 1
        for d, aug, site in push_sites:
            try:
                out, _ = type_ii_push(aug, site)
            except NoAlternatingAssignment:
                assignment_failures += 1
                continue
            assert is_alternating(out.diagram)
            assert out.diagram.euler_characteristic() == 2
            assert restriction(out) == d
            assert out.circle_count == aug.circle_count
        assert assignment_failures == 0


def _augment_cross_count(diagram):
    return sum(
        1
        for c in diagram.crossings.values()
        if all(
            diagram.edges[diagram.edge_of(x)].tag is Tag.AUGMENT
            for x in c.rotation
        )
    )


def test_criterion_4_single_component(exhaustive_universe, random_corpus):
    with criterion("pipeline yields one verified circle on every input"):
        fixtures = [
            parse_pd(FLIPPED_TREFOIL),
            parse_pd(GRANNY),
            braid_closure(WORD_8_19),
            braid_closure(WORD_8_20),
            braid_closure(WORD_8_21),
        ]
        for d in exhaustive_universe + random_corpus + fixtures:
            if is_alternating(d):
                continue
            start = time.monotonic()
            out, stats = full_pipeline_with_stats(d)
            elapsed = time.monotonic() - start
            report = verify(d, out, 1, pushes=stats.pushes)
            assert report.passed, (emit_pd(d), report)
            assert _augment_cross_count(out.diagram) == 0
            assert (
                out.diagram.num_crossings
                == d.num_crossings
                + len(non_alternating_edges(d))
                + 2 * stats.pushes
            )
            if d.num_crossings <= 100:
                assert elapsed < 1.0, f"{elapsed:.2f}s on {emit_pd(d)}"


def test_criterion_5_tamper_detection():
    with criterion("100 single mutations all caught by the checker"):
        rng = random.Random(50_000)
        cases = 0
        seed = 0
        while cases < 100:
            d = random_diagram(3, 12 + seed % 9, seed)
            seed += 1
            if is_alternating(d):
                continue
            out, stats = full_pipeline_with_stats(d)
            assert verify(d, out, 1, pushes=stats.pushes).passed
            if rng.random() < 0.5:
                cid = rng.choice(sorted(out.diagram.crossings))
                bad = toggle_over_axis(out.diagram, cid)
            else:
                eid = rng.choice(sorted(out.diagram.edges))
                bad = flip_tag(out.diagram, eid)
            tampered = dataclasses.replace(out, diagram=bad)
            report = verify(d, tampered, 1, pushes=stats.pushes)
            assert not report.passed
            cases += 1


def test_criterion_6_determinism(tmp_path, capsys):
    with criterion("byte-identical reruns of run and gen"):
        src = tmp_path / "in.pd"
        src.write_text(FLIPPED_TREFOIL + "\n")
        outputs = []
        for _ in range(2):
            assert main(["run", str(src), "--verify", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

        gens = []
        for _ in range(2):
            assert main(
                ["gen", "--strands", "4", "--length", "20",
                 "--count", "25", "--seed", "123"]
            ) == 0
            gens.append(capsys.readouterr().out)
        assert gens[0] == gens[1]
        assert len(gens[0].strip().splitlines()) == 25
