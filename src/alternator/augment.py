"""Augmentation: make a connected projection alternating by interweaving
unknotted circles.

Every non-alternating edge gains a midpoint crossing.  Inside each region,
the non-alternating edge incidences are visited in boundary order; their
signs alternate strictly (checked, never assumed), and consecutive pairs
are joined by an augmenting arc drawn through that region.  The arcs close
up into disjoint simple circles.  At a midpoint the augmenting strand
passes over when the bisected edge was positive non-alternating and under
when it was negative, which is exactly what restores alternation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagram as dgm
from .diagram import Crossing, Diagram, Edge, EdgeClass, Face, Sign, Tag
from .errors import (
    CircleNotSimple,
    NonPlanar,
    PlanarityBroken,
    RegionAlternationViolated,
)


@dataclass(frozen=True)
class Circle:
    """A closed walk of augmenting edges; simple and disjoint in projection."""

    id: int
    darts: tuple[int, ...]  # strand walk, dart/twin alternating
    edges: tuple[int, ...]  # edge ids in walk order


@dataclass(frozen=True)
class AugmentedDiagram:
    """A diagram together with its augmenting circles and edge provenance.

    ``provenance`` maps original-tagged edge ids back to edge ids of the
    diagram the augmentation started from; it is ``None`` for diagrams
    reconstructed from text, where no lineage exists.
    """

    diagram: Diagram
    circles: tuple[Circle, ...]
    provenance: dict[int, int] | None

    @property
    def circle_count(self) -> int:
        return len(self.circles)


def compute_circles(diagram: Diagram) -> tuple[Circle, ...]:
    """Circles recomputed from the augment-tagged strand walks.

    Raises :class:`CircleNotSimple` when two augmenting strands cross or
    when an augmenting strand runs into an original edge, both of which
    signal a defective rewrite.
    """
    for c in diagram.crossings.values():
        tags = [diagram.edges[diagram.edge_of(d)].tag for d in c.rotation]
        if tags[0] is not tags[2] or tags[1] is not tags[3]:
            raise CircleNotSimple(
                f"strand changes tag through crossing {c.id}"
            )
        if all(t is Tag.AUGMENT for t in tags):
            raise CircleNotSimple(
                f"two augmenting strands cross at crossing {c.id}"
            )
    walks = dgm.strand_components(diagram, Tag.AUGMENT)
    return tuple(
        Circle(id=i, darts=w, edges=dgm.walk_edges(diagram, w))
        for i, w in enumerate(walks)
    )


def make_augmented(
    diagram: Diagram, provenance: dict[int, int] | None
) -> AugmentedDiagram:
    """Bundle a diagram with freshly computed circles."""
    return AugmentedDiagram(
        diagram=diagram, circles=compute_circles(diagram), provenance=provenance
    )


def from_parsed(diagram: Diagram) -> AugmentedDiagram:
    """Wrap a tag-carrying diagram that has no recorded lineage."""
    return make_augmented(diagram, provenance=None)


def region_incidences(diagram: Diagram, face: Face) -> list[tuple[int, Sign]]:
    """Non-alternating edge incidences of a face, in boundary cyclic order.

    Each entry is (dart, common end sign of its edge).  The signs must
    strictly alternate around the face with equal counts of each; a
    violation means the labelling itself is broken and raises
    :class:`RegionAlternationViolated`.
    """
    classes = dgm.classify_edges(diagram)
    out: list[tuple[int, Sign]] = []
    for dart in face.darts:
        pair = classes[diagram.edge_of(dart)]
        sign = pair.non_alternating_sign
        if sign is not None:
            out.append((dart, sign))
    if out:
        if len(out) % 2 != 0:
            raise RegionAlternationViolated(
                f"face {face.id} has {len(out)} non-alternating incidences"
            )
        for (_, s1), (_, s2) in zip(out, out[1:] + out[:1]):
            if s1 is s2:
                raise RegionAlternationViolated(
                    f"consecutive incidences of face {face.id} share sign {s1.value}"
                )
    return out


def augment_regions(diagram: Diagram) -> AugmentedDiagram:
    """Insert midpoints and region arcs until the projection alternates.

    Alternating input passes through unchanged with zero circles.  The
    output has one extra crossing per non-alternating input edge, and
    deleting the augmenting edges recovers the input exactly.
    """
    provenance = {
        eid: eid for eid, e in diagram.edges.items() if e.tag is Tag.ORIGINAL
    }
    classes = dgm.classify_edges(diagram)
    nonalt = [
        eid
        for eid in sorted(diagram.edges)
        if classes[eid].classification is not EdgeClass.ALTERNATING
    ]
    if not nonalt:
        return make_augmented(diagram, provenance)

    faces = dgm.trace_faces(diagram)
    # fix the arc plan on the old diagram before any surgery: incidences in
    # canonical boundary order, paired (1st,2nd), (3rd,4th), ...
    arc_plan: list[tuple[int, int]] = []
    for face in faces:
        inc = region_incidences(diagram, face)
        for i in range(0, len(inc), 2):
            arc_plan.append((inc[i][0], inc[i + 1][0]))

    crossings = dict(diagram.crossings)
    edges = dict(diagram.edges)
    next_c = diagram.max_crossing_id() + 1
    next_d = diagram.max_dart_id() + 1
    next_e = diagram.max_edge_id() + 1

    # arc attachment slot at the midpoint, keyed by the incidence dart of
    # the split edge: the slot right after the dart's own twin slot keeps
    # the new arc inside the dart's face orbit
    arc_slot: dict[int, int] = {}
    for eid in nonalt:
        edge = edges.pop(eid)
        a, b = edge.darts
        m_a, u_a, m_b, u_b = next_d, next_d + 1, next_d + 2, next_d + 3
        next_d += 4
        over_axis = (
            1
            if classes[eid].non_alternating_sign is Sign.PLUS
            else 0
        )
        crossings[next_c] = Crossing(
            id=next_c, rotation=(m_a, u_a, m_b, u_b), over_axis=over_axis
        )
        next_c += 1
        provenance.pop(eid, None)
        for dart, mid in ((a, m_a), (b, m_b)):
            edges[next_e] = Edge(
                id=next_e, darts=tuple(sorted((dart, mid))), tag=edge.tag
            )
            if edge.tag is Tag.ORIGINAL:
                provenance[next_e] = eid
            next_e += 1
        arc_slot[a] = u_a
        arc_slot[b] = u_b

    for x, y in arc_plan:
        edges[next_e] = Edge(
            id=next_e,
            darts=tuple(sorted((arc_slot[x], arc_slot[y]))),
            tag=Tag.AUGMENT,
        )
        next_e += 1

    try:
        out = Diagram(crossings=crossings, edges=edges)
    except NonPlanar as exc:
        raise PlanarityBroken(f"augmentation broke the sphere: {exc}") from exc
    if not dgm.is_alternating(out):
        raise RegionAlternationViolated(
            "augmented diagram failed to alternate; labelling convention bug"
        )
    return make_augmented(out, provenance)
