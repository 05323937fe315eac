"""Alternation-preserving rewrites of augmented diagrams.

Two moves act on arcs that share a face:

* ``type_i_merge`` deletes one arc from each of two distinct circles and
  reconnects the four loose ends crossing-free inside the face, connect
  summing the circles.  With the face boundary passing the arcs as
  p1-p2 ... q1-q2, the ends are rejoined p2-q1 and p1-q2, the unique
  non-crossing pattern.  No crossing is created or removed.

* ``type_ii_push`` pushes the middle of a circle arc across one other edge
  of the face, creating two new crossings where they meet; the middle
  segment comes to lie on the far side of the crossed edge.  The over/under
  choice at the two new crossings is forced: each outer piece of the pushed
  arc must alternate with the untouched end it keeps, which fixes one
  crossing each.  The six new edges are then checked locally, and a
  mismatch raises :class:`NoAlternatingAssignment`.

Both moves preserve the original-edge restriction, the Euler
characteristic, and circle simplicity (the push only when the crossed edge
is original).  Rotation-slot placement is validated by the planarity check
after every move.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagram as dgm
from .augment import AugmentedDiagram, make_augmented
from .diagram import Crossing, Diagram, Edge, Sign, Tag
from .errors import (
    AlternationBroken,
    MoveError,
    NoAlternatingAssignment,
    NonPlanar,
    NotAugmentArc,
    NotSameFace,
    PlanarityBroken,
    SameCircle,
)


@dataclass(frozen=True)
class MoveSite:
    """A face id plus two incidence darts on that face's orbit."""

    face: int
    dart_a: int
    dart_b: int


@dataclass(frozen=True)
class PushRecord:
    arc_parts: tuple[int, int, int]  # pushed arc pieces; middle is [1]
    crossed_parts: tuple[int, int, int]  # crossed edge pieces
    new_crossings: tuple[int, int]
    over_axes: tuple[int, int]


def _site_darts(aug: AugmentedDiagram, site: MoveSite) -> None:
    d = aug.diagram
    faces = dgm.trace_faces(d)
    if not 0 <= site.face < len(faces):
        raise NotSameFace(f"no face with id {site.face}")
    orbit = faces[site.face].darts
    for dart in (site.dart_a, site.dart_b):
        if dart not in orbit:
            raise NotSameFace(f"dart {dart} not on face {site.face}")


def _circle_of_edge(aug: AugmentedDiagram) -> dict[int, int]:
    table = {}
    for circle in aug.circles:
        for eid in circle.edges:
            table[eid] = circle.id
    return table


def type_i_merge(aug: AugmentedDiagram, site: MoveSite) -> AugmentedDiagram:
    """Band connect-sum of two circles through a shared face."""
    d = aug.diagram
    _site_darts(aug, site)
    a, b = site.dart_a, site.dart_b
    ea, eb = d.edge_of(a), d.edge_of(b)
    for eid in (ea, eb):
        if d.edges[eid].tag is not Tag.AUGMENT:
            raise NotAugmentArc(f"edge {eid} is not an augmenting edge")
    circle_of = _circle_of_edge(aug)
    if ea == eb or circle_of[ea] == circle_of[eb]:
        raise SameCircle("band merge needs arcs of two distinct circles")

    ta, tb = d.twin(a), d.twin(b)
    edges = dict(d.edges)
    del edges[ea]
    del edges[eb]
    e1 = d.max_edge_id() + 1
    e2 = e1 + 1
    edges[e1] = Edge(id=e1, darts=tuple(sorted((ta, b))), tag=Tag.AUGMENT)
    edges[e2] = Edge(id=e2, darts=tuple(sorted((a, tb))), tag=Tag.AUGMENT)

    was_alternating = dgm.is_alternating(d)
    try:
        out = Diagram(crossings=dict(d.crossings), edges=edges)
    except NonPlanar as exc:
        raise PlanarityBroken(f"band merge broke the sphere: {exc}") from exc
    if was_alternating and not dgm.is_alternating(out):
        raise AlternationBroken("band merge destroyed alternation")
    return make_augmented(out, aug.provenance)


def type_ii_push(
    aug: AugmentedDiagram, site: MoveSite
) -> tuple[AugmentedDiagram, PushRecord]:
    """Finger push of a circle arc across one other edge of the face."""
    d = aug.diagram
    _site_darts(aug, site)
    p, q = site.dart_a, site.dart_b
    e_arc, e_crossed = d.edge_of(p), d.edge_of(q)
    if d.edges[e_arc].tag is not Tag.AUGMENT:
        raise NotAugmentArc(f"edge {e_arc} is not an augmenting edge")
    if e_arc == e_crossed:
        raise MoveError("cannot push an arc across its own edge")
    p2, q2 = d.twin(p), d.twin(q)
    crossed_tag = d.edges[e_crossed].tag

    base = d.max_dart_id() + 1
    x1 = tuple(range(base, base + 4))  # slots 0..3 of the first new crossing
    x2 = tuple(range(base + 4, base + 8))
    c1 = d.max_crossing_id() + 1
    c2 = c1 + 1
    eid = d.max_edge_id()
    arc1, arc2, arc3 = eid + 1, eid + 2, eid + 3
    cr1, cr2, cr3 = eid + 4, eid + 5, eid + 6

    # the pushed strand occupies slots 1 and 3 at both new crossings, the
    # crossed edge slots 0 and 2; slot 0 of the first crossing points back
    # along the crossed edge toward q's endpoint
    edges = dict(d.edges)
    del edges[e_arc]
    del edges[e_crossed]
    edges[arc1] = Edge(id=arc1, darts=tuple(sorted((p, x2[1]))), tag=Tag.AUGMENT)
    edges[arc2] = Edge(id=arc2, darts=tuple(sorted((x2[3], x1[3]))), tag=Tag.AUGMENT)
    edges[arc3] = Edge(id=arc3, darts=tuple(sorted((x1[1], p2))), tag=Tag.AUGMENT)
    edges[cr1] = Edge(id=cr1, darts=tuple(sorted((q, x1[0]))), tag=crossed_tag)
    edges[cr2] = Edge(id=cr2, darts=tuple(sorted((x1[2], x2[0]))), tag=crossed_tag)
    edges[cr3] = Edge(id=cr3, darts=tuple(sorted((x2[2], q2))), tag=crossed_tag)

    provenance = dict(aug.provenance) if aug.provenance is not None else None
    if provenance is not None and crossed_tag is Tag.ORIGINAL:
        lineage = provenance.pop(e_crossed)
        for piece in (cr1, cr2, cr3):
            provenance[piece] = lineage

    # arc3 ends at slot 1 of the first new crossing and arc1 at slot 1 of
    # the second; alternation along those two edges forces both axes
    label = {dart: dgm.end_label(d, dart) for dart in (p, p2, q, q2)}
    chosen = (int(label[p2] is Sign.MINUS), int(label[p] is Sign.MINUS))
    for slot in range(4):
        label[x1[slot]] = Sign.PLUS if slot % 2 == chosen[0] else Sign.MINUS
        label[x2[slot]] = Sign.PLUS if slot % 2 == chosen[1] else Sign.MINUS
    for e in (arc1, arc2, arc3, cr1, cr2, cr3):
        s, t = edges[e].darts
        if label[s] is label[t]:
            raise NoAlternatingAssignment(
                "the forced over/under choice at the new crossings does not "
                "restore alternation"
            )

    crossings = dict(d.crossings)
    crossings[c1] = Crossing(id=c1, rotation=x1, over_axis=chosen[0])
    crossings[c2] = Crossing(id=c2, rotation=x2, over_axis=chosen[1])

    was_alternating = dgm.is_alternating(d)
    try:
        out = Diagram(crossings=crossings, edges=edges)
    except NonPlanar as exc:
        raise PlanarityBroken(f"finger push broke the sphere: {exc}") from exc
    if was_alternating and not dgm.is_alternating(out):
        raise AlternationBroken("finger push destroyed alternation")
    record = PushRecord(
        arc_parts=(arc1, arc2, arc3),
        crossed_parts=(cr1, cr2, cr3),
        new_crossings=(c1, c2),
        over_axes=chosen,
    )
    return make_augmented(out, provenance), record
