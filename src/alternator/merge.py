"""Driver that reduces the augmenting circles to a single one.

Faces glued across original edges form the path components of the sphere
minus the circles.  Whenever two or more circles remain, some component has
at least two of them on its boundary (the circle arrangement on a sphere is
a tree); the two least such circles are chosen, the source circle is
propagated toward the target along a shortest dual path by finger pushes,
stopping as soon as the two circles share a face, and a band merge fuses
them.  Each round removes exactly one circle, so the loop terminates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import diagram as dgm
from .augment import AugmentedDiagram, augment_regions
from .diagram import Diagram, Face, Tag
from .errors import InternalInvariantError, NoPath
from .moves import MoveSite, type_i_merge, type_ii_push


@dataclass(frozen=True)
class Component:
    """Faces connected across original edges, with the circles they touch."""

    id: int
    faces: frozenset[int]
    boundary_circles: tuple[int, ...]


@dataclass(frozen=True)
class DualPath:
    """Faces visited and, per step, the dart of the original edge crossed."""

    faces: tuple[int, ...]
    steps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class PipelineStats:
    pushes: int
    merges: int


def components(aug: AugmentedDiagram) -> list[Component]:
    """Union-find over faces, uniting across every original edge."""
    d = aug.diagram
    faces = dgm.trace_faces(d)
    parent = list(range(len(faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in d.edges.values():
        if e.tag is Tag.ORIGINAL:
            a, b = e.darts
            ra, rb = find(d.face_of(a)), find(d.face_of(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for f in range(len(faces)):
        groups.setdefault(find(f), []).append(f)
    roots = sorted(groups, key=lambda r: min(groups[r]))
    comp_of_face = {}
    for i, root in enumerate(roots):
        for f in groups[root]:
            comp_of_face[f] = i

    boundary: dict[int, set[int]] = {i: set() for i in range(len(roots))}
    for circle in aug.circles:
        for dart in circle.darts:
            boundary[comp_of_face[d.face_of(dart)]].add(circle.id)

    comps = [
        Component(
            id=i,
            faces=frozenset(groups[root]),
            boundary_circles=tuple(sorted(boundary[i])),
        )
        for i, root in enumerate(roots)
    ]
    if len(aug.circles) >= 2 and not any(
        len(c.boundary_circles) >= 2 for c in comps
    ):
        from .codec import emit_json  # local import keeps module deps one-way

        raise InternalInvariantError(
            "no component touches two circles although %d circles exist; "
            "offending diagram:\n%s" % (len(aug.circles), emit_json(d))
        )
    return comps


def _touches(d: Diagram, face_darts, edge_set: set[int]) -> bool:
    return any(d.edge_of(dart) in edge_set for dart in face_darts)


def _dual_bfs(
    d: Diagram, faces: list[Face], src_edges: set[int], tgt_edges: set[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shortest face path from circle to circle across original edges.

    Returns (face ids, crossed-edge darts); the least shared face and no
    steps when the circles already share a face.  Neighbor expansion goes by
    smallest dart id, sources by smallest face id, so the result is
    deterministic.
    """
    for face in faces:
        if _touches(d, face.darts, src_edges) and _touches(
            d, face.darts, tgt_edges
        ):
            return (face.id,), ()
    starts = [f.id for f in faces if _touches(d, f.darts, src_edges)]
    targets = {f.id for f in faces if _touches(d, f.darts, tgt_edges)}

    parent: dict[int, tuple[int, int] | None] = {fid: None for fid in starts}
    queue = deque(starts)
    goal = None
    while queue and goal is None:
        fid = queue.popleft()
        for dart in sorted(faces[fid].darts):
            eid = d.edge_of(dart)
            if d.edges[eid].tag is not Tag.ORIGINAL:
                continue
            g = d.face_of(d.twin(dart))
            if g in parent:
                continue
            parent[g] = (fid, dart)
            if g in targets:
                goal = g
                break
            queue.append(g)
    if goal is None:
        raise NoPath("circles not connected across original edges")

    rev_faces = [goal]
    rev_steps = []
    cur = goal
    while parent[cur] is not None:
        fid, dart = parent[cur]
        rev_faces.append(fid)
        rev_steps.append(dart)
        cur = fid
    return tuple(reversed(rev_faces)), tuple(reversed(rev_steps))


def find_dual_path(
    aug: AugmentedDiagram,
    component: Component,
    source_circle: int,
    target_circle: int,
) -> DualPath:
    """Shortest transverse path between two boundary circles of a component."""
    for cid in (source_circle, target_circle):
        if cid not in component.boundary_circles:
            raise ValueError(
                f"circle {cid} is not on the boundary of component {component.id}"
            )
    circles = {c.id: c for c in aug.circles}
    faces, steps = _dual_bfs(
        aug.diagram,
        dgm.trace_faces(aug.diagram),
        set(circles[source_circle].edges),
        set(circles[target_circle].edges),
    )
    return DualPath(faces=faces, steps=steps)


def merge_once_with_stats(
    aug: AugmentedDiagram,
) -> tuple[AugmentedDiagram, int]:
    """Fuse two circles into one; returns the result and the push count.

    The component with the least id among those touching two circles is
    chosen, then its two least boundary circles.  The source circle is
    tracked through pushes by its edge set; after each push the freshly
    created middle segment leads the propagation.  A dual path of zero
    steps means the circles share its face, and a band merge there ends
    the round.
    """
    if aug.circle_count < 2:
        raise ValueError("merge needs at least two circles")
    comps = components(aug)
    comp = next(c for c in comps if len(c.boundary_circles) >= 2)
    ci, cj = comp.boundary_circles[:2]
    circles = {c.id: c for c in aug.circles}
    src_edges = set(circles[ci].edges)
    tgt_edges = set(circles[cj].edges)

    pushes = 0
    last_distance: int | None = None
    while True:
        d = aug.diagram
        faces = dgm.trace_faces(d)
        path_faces, path_steps = _dual_bfs(d, faces, src_edges, tgt_edges)
        f0 = path_faces[0]
        face_darts = faces[f0].darts
        lead = min(dart for dart in face_darts if d.edge_of(dart) in src_edges)
        if not path_steps:
            b = min(dart for dart in face_darts if d.edge_of(dart) in tgt_edges)
            site = MoveSite(face=f0, dart_a=lead, dart_b=b)
            return type_i_merge(aug, site), pushes

        distance = len(path_steps)
        if last_distance is not None and distance >= last_distance:
            raise InternalInvariantError(
                f"propagation stalled at dual distance {distance}"
            )
        last_distance = distance
        aug, record = type_ii_push(
            aug, MoveSite(face=f0, dart_a=lead, dart_b=path_steps[0])
        )
        src_edges.discard(d.edge_of(lead))
        src_edges.update(record.arc_parts)
        pushes += 1


def full_pipeline_with_stats(
    diagram: Diagram,
) -> tuple[AugmentedDiagram, PipelineStats]:
    """Augment every region, then merge circles down to at most one.

    Alternating input passes through with zero circles; anything else comes
    out alternating with exactly one augmenting circle and its original
    edges intact.
    """
    aug = augment_regions(diagram)
    pushes = 0
    merges = 0
    while aug.circle_count >= 2:
        aug, p = merge_once_with_stats(aug)
        pushes += p
        merges += 1
    return aug, PipelineStats(pushes=pushes, merges=merges)
