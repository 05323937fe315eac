"""Workload definitions and seeded input generation.

Every workload is a list of rungs (a size parameter per rung) with a fixed
number of items per rung.  Where one large item costs as much as dozens of
small ones, the small rungs hold more items: the median then falls inside
a well-filled rung instead of on the edge between two thin ones.

Inputs are made from the workload seed alone and handed to the program as
PD text; nothing but that text crosses into the timed section.  The
``alternator`` modules are looked up inside the functions so that a set-up
after a fresh import uses the fresh modules.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from types import SimpleNamespace


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline": PD text -> verified output; "text": check a result
    rungs: tuple[int, ...]  # braid length, or summand count for push-chain
    counts: tuple[int, ...]  # items per rung
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "braid-corpus",
            "pipeline",
            (20, 30, 40, 50, 60),
            (200, 200, 200, 200, 200),
            "many small braid closures: per-call overhead of parse, Diagram "
            "construction, verify and emit dominates",
        ),
        Workload(
            "braid-ladder",
            "pipeline",
            (50, 100, 200, 400, 600),
            (32, 32, 8, 4, 16),
            "large 7-strand braid closures: quadratic augment and per-round "
            "merge dominate, finger pushes are rare",
        ),
        Workload(
            "push-chain",
            "pipeline",
            (4, 8, 16, 32, 64),
            (48, 48, 8, 8, 16),
            "connected sums of switched alternating 3-braids: circles lie far "
            "apart, so merge spends its time on finger pushes",
        ),
        Workload(
            "text-roundtrip",
            "text",
            (50, 75, 100, 150, 200),
            (24, 24, 6, 2, 12),
            "the verify ORIGINAL RESULT path: canonical-form restriction check "
            "after PD text and JSON round trips",
        ),
    )
}

LADDER_STRANDS = 7
SUMMAND_LETTERS = 8


@dataclass(frozen=True)
class Item:
    """One input: PD text plus, for the text workload, the result to check."""

    rung: int  # index into Workload.rungs
    text: str
    crossings: int
    result_text: str | None = None
    result_crossings: int = 0
    merges: int = 0
    pushes: int = 0


def alternator_modules():
    """The package modules as currently imported, by layer name."""
    names = ("augment", "cli", "codec", "diagram", "errors", "gen", "merge",
             "moves", "verify")
    return SimpleNamespace(
        **{n: importlib.import_module("alternator." + n) for n in names}
    )


def braid_tuples(letters, strands: int) -> list[tuple[int, int, int, int]]:
    """PD tuples of a braid closure, labels counterclockwise, under first.

    A positive letter puts the strand entering at the lower position over.
    """
    current = list(range(1, strands + 1))
    initial = list(current)
    label = strands + 1
    tuples = []
    for gen, sign in letters:
        a, b = current[gen - 1], current[gen]
        c, d = label, label + 1
        label += 2
        tuples.append((b, a, c, d) if sign > 0 else (a, c, d, b))
        current[gen - 1], current[gen] = c, d
    close = dict(zip(current, initial))
    return [tuple(close.get(x, x) for x in t) for t in tuples]


def alternating_letters(rng: random.Random) -> list[tuple[int, int]]:
    """A 3-braid word whose closure alternates: every sigma_1 letter
    positive, every sigma_2 letter negative."""
    gens = [1, 2] + [rng.randint(1, 2) for _ in range(SUMMAND_LETTERS - 2)]
    rng.shuffle(gens)
    return [(g, 1 if g == 1 else -1) for g in gens]


def switched_summand(rng: random.Random) -> list[tuple[int, int, int, int]]:
    """An alternating 3-braid closure with exactly one letter's sign flipped,
    which leaves the edges at that crossing non-alternating."""
    letters = alternating_letters(rng)
    flip = rng.randrange(len(letters))
    g, s = letters[flip]
    letters[flip] = (g, -s)
    return braid_tuples(letters, 3)


def push_chain_tuples(summands: int, rng: random.Random):
    """Chain ``summands`` switched summands by connected sums.

    Summand j+1 is spliced into a random edge x of summand j: with x running
    P..Q and a random edge y of the new summand running R..S, the ends are
    rejoined as x = P..R and y = Q..S.  Either pairing of the loose ends is
    planar, so ``build_diagram`` accepts the result.
    """
    tuples = [list(t) for t in switched_summand(rng)]
    last_labels = sorted({x for t in tuples for x in t})
    for _ in range(summands - 1):
        offset = max(x for t in tuples for x in t)
        summand = [[x + offset for x in t] for t in switched_summand(rng)]
        x = rng.choice(last_labels)
        y = rng.choice(sorted({v for t in summand for v in t}))
        q = [(i, s) for i, t in enumerate(tuples) for s, v in enumerate(t) if v == x][1]
        r = next((i, s) for i, t in enumerate(summand) for s, v in enumerate(t) if v == y)
        tuples[q[0]][q[1]] = y
        summand[r[0]][r[1]] = x
        tuples.extend(summand)
        last_labels = sorted({v for t in summand for v in t})
    return [tuple(t) for t in tuples]


def make_inputs(workload: Workload, seed: int) -> list[Item]:
    """Generate and serialize the workload's items; same seed, same items.

    The items come back in seeded random order, rungs interleaved, so that a
    rung's median is taken across the whole pass and not inside the few
    seconds in which the machine happened to run one rung.
    """
    m = alternator_modules()
    rng = random.Random(f"{workload.name}/{seed}")
    items = []
    for rung, (size, count) in enumerate(zip(workload.rungs, workload.counts)):
        for _ in range(count):
            if workload.name == "push-chain":
                d = m.diagram.build_diagram(push_chain_tuples(size, rng))
            else:
                strands = (
                    rng.randint(3, 7)
                    if workload.name == "braid-corpus"
                    else LADDER_STRANDS
                )
                d = m.gen.random_diagram(strands, size, rng.randrange(2**31))
            text = m.codec.emit_pd(d)
            if workload.kind == "text":
                # from the parsed text, as ``alternator run`` would
                parsed = m.codec.parse_pd(text)
                result, stats = m.merge.full_pipeline_with_stats(parsed)
                items.append(Item(
                    rung, text, d.num_crossings,
                    result_text=m.codec.emit_pd(result.diagram),
                    result_crossings=result.diagram.num_crossings,
                    merges=stats.merges, pushes=stats.pushes,
                ))
            else:
                items.append(Item(rung, text, d.num_crossings))
    rng.shuffle(items)
    return items
