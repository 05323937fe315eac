"""Alternating augmentations of link projections.

Parse a PD code, label its edge ends, augment every region so the
projection alternates, then merge the augmenting circles into a single
unknotted component; an independent checker certifies the result.

The names below are the ones the README's Library example uses; the rest
of the API lives in the submodules (``alternator.diagram``,
``alternator.augment``, ``alternator.moves``, ``alternator.merge``, ...).
"""

from .codec import emit_pd, parse_pd
from .diagram import is_alternating
from .errors import AlternatorError
from .merge import full_pipeline_with_stats
from .verify import verify

__version__ = "0.1.0"

__all__ = [
    "AlternatorError",
    "emit_pd",
    "full_pipeline_with_stats",
    "is_alternating",
    "parse_pd",
    "verify",
]
