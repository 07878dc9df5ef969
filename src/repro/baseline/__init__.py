"""The Why-Not baseline (Chapman & Jagadish, SIGMOD 2009).

The paper's comparison point, reproduced bottom-up *with its documented
shortcomings* so the comparative evaluation (Table 5, Fig. 6) can be
regenerated.  See :mod:`repro.baseline.whynot` for the full list of
reproduced behaviours.
"""

from .tracing import (
    ItemTrace,
    leaf_of,
    path_to_root,
    trace_item,
    trace_item_top_down,
)
from .unpicked import (
    AttributeConstraint,
    UnpickedItem,
    attribute_constraints,
    find_unpicked_items,
)
from .whynot import WhyNotBaseline, WhyNotBaselineReport

__all__ = [
    "AttributeConstraint",
    "ItemTrace",
    "UnpickedItem",
    "WhyNotBaseline",
    "WhyNotBaselineReport",
    "attribute_constraints",
    "find_unpicked_items",
    "leaf_of",
    "path_to_root",
    "trace_item",
    "trace_item_top_down",
]
