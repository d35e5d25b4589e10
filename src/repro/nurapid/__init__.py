"""NuRAPID: Non-uniform access with Replacement And Placement using
Distance associativity — the paper's contribution (§2).

The cache keeps a conventional set-associative, centralized tag array
(probed first: sequential tag-data access) whose entries carry a
*forward pointer* into the data side; the data side is a handful of
large d-groups whose frames carry *reverse pointers* back to the tag
slot (set, way).  Placement of data among d-groups is thereby decoupled from set
associativity:

* new blocks are placed directly in the fastest d-group (§2.1),
* *distance replacement* demotes some block — from anywhere, any set —
  to make room, without evicting anything (§2.2),
* promotion policies (``next-fastest`` / ``fastest``) re-promote hot
  blocks that random demotion got wrong (§2.4.1–2.4.2).

Public entry point: :class:`NuRAPIDCache` configured by
:class:`NuRAPIDConfig`.
"""

from repro.nurapid.config import (
    DistanceReplacementKind,
    NuRAPIDConfig,
    PromotionPolicy,
)
from repro.nurapid.cache import NuRAPIDCache

__all__ = [
    "DistanceReplacementKind",
    "NuRAPIDCache",
    "NuRAPIDConfig",
    "PromotionPolicy",
]
