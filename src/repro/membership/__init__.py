"""Membership / peer sampling substrate (§4.2 of the paper).

Provides the ``SELECTPARTICIPANTS`` building block of Figure 4: a
full-membership oracle, CYCLON-style view shuffling, lpbcast-style
piggybacked digests, and an interest-aware selection bias that can wrap any
of them.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "MembershipComponent": ".base",
    "MembershipProvider": ".base",
    "NodeDescriptor": ".views",
    "PartialView": ".views",
    "FullMembership": ".full",
    "full_membership_provider": ".full",
    "CyclonMembership": ".cyclon",
    "ShufflePayload": ".cyclon",
    "cyclon_provider": ".cyclon",
    "LpbcastMembership": ".lpbcast",
    "MembershipDigest": ".lpbcast",
    "lpbcast_provider": ".lpbcast",
    "InterestAwareMembership": ".interest_aware",
    "interest_aware_provider": ".interest_aware",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
