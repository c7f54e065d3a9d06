"""Workload generators: topic popularity, interest assignment, publications, churn."""

from .._exports import lazy_exports

_EXPORTS = {
    "TopicPopularity": ".popularity",
    "InterestAssignment": ".interest",
    "UniformInterest": ".interest",
    "ZipfInterest": ".interest",
    "CommunityInterest": ".interest",
    "AttributeInterest": ".interest",
    "PublicationSchedule": ".publications",
    "TopicPublicationWorkload": ".publications",
    "ContentPublicationWorkload": ".publications",
    "SubscriptionChurnWorkload": ".churn",
    "ChurnStats": ".churn",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
