"""Selective information dissemination model (Section 2 of the paper).

Events, topics and topic hierarchies, subscription filters (topic-based and
content-based), subscription tables, the one filter index that answers "which
nodes want this event" for both the oracle and the brokers' matching engine,
and the publish/subscribe/unsubscribe interface that every dissemination
system in this repository implements.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "Event": ".events",
    "EventFactory": ".events",
    "TOPIC_ATTRIBUTE": ".events",
    "Filter": ".filters",
    "TopicFilter": ".filters",
    "ContentFilter": ".filters",
    "AttributeCondition": ".filters",
    "AndFilter": ".filters",
    "OrFilter": ".filters",
    "NotFilter": ".filters",
    "MatchAllFilter": ".filters",
    "MatchNoneFilter": ".filters",
    "InterestFunction": ".filters",
    "filter_from_dict": ".filters",
    "DeliveryCallback": ".interfaces",
    "DeliveryLog": ".interfaces",
    "DeliveryRecord": ".interfaces",
    "DisseminationSystem": ".interfaces",
    "MatchingEngine": ".matching",
    "FilterIndex": ".subscriptions",
    "Subscription": ".subscriptions",
    "SubscriptionTable": ".subscriptions",
    "Topic": ".topics",
    "TopicHierarchy": ".topics",
    "topic_path": ".topics",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
