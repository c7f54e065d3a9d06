"""Gossip-based event dissemination (Figure 4 of the paper and variants)."""

from .._exports import lazy_exports

_EXPORTS = {
    "EventBuffer": ".buffers",
    "BufferedEvent": ".buffers",
    "SELECTION_STRATEGIES": ".buffers",
    "GossipMessage": ".push",
    "PushGossipNode": ".push",
    "GOSSIP_MESSAGE_KIND": ".push",
    "PushPullGossipNode": ".pushpull",
    "DigestMessage": ".pushpull",
    "PullRequest": ".pushpull",
    "LazyPushGossipNode": ".lazy",
    "lazy_store_ids": ".lazy",
    "eager_push_rounds": ".lazy",
    "LAZY_PUSH_KIND": ".lazy",
    "LAZY_DIGEST_KIND": ".lazy",
    "LAZY_REQUEST_KIND": ".lazy",
    "LAZY_REPLY_KIND": ".lazy",
    "GossipSystem": ".system",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
