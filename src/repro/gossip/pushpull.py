"""Push-pull gossip variant.

The push protocol of Figure 4 sends full events eagerly; when events are
large, most of that traffic is redundant because receivers already know most
of what they are sent.  The push-pull variant advertises event *ids* (a
digest) instead, and the receiver pulls only the events it is missing.  The
variant is included because it changes what "contribution" means physically:
digest messages are small, pull replies are large, so the payload-weighted
fairness accounting of Figure 3 treats the two protocols differently even
when their message counts are similar.

Everything the node does is one of :class:`~repro.gossip.push.PushGossipNode`'s
exchange primitives — ``advertise`` each round, ``digest_gaps`` +
``request_pull`` on a digest, ``serve_pull`` on a request, ``absorb_payload``
on a reply — so ledger entries and trace spans (``digest-advert``, ``relay
via=pull``, ``pull-recover``) come with them; what is left here is the three
message kinds, the dispatch, and two counters.
"""

from __future__ import annotations

from ..sim.network import Message
from .push import GOSSIP_MESSAGE_KIND, DigestMessage, PullRequest, PushGossipNode

__all__ = ["DigestMessage", "PullRequest", "PushPullGossipNode"]

DIGEST_KIND = "gossip.digest"
PULL_REQUEST_KIND = "gossip.pull-request"
PULL_REPLY_KIND = "gossip.pull-reply"


class PushPullGossipNode(PushGossipNode):
    """Gossip node that advertises digests and serves pull requests.

    Each round the events ``SELECTEVENTS(N)`` picks are advertised by id to
    the round's partners; payloads only travel in pull replies, always from
    the node that advertised them.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pull_requests_served = 0
        self.pull_requests_sent = 0

    # ----------------------------------------------------------- the round

    def execute_gossip_round(self) -> None:
        partners, rng = self._round_partners()
        if not partners:
            return
        event_ids = [
            event.event_id for event in self.select_events(self.current_gossip_size(), rng)
        ]
        if event_ids:
            self.buffer.mark_forwarded(event_ids)
            self.advertise(partners, event_ids, DIGEST_KIND)

    # ------------------------------------------------------------ receiving

    def on_message(self, message: Message) -> None:
        if self.membership.handle(message):
            return
        if message.kind == DIGEST_KIND:
            missing = self.digest_gaps(message)
            if missing:
                self.pull_requests_sent += 1
                self.request_pull(message.sender, missing, PULL_REQUEST_KIND)
        elif message.kind == PULL_REQUEST_KIND:
            if self.serve_pull(message, PULL_REPLY_KIND):
                self.pull_requests_served += 1
        elif message.kind == PULL_REPLY_KIND:
            self.absorb_payload(message, recovered=True)
        elif message.kind == GOSSIP_MESSAGE_KIND:
            self.absorb_payload(message)
