"""Broker-based selective dissemination baseline (§3, references [6, 9])."""

from .._exports import lazy_exports

_EXPORTS = {
    "BrokerNode": ".broker",
    "ClientNode": ".broker",
    "BrokerSystem": ".broker",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
