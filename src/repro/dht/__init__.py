"""Structured (DHT-based) dissemination baselines discussed in §3.1 and §4.1."""

from .._exports import lazy_exports

_EXPORTS = {
    "IdSpace": ".idspace",
    "PastryRouter": ".pastry",
    "RouteResult": ".pastry",
    "ScribeNode": ".scribe",
    "ScribeSystem": ".scribe",
    "SplitStreamSystem": ".splitstream",
    "DksNode": ".dks",
    "DksSystem": ".dks",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
