"""Data-aware multicast baseline (§4.2, reference [3])."""

from .._exports import lazy_exports

_EXPORTS = {
    "DamNode": ".dam",
    "DataAwareMulticastSystem": ".dam",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
