"""Typed component registries.

A :class:`Registry` maps component names (``"fair-gossip"``, ``"cyclon"``,
``"zipf"`` ...) to a :class:`ComponentEntry`: a factory, a human-readable
description, and a parameter schema (:class:`Param` rows naming a spec
field, with help text).  Five registries exist — ``system``, ``membership``,
``interest``, ``workload``, and ``policy`` (see
:mod:`repro.registry.builtins`) — and together they replace the hard-coded
``if/elif`` dispatch that used to live in
``repro.experiments.scenarios.build_system``.

Lookups of unknown names raise :class:`RegistryError` (a ``ValueError``
subclass, so legacy ``except ValueError`` call sites keep working) with a
did-you-mean suggestion and the full list of registered names.  Each
component has exactly one name: a second spelling of one component would
give one run two result-cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..jsonio import annotation_at, bound_of, suggest

__all__ = ["Param", "ComponentEntry", "Registry", "RegistryError"]


class RegistryError(ValueError):
    """Unknown component name or invalid component parameters."""


@dataclass(frozen=True)
class Param:
    """One parameter a component reads from its spec section.

    ``name`` is a field of that section (``fanout`` of ``SystemSpec``), so
    the default shown is the field's own, declared once on the dataclass.
    """

    name: str
    help: str = ""

    def describe(self, section: object) -> str:
        """One schema line for ``describe`` output; ``section`` holds the defaults.

        The field's bound, when it declares one, is read off its annotation
        and shown beside the default.
        """
        bound = bound_of(annotation_at(type(section), self.name))
        text = f"{self.name} (default: {getattr(section, self.name)!r}"
        text += f", {bound})" if bound is not None else ")"
        if self.help:
            text += f" — {self.help}"
        return text


@dataclass(frozen=True)
class ComponentEntry:
    """A registered component: factory plus parameter schema."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    params: Tuple[Param, ...] = ()

    def describe(self, section: object) -> str:
        """Schema listing; ``section`` is the spec section at its defaults."""
        lines = [self.name]
        if self.description:
            lines.append(f"  {self.description}")
        if self.params:
            lines.append("  parameters:")
            lines.extend(f"    {param.describe(section)}" for param in self.params)
        else:
            lines.append("  parameters: (none)")
        return "\n".join(lines)


class Registry:
    """Name → :class:`ComponentEntry` mapping for one component role.

    Parameters
    ----------
    kind:
        Human-readable role name used in error messages (``"system"``,
        ``"membership"`` ...).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, ComponentEntry] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        description: str = "",
        params: Sequence[Param] = (),
    ) -> ComponentEntry:
        """Add a component under a name not registered yet."""
        if name in self._entries:
            raise RegistryError(f"{self.kind} {name!r} is already registered")
        entry = ComponentEntry(
            name=name, factory=factory, description=description, params=tuple(params)
        )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove a component (used by tests registering throwaway entries)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> ComponentEntry:
        """Look a component up by name.

        Unknown names raise :class:`RegistryError` with a did-you-mean
        suggestion and the full list of registered components.
        """
        entry = self._entries.get(name)
        if entry is None:
            raise RegistryError(
                f"unknown {self.kind} {name!r}{suggest(name, self._entries)}; "
                f"registered {self.kind}s: {', '.join(self._entries)}"
            )
        return entry

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._entries)
