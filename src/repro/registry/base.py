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
did-you-mean suggestion and the full list of registered names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    aliases: Tuple[str, ...] = ()

    def describe(self, section: object) -> str:
        """Schema listing; ``section`` is the spec section at its defaults."""
        lines = [self.name + (f" (aliases: {', '.join(self.aliases)})" if self.aliases else "")]
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
        self._aliases: Dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        description: str = "",
        params: Sequence[Param] = (),
        aliases: Sequence[str] = (),
        replace: bool = False,
    ) -> ComponentEntry:
        """Add a component; ``replace`` guards against accidental collisions."""
        if not replace and (name in self._entries or name in self._aliases):
            raise RegistryError(f"{self.kind} {name!r} is already registered")
        entry = ComponentEntry(
            name=name,
            factory=factory,
            description=description,
            params=tuple(params),
            aliases=tuple(aliases),
        )
        if not replace:
            for alias in entry.aliases:
                if alias in self._entries or alias in self._aliases:
                    raise RegistryError(
                        f"{self.kind} alias {alias!r} is already registered"
                    )
        self._entries[name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = name
        return entry

    def unregister(self, name: str) -> None:
        """Remove a component (used by tests registering throwaway entries)."""
        entry = self._entries.pop(name, None)
        if entry is not None:
            for alias in entry.aliases:
                self._aliases.pop(alias, None)

    def get(self, name: str) -> ComponentEntry:
        """Look a component up by name or alias.

        Unknown names raise :class:`RegistryError` with a did-you-mean
        suggestion and the full list of registered components.
        """
        canonical = self._aliases.get(name, name)
        entry = self._entries.get(canonical)
        if entry is None:
            known = ", ".join(self.names())
            raise RegistryError(
                f"unknown {self.kind} {name!r}{suggest(name, self._known())}; "
                f"registered {self.kind}s: {known}"
            )
        return entry

    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._aliases

    def names(self) -> List[str]:
        """Registered canonical names, in registration order."""
        return list(self._entries)

    def entries(self) -> List[ComponentEntry]:
        """Registered entries, in registration order."""
        return list(self._entries.values())

    def _known(self) -> List[str]:
        return list(self._entries) + list(self._aliases)
