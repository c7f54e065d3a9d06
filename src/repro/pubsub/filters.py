"""Subscription filters — the interest function I(p, e) of the paper.

Section 2 defines two levels of expressiveness:

* **topic-based** — a filter with a single ``topic`` attribute and no
  conditions (:class:`TopicFilter`);
* **content-based** — a filter specifying several attributes and conditions
  that must all hold (:class:`ContentFilter` built from
  :class:`AttributeCondition` predicates).

:class:`InterestFunction` bundles a process's complete set of filters into
the paper's ``ISINTERESTED(e)`` predicate used by the gossip algorithm of
Figure 4.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..jsonio import fit
from .events import Event, TOPIC_ATTRIBUTE

__all__ = [
    "Filter",
    "TopicFilter",
    "AttributeCondition",
    "ContentFilter",
    "InterestFunction",
    "filter_from_dict",
]


class Filter:
    """Base class for all filters.

    Subclasses implement :meth:`matches`; the ``filter_id`` property gives a
    stable identifier used by subscription tables and by the fairness
    accounting, which charges processes per placed filter (Figure 2).
    """

    def matches(self, event: Event) -> bool:
        """Whether the event satisfies this filter."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :func:`filter_from_dict`."""
        raise NotImplementedError

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "Filter":
        """Any filter from its :meth:`to_dict` form (see :func:`filter_from_dict`)."""
        return filter_from_dict(payload)

    @property
    def filter_id(self) -> str:
        """Stable identifier; equal filters share an id."""
        return repr(self)

    @property
    def topics(self) -> Tuple[str, ...]:
        """Topics this filter pins down exactly, if any (for routing)."""
        return ()

    def __call__(self, event: Event) -> bool:
        return self.matches(event)


@dataclass(frozen=True)
class TopicFilter(Filter):
    """Filter with a single attribute (the topic) and no conditions."""

    topic: str

    def matches(self, event: Event) -> bool:
        return event.attributes.get(TOPIC_ATTRIBUTE) == self.topic

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "topic", "topic": self.topic}

    @property
    def filter_id(self) -> str:
        return f"topic:{self.topic}"

    @property
    def topics(self) -> Tuple[str, ...]:
        return (self.topic,)


def _is_in(left: Any, right: Any) -> bool:
    return left in right


def _has_prefix(left: Any, right: Any) -> bool:
    return str(left).startswith(str(right))


#: Comparison operators allowed in attribute conditions (picklable: filters hold them).
_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": _is_in,
    "contains": operator.contains,
    "prefix": _has_prefix,
}


@dataclass(frozen=True)
class AttributeCondition:
    """A single ``attribute <operator> value`` predicate.

    An event must *provide* the attribute for the condition to hold, matching
    the paper's definition ("provides all attributes specified by the filter
    and satisfies the corresponding conditions").
    """

    attribute: str
    operator: str
    value: Any

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ValueError(
                f"unsupported operator {self.operator!r}; expected one of {sorted(_OPERATORS)}"
            )

    def holds_for(self, event: Event) -> bool:
        """Evaluate the condition against an event."""
        if self.attribute not in event.attributes:
            return False
        actual = event.attributes[self.attribute]
        try:
            return _OPERATORS[self.operator](actual, self.value)
        except TypeError:
            # Incomparable types (e.g. string vs number) simply do not match.
            return False

    def describe(self) -> str:
        """Human-readable form used in filter ids and reports."""
        return f"{self.attribute}{self.operator}{self.value!r}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (values must be JSON scalars)."""
        return {"attribute": self.attribute, "operator": self.operator, "value": self.value}

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "AttributeCondition":
        """Rebuild a condition from :meth:`to_dict` output."""
        return AttributeCondition(
            attribute=fit(str, payload["attribute"], "condition field 'attribute'", ValueError),
            operator=payload["operator"],
            value=payload["value"],
        )


@dataclass(frozen=True)
class ContentFilter(Filter):
    """Conjunction of attribute conditions (the paper's expressive filter)."""

    conditions: Tuple[AttributeCondition, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        # Compiled once so a match is one loop; not a field: outside ==, hash, repr, filter_id, to_dict.
        tests = tuple((c.attribute, _OPERATORS[c.operator], c.value) for c in self.conditions)
        object.__setattr__(self, "_tests", tests)

    def matches(self, event: Event) -> bool:
        attributes = event.attributes
        try:
            for attribute, test, value in self._tests:
                if attribute not in attributes or not test(attributes[attribute], value):
                    return False
        except TypeError:  # incomparable types (string vs number) simply do not match
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "content",
            "name": self.name,
            "conditions": [condition.to_dict() for condition in self.conditions],
        }

    @property
    def filter_id(self) -> str:
        body = "&".join(condition.describe() for condition in self.conditions)
        return f"content:{self.name}:{body}" if self.name else f"content:{body}"

    @property
    def topics(self) -> Tuple[str, ...]:
        pinned = tuple(
            str(condition.value)
            for condition in self.conditions
            if condition.attribute == TOPIC_ATTRIBUTE and condition.operator == "=="
        )
        return pinned


def filter_from_dict(payload: Mapping[str, Any]) -> Filter:
    """Rebuild a filter from its :meth:`Filter.to_dict` form.

    Used by the experiment result artifacts to round-trip interest
    assignments through JSON.  Dispatches on the ``kind`` discriminator.
    """
    kind = payload.get("kind")
    if kind == "topic":
        return TopicFilter(topic=fit(str, payload["topic"], "filter field 'topic'", ValueError))
    if kind == "content":
        return ContentFilter(
            conditions=tuple(
                AttributeCondition.from_dict(condition) for condition in payload.get("conditions", ())
            ),
            name=fit(str, payload.get("name", ""), "filter field 'name'", ValueError),
        )
    raise ValueError(f"unknown filter kind {kind!r}")


class InterestFunction:
    """A process's complete interest: the union of its active filters.

    This is the paper's ``I(p, e)`` / ``ISINTERESTED(e)``: an event is
    interesting if at least one active filter matches it.  The object tracks
    filter additions and removals so the fairness accounting can charge per
    placed filter (§5, fairness aspect 2).
    """

    def __init__(self, filters: Optional[Iterable[Filter]] = None) -> None:
        self._filters: Dict[str, Filter] = {}
        for subscription_filter in filters or ():
            self.add(subscription_filter)

    def add(self, subscription_filter: Filter) -> bool:
        """Add a filter; returns ``False`` if an equal filter was present."""
        key = subscription_filter.filter_id
        if key in self._filters:
            return False
        self._filters[key] = subscription_filter
        return True

    def remove(self, subscription_filter: Filter) -> bool:
        """Remove a filter; returns ``False`` if it was not present."""
        return self._filters.pop(subscription_filter.filter_id, None) is not None

    def is_interested(self, event: Event) -> bool:
        """The paper's ``ISINTERESTED(e)``."""
        for subscription_filter in self._filters.values():
            if subscription_filter.matches(event):
                return True
        return False

    def matching_filters(self, event: Event) -> List[Filter]:
        """All active filters matched by the event."""
        return [
            subscription_filter
            for subscription_filter in self._filters.values()
            if subscription_filter.matches(event)
        ]

    def __contains__(self, subscription_filter: Filter) -> bool:
        return subscription_filter.filter_id in self._filters

    def __len__(self) -> int:
        return len(self._filters)
