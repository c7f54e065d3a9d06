"""The JSON boundary: every document the program reads and every record it writes.

One stdlib-only leaf module (nothing here imports the rest of ``repro``, so
``topology.spec`` and ``faults.plan`` can use it without a cycle) that owns
what JSON looks like at the edge of the program:

* :func:`encode` / :func:`decode` / :func:`fit` — one walker over dataclass
  fields, driven by their annotations, behind the ``to_dict`` / ``from_dict``
  of the specs the program reads and the records it writes (a numeric
  field's :class:`Bound` included; :func:`refit` checks a built record);
* :func:`wire_codec` — the same annotations compiled once per class into the
  live runtime's payload codecs;
* :func:`load_json` / :func:`write_json` — one way in and one way out for
  whole-file documents (domain errors naming the path; atomic, canonical
  writes), and :func:`read_schema`, the tag that says which reader a file
  needs;
* :class:`JsonlSink` / :class:`MemorySink` / :func:`read_jsonl` — the
  byte-reproducible JSON-lines stream shared by telemetry snapshots and
  trace spans.

"The JSON boundary" in ``docs/ARCHITECTURE.md`` lists what goes through here
and which codecs are deliberately hand-written instead.
"""

from __future__ import annotations

import collections
import difflib
import json
import operator
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import lru_cache
from typing import (
    Annotated,
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_type_hints,
)

__all__ = [
    "ALL_FIELDS",
    "suggest",
    "reject_unknown",
    "jsonify",
    "tuplify",
    "encode",
    "decode",
    "fit",
    "refit",
    "Bound",
    "bound_of",
    "annotation_at",
    "wire_codec",
    "load_json",
    "read_schema",
    "write_json",
    "write_text",
    "JsonlSink",
    "MemorySink",
    "read_jsonl",
]

#: ``sparse=`` value omitting *every* field at its default (see :func:`encode`).
ALL_FIELDS = frozenset({"*"})


def suggest(name: object, candidates: Iterable[object]) -> str:
    """A ``did you mean`` clause for ``name`` against ``candidates`` ("" if none)."""
    matches = difflib.get_close_matches(
        str(name), [str(candidate) for candidate in candidates], n=3, cutoff=0.5
    )
    if not matches:
        return ""
    return f" — did you mean {', '.join(repr(match) for match in matches)}?"


def reject_unknown(payload, known, error: Callable[[str], Exception], what: str) -> None:
    """Raise ``error`` (with a did-you-mean) if ``payload`` has keys outside ``known``."""
    unknown = sorted(key for key in payload if key not in known)
    if unknown:
        raise error(
            f"unknown {what} fields {unknown}"
            f"{suggest(unknown[0], known)}; known fields: {', '.join(sorted(known))}"
        )


def tuplify(value):
    """Deep list→tuple conversion (inverse of :func:`jsonify`).

    The one converter pair shared by every encoding of structured fields —
    the walker here, the ``faults.plan`` spec section and the flat config's
    ``fault_plan`` / ``topology_*`` fields — so they stay exact inverses of
    one another by construction.
    """
    if isinstance(value, (list, tuple)):
        return tuple(tuplify(entry) for entry in value)
    return value


def jsonify(value):
    """Deep tuple→list conversion for JSON encoding (see :func:`tuplify`)."""
    if isinstance(value, (list, tuple)):
        return [jsonify(entry) for entry in value]
    return value


# ------------------------------------------------------------------ the walker


@dataclass(frozen=True)
class Bound:
    """The range a numeric field admits: ``Annotated[float, Bound(0, 1)]``.

    ``Bound(1)`` has no upper end; ``open_low`` / ``open_high`` exclude an
    end (``Bound(0, open_low=True)`` is "positive").  :func:`fit` checks it
    after the type.  NaN lies outside every bound.
    """

    low: float
    high: Optional[float] = None
    open_low: bool = False
    open_high: bool = False

    def admits(self, value) -> bool:
        above = value > self.low if self.open_low else value >= self.low
        if self.high is None:
            return above
        return above and (value < self.high if self.open_high else value <= self.high)

    def __str__(self) -> str:
        if self.high is None:
            if self.low == 0:
                return "positive" if self.open_low else "non-negative"
            return f"{'above' if self.open_low else 'at least'} {self.low}"
        if self.low == self.high:
            return f"{self.low}"
        left, right = "[("[self.open_low], "])"[self.open_high]
        return f"within {left}{self.low}, {self.high}{right}"


_ANNOTATED = type(Annotated[int, None])


def bound_of(annotation) -> Optional[Bound]:
    """The :class:`Bound` an annotation declares (``None`` when unbounded)."""
    if type(annotation) is _ANNOTATED:
        for rule in annotation.__metadata__:
            if isinstance(rule, Bound):
                return rule
    return None


@lru_cache(maxsize=None)
def _schema(record_class) -> Dict[str, Tuple[object, object]]:
    """``name -> (annotation, dataclass field)`` of a dataclass, declaration order."""
    hints = get_type_hints(record_class, include_extras=True)
    return {
        record_field.name: (hints[record_field.name], record_field)
        for record_field in fields(record_class)
    }


def _default(record_field):
    """A field's default value (``MISSING`` for a required field)."""
    if record_field.default_factory is not MISSING:
        return record_field.default_factory()
    return record_field.default


def annotation_at(record_class, path: str):
    """The annotation of the field at a dotted ``path`` below ``record_class``."""
    annotation = record_class
    for part in path.split("."):
        annotation = _schema(annotation)[part][0]
    return annotation


#: Types that are JSON as they stand: the walker's per-value fast path.
_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def encode(record, sparse: Collection[str] = (), prefix: str = "") -> Dict[str, object]:
    """JSON form of a dataclass: one key per field, nested records recursed.

    ``sparse`` names the dotted paths omitted while at their default (a
    trailing ``*`` covers every field of that section, :data:`ALL_FIELDS`
    every field of ``record``): sections added after an artifact format was
    pinned stay out of encodings that never touch them.
    """
    every = prefix + "*" in sparse
    payload: Dict[str, object] = {}
    for name, (_, record_field) in _schema(type(record)).items():
        value = getattr(record, name)
        path = prefix + name
        if (every or path in sparse) and value == _default(record_field):
            continue
        payload[name] = _encode_value(value, sparse, path + ".")
    return payload


def _encode_value(value, sparse: Collection[str], prefix: str):
    # Leaves are tested inline: snapshots carry thousands of them and are
    # encoded on every emit, so a call per leaf is what this loop avoids.
    kind = type(value)
    if kind is tuple or kind is list:
        return [
            entry if type(entry) in _JSON_LEAVES else _encode_value(entry, sparse, prefix)
            for entry in value
        ]
    if kind is dict:
        return {
            key: entry if type(entry) in _JSON_LEAVES else _encode_value(entry, sparse, prefix)
            for key, entry in value.items()
        }
    if is_dataclass(value):
        return encode(value, sparse, prefix)
    return value


def decode(
    record_class,
    payload,
    error: Callable[[str], Exception],
    what: str,
    schema: Optional[str] = None,
    prefix: str = "",
):
    """Rebuild a dataclass from :func:`encode` output, checking as it goes.

    Every rejection raises ``error`` (the caller's domain error class) with a
    message that starts from ``what`` (``"fault entry"``, ``"topology
    spec"``, ``"StackSpec"``): a non-mapping, unknown keys (with a
    did-you-mean), an absent required field, a value that does not
    :func:`fit` its field's annotation.  A nested section is labelled by its
    dotted path (``"faults.churn spec"``).  With ``schema`` set the payload
    may carry that ``"schema"`` tag.  A field declared with
    ``metadata={"decode": function}`` is decoded by ``function(raw, label)``
    instead of by its annotation.  The built record's ``validate()`` (when it
    has one) runs here too, so relational checks fail at the boundary; a foreign
    ``ValueError`` from it or from ``__post_init__`` is re-raised as ``error``.
    """
    if not isinstance(payload, Mapping):
        raise error(f"{what} must be a mapping, got {type(payload).__name__}")
    known = _schema(record_class)
    if schema is not None:
        if payload.get("schema", schema) != schema:
            raise error(f"{what} has schema {payload['schema']!r}; expected {schema!r}")
        payload = {key: value for key, value in payload.items() if key != "schema"}
    reject_unknown(payload, known, error, what)
    values: Dict[str, object] = {}
    for key, raw in payload.items():
        annotation, record_field = known[key]
        label = f"{what} field {key!r}"
        custom = record_field.metadata.get("decode")
        if custom is not None:
            values[key] = custom(raw, label)
        else:
            values[key] = fit(annotation, raw, label, error, prefix + key)
    try:
        record = record_class(**values)
        if hasattr(record, "validate"):
            record.validate()
    except error:
        raise
    except (TypeError, ValueError) as problem:  # a required field is absent; a range check
        raise error(f"invalid {what}: {problem}") from None
    return record


_TYPE_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
}


def fit(annotation, value, label: str, error: Callable[[str], Exception], path: str = ""):
    """``value`` as the type ``annotation`` declares, or ``error`` naming ``label``.

    An ``int`` widens into a ``float`` field (``duration=5`` hashes like
    ``5.0``); a list or tuple becomes the declared ``Tuple`` / ``List`` with
    every element fitted in turn (``Tuple[X, ...]`` any length,
    ``Tuple[A, B]`` exactly that shape); a mapping becomes the declared
    ``Dict``; a dataclass annotation recurses into :func:`decode` (``path``
    is its dotted section path); ``object`` takes anything, lists as tuples.
    Everything else must be exactly the declared type — a ``bool`` is not a
    number, a number is not a ``bool``, a string is neither.  An
    ``Annotated[X, Bound(...)]`` value fits ``X`` and then its :class:`Bound`:
    ``"<path> must be within [0, 1], got 2.0"``.
    """
    if type(value) is annotation:
        return value
    if annotation is float and type(value) is int:
        return float(value)
    if annotation is object or annotation is Any:
        return tuplify(value)
    if type(annotation) is type:  # a plain class: a record, or a leaf that did not match
        if is_dataclass(annotation):
            return decode(annotation, value, error, f"{path} spec", prefix=path + ".")
        raise error(f"{label} must be {_TYPE_NAMES[annotation]}, got {value!r}")
    if type(annotation) is _ANNOTATED:
        value = fit(annotation.__origin__, value, label, error, path)
        bound = bound_of(annotation)
        if bound is not None and not bound.admits(value):
            raise error(f"{path or label} must be {bound}, got {value!r}")
        return value
    # A generic alias (``Tuple[str, ...]``): its attributes are read directly,
    # ``typing.get_origin`` / ``get_args`` cost more than the rest of this call.
    origin, arguments = annotation.__origin__, annotation.__args__
    # Elements of exactly the declared type are taken inline (the common
    # case by far); only the rest pay a call and a label.
    if origin is dict:
        if not isinstance(value, Mapping):
            raise error(f"{label} must be a mapping, got {value!r}")
        shape = arguments[1]
        return {
            key: entry
            if type(entry) is shape
            else fit(shape, entry, f"{label}[{key!r}]", error, f"{path}[{key!r}]")
            for key, entry in value.items()
        }
    if not isinstance(value, (list, tuple)):
        raise error(f"{label} must be a list, got {value!r}")
    if origin is tuple and arguments[-1] is not Ellipsis:
        if len(value) != len(arguments):
            raise error(f"{label} must be a list of {len(arguments)} items, got {value!r}")
        shapes = arguments
    else:
        shapes = (arguments[0],) * len(value)
    return origin(
        [
            entry
            if type(entry) is shape
            else fit(shape, entry, f"{label}[{index}]", error, f"{path}[{index}]")
            for index, (shape, entry) in enumerate(zip(shapes, value))
        ]
    )


def refit(record, error: Callable[[str], Exception], prefix: str = "") -> None:
    """Hold a record built in code to what :func:`decode` asks of a document.

    Every field must :func:`fit` its annotation, bound included; nested
    records are walked, their dotted paths growing from ``prefix``.
    """
    for name, (annotation, _) in _schema(type(record)).items():
        value = getattr(record, name)
        if is_dataclass(value):
            refit(value, error, f"{prefix}{name}.")
        else:
            fit(annotation, value, prefix + name, error, prefix + name)


# ---------------------------------------------------------------- wire codecs


@lru_cache(maxsize=None)
def wire_codec(annotation, nested: bool = False) -> Tuple[Callable, Callable]:
    """``(encode, decode)`` between values of ``annotation`` and their wire JSON.

    Derived once per annotation from the walker's introspection, by
    structure alone: a dataclass is an object keyed by field name without
    the fields at their default (the :data:`ALL_FIELDS` rule), or — nested
    in another record — the list of all its fields; a class with its own
    ``to_dict`` / ``from_dict`` is a leaf coded by them; ``Tuple[X, ...]``
    is a list, and so is ``Tuple[X, Y]``, of exactly one value per position;
    ``Optional[X]`` is ``null`` or ``X``; a scalar decodes under
    :func:`fit`'s rules.  Decoders raise ``TypeError`` / ``ValueError`` /
    ``KeyError`` / ``AttributeError`` on any other shape.
    """
    if hasattr(annotation, "to_dict") and hasattr(annotation, "from_dict"):
        return operator.methodcaller("to_dict"), annotation.from_dict
    if is_dataclass(annotation):
        return _record_codec(annotation, nested)
    if annotation in _TYPE_NAMES:
        return (
            lambda value: value,
            lambda raw: raw if type(raw) is annotation else fit(annotation, raw, "wire value", TypeError),
        )
    origin, arguments = annotation.__origin__, annotation.__args__
    if origin is tuple and arguments[-1] is Ellipsis:
        encode_item, decode_item = wire_codec(arguments[0], True)
        return (
            lambda value: [encode_item(entry) for entry in value],
            lambda raw: tuple([decode_item(entry) for entry in _as_list(raw)]),
        )
    if origin is tuple:
        return _fixed_tuple_codec(arguments)
    if origin is Union and arguments[1:] == (type(None),):
        encode_value, decode_value = wire_codec(arguments[0], nested)
        return (
            lambda value: None if value is None else encode_value(value),
            lambda raw: None if raw is None else decode_value(raw),
        )
    raise TypeError(f"no wire form for {annotation!r}")


def _record_codec(record_class, nested: bool) -> Tuple[Callable, Callable]:
    schema = _schema(record_class)
    names = tuple(schema)
    encoders, decoders = zip(*[wire_codec(annotation, True) for annotation, _ in schema.values()])
    if nested:

        def encode_items(record):
            return [encode(getattr(record, name)) for name, encode in zip(names, encoders)]

        def decode_items(raw):
            if type(raw) is not list or len(raw) != len(names):
                raise ValueError(f"{record_class.__name__} is a list of {len(names)} fields")
            return record_class(*[decode(value) for decode, value in zip(decoders, raw)])

        return encode_items, decode_items
    plan = tuple(zip(names, [_default(record_field) for _, record_field in schema.values()], encoders))
    by_name = dict(zip(names, decoders))

    def encode_fields(record):
        payload = {}
        for name, default, encode in plan:
            value = getattr(record, name)
            if value != default:
                payload[name] = encode(value)
        return payload

    def decode_fields(raw):
        return record_class(**{key: by_name[key](value) for key, value in raw.items()})

    return encode_fields, decode_fields


def _fixed_tuple_codec(arguments: tuple) -> Tuple[Callable, Callable]:
    """``Tuple[X, Y]``: a list of exactly one value per position."""
    encoders, decoders = zip(*[wire_codec(argument, True) for argument in arguments])

    def encode_items(value):
        return [encode(entry) for encode, entry in zip(encoders, value)]

    def decode_items(raw):
        if type(raw) is not list or len(raw) != len(decoders):
            raise ValueError(f"expected a list of {len(decoders)} values")
        return tuple([decode(entry) for decode, entry in zip(decoders, raw)])

    return encode_items, decode_items


def _as_list(raw) -> list:
    if type(raw) is not list:
        raise TypeError(f"expected a list, got {type(raw).__name__}")
    return raw


# ------------------------------------------------------------ whole documents


def load_json(
    path: str, schema: Optional[object], error: Callable[[str], Exception], what: str
) -> dict:
    """The JSON object stored at ``path``, or ``error`` naming the path.

    An unreadable file, invalid JSON, a document that is not an object and a
    ``"schema"`` tag other than ``schema`` (the tag is optional; ``None``
    takes any) each raise the caller's ``error``; ``what`` names the kind of
    document (``"fault plan"``, ``"topology file"``, ``"campaign spec"``).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as problem:
        raise error(f"cannot read {what} {path!r}: {problem}") from None
    except ValueError as problem:
        raise error(f"{what} {path!r} is not valid JSON: {problem}") from None
    if not isinstance(payload, dict):
        raise error(f"{what} {path!r} must hold a JSON object, got {type(payload).__name__}")
    if schema is not None and payload.get("schema", schema) != schema:
        raise error(f"{what} {path!r} has schema {payload['schema']!r}; expected {schema!r}")
    return payload


def read_schema(path: str, error: Callable[[str], Exception], what: str) -> object:
    """The ``"schema"`` tag of the file at ``path`` (``None`` when untagged).

    A JSON-lines stream (:class:`JsonlSink`) is told by its first line, a
    complete JSON object carrying the tag every record repeats; any other
    file is read whole by :func:`load_json`, whose ``error`` it raises.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = json.loads(handle.readline())
    except OSError as problem:
        raise error(f"cannot read {what} {path!r}: {problem}") from None
    except ValueError:  # a pretty-printed document's first line, or not JSON at all
        head = None
    if not isinstance(head, dict):
        head = load_json(path, None, error, what)
    return head.get("schema")


def write_text(path, text: str) -> None:
    """Atomically replace ``path`` with ``text``, creating its parent directory.

    The text goes to a temporary file in the same directory and is renamed
    over the target, so a reader (a metrics scraper, a parallel worker
    racing on the same cache entry) never sees a torn file.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except OSError:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def write_json(path, payload) -> None:
    """Write ``payload`` as a canonical JSON document (see :func:`write_text`)."""
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------- JSON lines


class JsonlSink:
    """One canonical JSON object per line, for anything with ``to_dict()``.

    Sorted keys and fixed separators make the stream byte-reproducible: two
    runs of one seed write the same bytes, not merely equivalent JSON.  The
    file is created on the first ``emit`` (building a sink to validate its
    spec touches nothing); :meth:`open` creates it earlier for a caller that
    wants an unwritable path to fail before the run.  Emits after
    :meth:`close` are dropped.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self._closed = False

    def open(self) -> None:
        if self._handle is None and not self._closed:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, record) -> None:
        self.open()
        if self._handle is not None:
            self._handle.write(
                json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            )

    def close(self) -> None:
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class MemorySink:
    """Bounded in-memory ring of the most recent records (tests, live peeks)."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._records: collections.deque = collections.deque(maxlen=capacity)

    def emit(self, record) -> None:
        self._records.append(record)

    def close(self) -> None:  # a ring holds no resources
        pass

    def records(self) -> List[Any]:
        """The retained records, oldest first."""
        return list(self._records)


def read_jsonl(path: str, schema: str, decode_record: Callable[[dict], Any]) -> List[Any]:
    """Load a stream written by :class:`JsonlSink`: one ``decode_record`` per line.

    Raises ``ValueError`` naming ``path:line`` for a line that is not valid
    JSON, does not carry the ``schema`` tag or that ``decode_record`` rejects
    (``KeyError`` / ``TypeError`` / ``ValueError``), so the CLI can turn it
    into a one-line error.
    """
    records: List[Any] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as problem:
                raise ValueError(f"{path}:{number}: not valid JSON: {problem}") from None
            if not isinstance(payload, dict) or payload.get("schema") != schema:
                raise ValueError(f"{path}:{number}: not a {schema} record")
            try:
                records.append(decode_record(payload))
            except (KeyError, TypeError, ValueError) as problem:
                raise ValueError(
                    f"{path}:{number}: bad {schema} record: {type(problem).__name__}: {problem}"
                ) from None
    return records
