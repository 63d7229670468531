"""JSON shapes: one walker for every report, one parser for every input.

The copy-transfer model's results leave as JSON reports (lint, verify,
faults, load, Chrome trace) and its runs are driven by JSON inputs
(sweep spec, fault plan, overload spec, load profile, comm plan).
Both directions are the same job — walk a value against a declared
shape and name every place it does not fit — so both use
:func:`problems`:

* a report module declares its format as a module-level :class:`Shape`
  and its ``validate_*`` function is ``problems(payload, SHAPE)``;
* an input dataclass *is* its shape: :func:`fields` derives one from
  the dataclass's type hints and field bounds (:func:`bounded`), walks
  the payload against it and only then builds the instance, so a bad
  field fails as one :class:`~repro.core.errors.ModelError` line that
  names it.  :func:`check_fields` holds inputs built in Python to the
  same shape, and :func:`as_payload` writes an input back out.

Cross-field rules (percentile order, count tallies, replayability)
stay with the format that owns them, as a shape's ``check`` callable.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type
from typing import TypeVar, Union, get_args, get_origin, get_type_hints

from .errors import ModelError

__all__ = [
    "NUMBER", "JsonInput", "Shape", "as_payload", "bounded", "check_fields",
    "fields", "problems", "read_json", "replays",
]

#: ``types`` of a JSON number (``bool`` never counts as one).
NUMBER = (int, float)

_ARRAY = (list, tuple)

_TYPE_NAMES = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    list: "array", dict: "object", type(None): "null",
    NUMBER: "number", _ARRAY: "array",
}

T = TypeVar("T")

J = TypeVar("J", bound="JsonInput")


@dataclass(frozen=True, eq=False)
class Shape:
    """The declared shape of one JSON value; the default accepts any.

    Attributes:
        types: Python types the value must be an instance of (``bool``
            matches only when listed itself, never as an ``int``).
        minimum / maximum: Inclusive bounds on a number.
        nonempty: The string, array or object must not be empty.
        choices: The value must equal one of these.
        required / optional: Object keys and the shapes of their values.
        closed: Object keys outside ``required``/``optional`` are errors.
        items: Shape of every array element.
        values: Shape of every object value (a map keyed by name).
        nullable: ``null`` is accepted in place of the shape.
        tag / variants: A union tagged by the object key ``tag``; the
            variant named by its value adds its own keys.
        check: A cross-field rule, run once the value fits everything
            above; returns a problem or ``None``.
    """

    types: Union[type, Tuple[type, ...]] = ()
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    nonempty: bool = False
    choices: Tuple[Any, ...] = ()
    required: Mapping[str, "Shape"] = field(default_factory=dict)
    optional: Mapping[str, "Shape"] = field(default_factory=dict)
    closed: bool = False
    items: Optional["Shape"] = None
    values: Optional["Shape"] = None
    nullable: bool = False
    tag: str = ""
    variants: Mapping[Any, "Shape"] = field(default_factory=dict)
    check: Optional[Callable[[Any], Optional[str]]] = None


def problems(payload: Any, shape: Shape, where: str = "") -> List[str]:
    """Every place ``payload`` does not fit ``shape`` (empty = valid).

    Each problem is one line led by the path to the offending value
    (``latency_ns.p50``, ``results[0].bounds[1]``) under ``where``.
    """
    found: List[str] = []
    _walk(payload, shape, where, found)
    return found


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _walk(value: Any, shape: Shape, where: str, found: List[str]) -> None:
    label = where or "payload"
    if value is None and shape.nullable:
        return
    types = shape.types if isinstance(shape.types, tuple) else (shape.types,)
    if types and (
        not isinstance(value, types)
        or (isinstance(value, bool) and bool not in types)
    ):
        expected = _TYPE_NAMES.get(types) or " or ".join(
            _TYPE_NAMES.get(t, t.__name__) for t in types
        )
        kind = _TYPE_NAMES.get(type(value), type(value).__name__)
        found.append(f"{label}: expected {expected}, got {kind}")
        return
    if shape.choices and value not in shape.choices:
        found.append(
            f"{label}: expected one of {list(shape.choices)}, got {value!r}"
        )
        return
    if shape.minimum is not None and value < shape.minimum:
        bound = "negative" if shape.minimum == 0 else f"below {shape.minimum}"
        found.append(f"{label}: is {bound} ({value!r})")
        return
    if shape.maximum is not None and value > shape.maximum:
        found.append(f"{label}: is above {shape.maximum} ({value!r})")
        return
    if shape.nonempty and not value:
        found.append(f"{label}: is empty")
        return
    before = len(found)
    if isinstance(value, dict):
        if shape.tag:
            tag = value.get(shape.tag)
            variant = next(
                (v for k, v in shape.variants.items() if k == tag), None
            )
            if variant is None:
                found.append(
                    f"{_at(where, shape.tag)}: expected one of "
                    f"{list(shape.variants)}, got {tag!r}"
                )
                return
            _walk(value, variant, where, found)
        for key, sub in shape.required.items():
            if key in value:
                _walk(value[key], sub, _at(where, key), found)
            else:
                found.append(f"{_at(where, key)}: missing")
        for key, sub in shape.optional.items():
            if key in value:
                _walk(value[key], sub, _at(where, key), found)
        if shape.closed:
            unknown = set(value) - set(shape.required) - set(shape.optional)
            if unknown:
                found.append(
                    f"unknown {label} fields {sorted(unknown, key=str)} "
                    "(unknown fields are refused, not ignored)"
                )
        if shape.values is not None:
            for key, item in value.items():
                _walk(item, shape.values, f"{where}[{key!r}]", found)
    elif isinstance(value, _ARRAY) and shape.items is not None:
        for index, item in enumerate(value):
            _walk(item, shape.items, f"{where}[{index}]", found)
    if shape.check is not None and len(found) == before:
        problem = shape.check(value)
        if problem:
            found.append(f"{label}: {problem}")


def replays(parse: Callable[[Any], Any]) -> Callable[[Any], Optional[str]]:
    """A ``check`` that ``parse`` (an input's ``from_dict``) accepts."""

    def check(value: Any) -> Optional[str]:
        try:
            parse(value)
        except ModelError as exc:
            return f"not replayable ({exc})"
        return None

    return check


# -- dataclass inputs -----------------------------------------------------------


def bounded(
    default: Any = dataclasses.MISSING,
    *,
    default_factory: Any = dataclasses.MISSING,
    **shape: Any,
) -> Any:
    """A dataclass field whose JSON shape adds ``shape`` (``minimum=1``)."""
    if default_factory is not dataclasses.MISSING:
        return field(default_factory=default_factory, metadata={"shape": shape})
    return field(default=default, metadata={"shape": shape})


_hints = lru_cache(maxsize=None)(get_type_hints)

_SCALARS = {bool: Shape(bool), int: Shape(int), float: Shape(NUMBER),
            str: Shape(str)}


def _hint_shape(hint: Any) -> Optional[Shape]:
    """The JSON shape of a type hint, or ``None`` when it has none.

    Arrays also take tuples, so payloads built in Python need no copy.
    """
    if dataclasses.is_dataclass(hint):
        return _dataclass_shape(hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and type(None) in args and len(args) == 2:
        inner = _hint_shape(args[0])
        return inner and dataclasses.replace(inner, nullable=True)
    if origin not in _ARRAY:
        return _SCALARS.get(hint)
    items = _hint_shape(args[0])
    if origin is list or args[-1] is Ellipsis:
        return items and Shape(_ARRAY, items=items)
    if len(set(args)) > 1:
        return None
    size = len(args)  # a fixed-size tuple such as an (x, y) pair
    return items and Shape(_ARRAY, items=items, check=lambda value: (
        None if len(value) == size else f"needs exactly {size} items"
    ))


@lru_cache(maxsize=None)
def _dataclass_shape(cls: Any) -> Shape:
    """A closed object shape over ``cls``'s JSON-typed fields.

    A field whose metadata names a ``parse`` function (and its inverse,
    ``format``) travels as a JSON string.  Fields whose type has no
    JSON form (arrays, handles) stay out of the payload and keep their
    defaults.
    """
    required: Dict[str, Shape] = {}
    optional: Dict[str, Shape] = {}
    for spec in dataclasses.fields(cls):
        shape = Shape(str) if "parse" in spec.metadata else _hint_shape(
            _hints(cls)[spec.name]
        )
        if shape is not None and spec.init:
            shape = dataclasses.replace(shape, **spec.metadata.get("shape", {}))
            has_default = (spec.default, spec.default_factory) != (
                dataclasses.MISSING, dataclasses.MISSING
            )
            (optional if has_default else required)[spec.name] = shape
    return Shape(dict, required=required, optional=optional, closed=True)


def _convert(hint: Any, value: Any) -> Any:
    """The Python value of an already-checked JSON value."""
    if dataclasses.is_dataclass(hint):
        return _build(hint, value)
    origin, args = get_origin(hint), get_args(hint)
    if value is None or origin not in (tuple, list, Union):
        return value
    if origin is Union:
        return _convert(args[0], value)
    if origin is list or args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    return origin(_convert(arg, item) for arg, item in zip(args, value))


def _build(cls: Any, payload: Mapping[str, Any]) -> Any:
    kwargs = {}
    for spec in dataclasses.fields(cls):
        if spec.name in payload:
            value = payload[spec.name]
            parse = spec.metadata.get("parse")
            kwargs[spec.name] = parse(value) if parse else _convert(
                _hints(cls)[spec.name], value
            )
    return cls(**kwargs)


def _noun(cls: type) -> str:
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()


def _refuse(payload: Any, cls: type, error: Type[ModelError]) -> None:
    found = problems(payload, _dataclass_shape(cls), _noun(cls))
    if found:
        raise error("; ".join(found))


def fields(cls: Type[T], payload: Any, error: Type[ModelError]) -> T:
    """Build dataclass ``cls`` from a JSON object, or raise ``error``.

    Unknown, missing-required, mistyped and out-of-bounds fields are
    reported together, each by path (``fault plan.fragments[0].loss:
    expected number, got string``).  Omitted optional fields take the
    dataclass default, arrays become tuples where the field is a tuple,
    and nested dataclass fields are built the same way.  A
    ``TypeError`` or ``ValueError`` from construction becomes ``error``
    too; the dataclasses' own :class:`ModelError` checks pass through.
    """
    _refuse(payload, cls, error)
    try:
        return _build(cls, payload)
    except (TypeError, ValueError) as exc:
        raise error(f"malformed {_noun(cls)}: {exc}") from exc


def check_fields(instance: Any, error: Type[ModelError]) -> None:
    """Raise ``error`` unless ``instance`` fits its class's JSON shape.

    Called from ``__post_init__``, so an input built in Python meets
    the same field bounds as one read by :func:`fields`.
    """
    _refuse(as_payload(instance), type(instance), error)


def as_payload(instance: Any) -> Dict[str, Any]:
    """The JSON payload of a dataclass input: what :func:`fields` reads.

    Keys follow field order, tuples become lists, and a nested input
    writes itself through its own ``to_dict``.
    """
    shape = _dataclass_shape(type(instance))
    return {
        spec.name: spec.metadata.get("format", _json)(
            getattr(instance, spec.name)
        )
        for spec in dataclasses.fields(instance)
        if spec.name in shape.required or spec.name in shape.optional
    }


def _json(value: Any) -> Any:
    if isinstance(value, _ARRAY):
        return [_json(item) for item in value]
    if dataclasses.is_dataclass(value):
        return value.to_dict() if hasattr(value, "to_dict") else as_payload(value)
    return value


class JsonInput:
    """Base of a dataclass input read by :func:`fields` and written by
    :func:`as_payload`; ``parse_error`` is what a bad payload raises."""

    parse_error: Type[ModelError] = ModelError

    @classmethod
    def from_dict(cls: Type[J], payload: Dict[str, Any]) -> J:
        return fields(cls, payload, cls.parse_error)

    def to_dict(self) -> Dict[str, Any]:
        return as_payload(self)


def read_json(path: str, error: Type[ModelError], what: str) -> Any:
    """Parse the JSON file at ``path``; invalid JSON raises ``error``."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # bad JSON or bad text encoding
            raise error(f"{what} {path!r} is not valid JSON: {exc}") from exc
