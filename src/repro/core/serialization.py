"""One declared codec for the repository's spec, config and record dataclasses.

A dataclass that inherits :class:`Serializable` serialises from its field
list: ``to_dict`` walks :func:`dataclasses.fields` and ``from_dict`` is
:func:`checked_payload` plus one loader per field, chosen once per class
from the field's annotation.  Unknown keys raise :class:`ValueError`
(catching typos in spec files early), malformed containers and wrongly
typed scalars raise it naming their field, and range validation stays
with the dataclass's own ``__post_init__``.

The loaders, by annotation:

* a nested :class:`Serializable` takes a mapping or an instance;
* ``tuple[int, ...]`` goes through :func:`coerce_int_tuple`;
* other lists and tuples load element by element — an ``int`` element must
  be a whole number, a ``float`` element is cast — and tuples are written
  out as JSON lists;
* a ``dict`` requires a mapping;
* ``X | None`` accepts ``None``;
* a top-level ``int`` takes a whole number (a JSON ``2.0`` loads as ``2``),
  a ``float`` any real number, a ``str`` or ``bool`` only itself — never a
  ``bool`` for a number;
* any other annotation passes through untouched to ``__post_init__``.

A field whose JSON key differs from its name declares it as
``field(metadata={"key": ...})``; ``from_dict`` accepts either spelling,
not both.  Every annotation is evaluated by :func:`typing.get_type_hints`,
so a serialisable field must not name a type imported only under
``TYPE_CHECKING``.
"""

from __future__ import annotations

import functools
import numbers
import types
import typing
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Mapping, TypeVar

__all__ = ["Serializable", "checked_payload", "coerce_int_tuple"]

#: ``(value, field_name) -> loaded value``
Loader = Callable[[Any, str], Any]
T = TypeVar("T", bound="Serializable")


def checked_payload(cls: type, payload: Any) -> dict:
    """Validate that ``payload`` is a mapping whose keys all belong to ``cls``.

    Returns a plain-dict copy safe to splat into the dataclass constructor.
    """
    if not is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    if not isinstance(payload, Mapping):
        raise ValueError(f"{cls.__name__} payload must be a mapping, got {type(payload).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ValueError(
            f"{cls.__name__} does not accept key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    return dict(payload)


def _is_whole(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def _is_real(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _whole(item: Any, field_name: str) -> int:
    if not _is_whole(item):
        raise ValueError(f"{field_name} entries must be whole numbers, got {item!r}")
    return int(item)


def coerce_int_tuple(value: Any, *, field_name: str) -> tuple[int, ...]:
    """Coerce a JSON list (or tuple) of whole numbers to a tuple of ints.

    Fractional values are rejected rather than truncated — a spec file
    saying ``7.9`` meant something other than ``7``.
    """
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field_name} must be a list of integers, got {type(value).__name__}")
    return tuple(_whole(item, field_name) for item in value)


def _real(item: Any, field_name: str) -> float:
    if not _is_real(item):
        raise ValueError(f"{field_name} entries must be numbers, got {item!r}")
    return float(item)


#: a top-level scalar annotation -> (accepts the value, what it must be)
_SCALARS: dict[type, tuple[Callable[[Any], bool], str]] = {
    int: (_is_whole, "a whole number"),
    float: (_is_real, "a number"),
    str: (lambda value: isinstance(value, str), "a string"),
    bool: (lambda value: isinstance(value, bool), "true or false"),
}


def _scalar(kind: type) -> Loader:
    accepts, expected = _SCALARS[kind]

    def load_scalar(value: Any, field_name: str) -> Any:
        if not accepts(value):
            raise ValueError(f"{field_name} must be {expected}, got {value!r}")
        return int(value) if kind is int else value

    return load_scalar


def _optional(hint: Any) -> Any:
    """``X`` for ``X | None`` (``None`` when ``hint`` is not optional)."""
    members = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType) and len(members) == 2 and type(None) in members:
        return members[0] if members[1] is type(None) else members[1]
    return None


def _serializable(hint: Any) -> bool:
    return typing.get_origin(hint) is None and isinstance(hint, type) and issubclass(hint, Serializable)


def _none_or(function: Callable) -> Callable:
    return lambda value, *rest: None if value is None else function(value, *rest)


def _loader(hint: Any, element: bool = False) -> Loader | None:
    """Loader for a field (or a container ``element``) annotated ``hint``; None = pass through."""
    if element and hint in (int, float):
        return _whole if hint is int else _real
    if hint in _SCALARS:
        return _scalar(hint)
    inner = _optional(hint)
    if inner is not None:
        load = _loader(inner, element)
        return None if load is None else _none_or(load)
    if _serializable(hint):
        def load_nested(value: Any, field_name: str) -> Any:
            if isinstance(value, hint):
                return value
            if not isinstance(value, Mapping):
                raise ValueError(f"{field_name} must be a {hint.__name__} mapping, got {type(value).__name__}")
            return hint.from_dict(value)

        return load_nested
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is tuple and args == (int, Ellipsis):
        return lambda value, field_name: coerce_int_tuple(value, field_name=field_name)
    if origin in (list, tuple):
        load = _loader(args[0], element=True) if args else None

        def load_sequence(value: Any, field_name: str) -> Any:
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{field_name} must be a list, got {type(value).__name__}")
            return origin(value if load is None else (load(item, field_name) for item in value))

        return load_sequence
    if origin is dict:
        load = _loader(args[1], element=True) if args else None

        def load_mapping(value: Any, field_name: str) -> dict:
            if not isinstance(value, Mapping):
                raise ValueError(f"{field_name} must be a mapping, got {type(value).__name__}")
            return dict(value) if load is None else {key: load(item, field_name) for key, item in value.items()}

        return load_mapping
    return None


def _dumper(hint: Any) -> Callable[[Any], Any] | None:
    """JSON form of a field annotated ``hint`` (None = the value itself)."""
    inner = _optional(hint)
    if inner is not None:
        dump = _dumper(inner)
        return None if dump is None else _none_or(dump)
    if _serializable(hint):
        return lambda value: value.to_dict()
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin in (list, tuple):
        if args and _serializable(args[0]):
            return lambda value: [item.to_dict() for item in value]
        return list if origin is tuple else None
    if origin is dict:
        return dict
    return None


class _Plan:
    """A class's fields, JSON keys, loaders and dumpers, worked out once."""

    def __init__(self, cls: type):
        hints = typing.get_type_hints(cls)
        declared = fields(cls)
        #: (attribute, JSON key, dumper) in field order
        self.dump = [(f.name, f.metadata.get("key", f.name), _dumper(hints[f.name])) for f in declared]
        #: attribute -> loader, for the fields whose annotation has one
        self.load = {f.name: loader for f in declared if (loader := _loader(hints[f.name])) is not None}
        #: JSON key -> attribute, for the fields whose key differs from their name
        self.renamed = {key: name for name, key, _ in self.dump if key != name}


@functools.cache
def _plan(cls: type) -> _Plan:
    return _Plan(cls)


class Serializable:
    """Mixin: a dataclass's strict JSON ``to_dict``/``from_dict`` pair, from its fields."""

    def to_dict(self) -> dict:
        """JSON-friendly representation; round-trips through :meth:`from_dict`."""
        payload = {}
        for name, key, dump in _plan(type(self)).dump:
            value = getattr(self, name)
            payload[key] = value if dump is None else dump(value)
        return payload

    @classmethod
    def from_dict(cls: type[T], payload: Mapping[str, Any]) -> T:
        """Strict reconstruction of :meth:`to_dict` output (unknown keys raise)."""
        plan = _plan(cls)
        if plan.renamed and isinstance(payload, Mapping):
            payload = dict(payload)
            for key, name in plan.renamed.items():
                if key in payload:
                    if name in payload:
                        raise ValueError(f"{cls.__name__} payload sets both {key!r} and {name!r}")
                    payload[name] = payload.pop(key)
        data = checked_payload(cls, payload)
        for name, load in plan.load.items():
            if name in data:
                data[name] = load(data[name], name)
        return cls(**data)
