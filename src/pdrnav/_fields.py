"""What a config field admits, stated once.

Each config dataclass calls `check_fields(self)` first in its
``__post_init__``; the JSON reader hands the class a document's values
as they are, so a file and a Python caller meet the same rule and the
same message.  Shapes and ranges are each class's own checks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import typing

import numpy as np

_BOOLS = (bool, np.bool_)


def _is_number(value) -> bool:
    """A finite number; booleans and arrays are not numbers."""
    try:
        return (not isinstance(value, _BOOLS) and not getattr(value, "ndim", 0)
                and math.isfinite(value))
    except (TypeError, OverflowError):
        return False


def _is_numbers(value) -> bool:
    if isinstance(value, (list, tuple)) or getattr(value, "ndim", 0):
        return all(map(_is_numbers, value))
    return _is_number(value)


# Per annotated field type: what a value must be, the test, and the
# conversion to the field's value.  A ``dict[str, T]`` field takes a
# mapping of what ``T`` admits, a dataclass field an instance of it.
_JSON_TYPES = {
    float: ("a finite number", _is_number, float),
    int: ("a whole number",
          lambda v: _is_number(v) and float(v).is_integer(), int),
    bool: ("true or false", lambda v: isinstance(v, _BOOLS), bool),
    str: ("a string", lambda v: isinstance(v, (str, os.PathLike)), os.fspath),
    np.ndarray: ("a finite number or an evenly nested list of them",
                 _is_numbers, lambda v: np.asarray(v, dtype=float)),
}


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _decode(tp, value, where: str):
    """``value`` checked against the annotated type ``tp`` and converted;
    ``where`` names it in the error."""
    if dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            return value
        raise ValueError(f"{where} must be a {tp.__name__}, got {value!r}")
    kind = typing.get_origin(tp) or tp
    if kind is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a JSON object, got {value!r}")
        item = typing.get_args(tp)[1]
        return {key: _decode(item, v, f"{where} entry {key!r}")
                for key, v in value.items()}
    what, valid, convert = _JSON_TYPES[kind]
    try:
        if valid(value):
            return convert(value)
    except ValueError:  # a ragged list
        pass
    raise ValueError(f"{where} must be {what}, got {value!r}")


def check_fields(obj) -> None:
    """Check every annotated field of the dataclass instance ``obj`` and
    store its converted value; a `ValueError` names the field."""
    for name, tp in _field_types(type(obj)).items():
        setattr(obj, name, _decode(tp, getattr(obj, name), f"field {name!r}"))
