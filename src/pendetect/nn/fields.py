"""One declaration per setting: its type, default and allowed values,
checked the same way wherever a value arrives.

The settings dataclasses declare a row (`Field`) on each field with
`setting` and pass every instance to `check`; the CLI takes its config
rows from them with `declared` and checks JSON documents with `checked`.
So Python callers, config files and checkpoints meet one rule and one
message: "<path> must be <what the row allows>, got <the value>".
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import MISSING, dataclass

REQUIRED = object()
_BAD = object()


@dataclass(frozen=True)
class Field:
    """One field: its dotted key path, type, default and allowed values.

    `type` is int, float (an integer is taken as a float), bool, str, dict
    (kept as given) or list; a bool is never a number. `allowed` is an
    interval such as "[0, 1)" or a vocabulary; a list's items have type
    `item` and must each be allowed. A list is non-empty, with `pair`
    ("<" or "<=") two items in that order, and is checked into a tuple;
    a Python caller may give the tuple itself.
    `null` lets None (JSON null) through; a row with `kind` exists only
    where its block's "kind" has that value. A default is in checked form.
    """

    path: str
    type: type
    default: object = REQUIRED
    allowed: str | tuple[str, ...] = ""
    item: type | None = None
    pair: str = ""
    null: bool = False
    kind: str = ""


def setting(type_: type, allowed: str | tuple[str, ...] = "", default=MISSING, *,
            item: type | None = None, pair: str = "", null: bool = False, kind: str = "",
            config=MISSING):
    """A dataclass field that declares its row: `type_`, `allowed`, `item`,
    `pair`, `null` and `kind` as in Field. `default` is the Python
    default; a config file takes `config` instead when it is given. A
    config key with no default, or whose default its row refuses (None
    without `null`), is required."""
    if config is MISSING:
        config = default
    if config is MISSING or (config is None and not null):
        config = REQUIRED
    row = Field("", type_, config, allowed, item, pair, null, kind)
    return dataclasses.field(default=default, metadata={"row": row})


@functools.cache
def declared(cls, prefix: str = "") -> tuple[Field, ...]:
    """The rows dataclass `cls` declares with `setting`, in field order, each
    path the field's name after `prefix`; cached, as `check` reads them often."""
    return tuple(dataclasses.replace(f.metadata["row"], path=prefix + f.name)
                 for f in dataclasses.fields(cls) if "row" in f.metadata)


def check(obj) -> None:
    """ValueError unless every declared field of the dataclass instance
    `obj` holds a value its row allows. A row with `kind` is checked only
    when `obj.kind` is that kind. Values are kept as given: an integer
    where a number is allowed stays an integer."""
    for f in declared(type(obj)):
        if not f.kind or f.kind == obj.kind:
            check_value(f, getattr(obj, f.path), ValueError)


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               dict: "a JSON object"}


def _item(v, type_: type, allowed):
    """`v` as `type_` if it is one and is allowed, else _BAD. A subclass
    counts (a numpy float64 is a float), but a bool is never a number."""
    if isinstance(v, bool) and type_ is not bool:
        return _BAD
    if type_ is float and isinstance(v, int) and abs(v) <= sys.float_info.max:
        v = float(v)
    if not isinstance(v, type_) or (isinstance(allowed, tuple) and v not in allowed):
        return _BAD
    if isinstance(allowed, str) and allowed:
        lo, hi = map(float, allowed[1:-1].split(","))
        above = lo <= v if allowed[0] == "[" else lo < v
        if not (above and (v <= hi if allowed[-1] == "]" else v < hi)):
            return _BAD
    return v


def _describe(f: Field) -> str:
    what = _TYPE_NAMES[f.item or f.type]
    if isinstance(f.allowed, tuple):
        what = f"one of {', '.join(f.allowed)}"
    elif f.allowed:
        what += f" in {f.allowed}"
    if f.pair:
        what = f"a pair [low, high] with low {f.pair} high, each {what}"
    elif f.type is list:
        what = f"a non-empty list, each item {what}"
    return what + (" or null" if f.null else "")


def check_value(f: Field, value, fault):
    """`value` in checked form if row `f` allows it, else raise
    `fault(message)`, the message starting with the row's path."""
    if value is None and f.null:
        return None
    if f.type is not list:
        out = _item(value, f.type, f.allowed)
    elif type(value) in (list, tuple) and value and not (f.pair and len(value) != 2):
        out = tuple(_item(v, f.item, f.allowed) for v in value)
        lo, hi = out[0], out[-1]
        if _BAD in out or (f.pair == "<" and lo >= hi) or (f.pair == "<=" and lo > hi):
            out = _BAD
    else:
        out = _BAD
    if out is _BAD:
        raise fault(f"{f.path} must be {_describe(f)}, got {json.dumps(value, default=repr)}")
    return out


def checked(doc, path: str, fields: tuple[Field, ...], fault, overrides=None) -> dict:
    """The JSON object `doc` at key path `path` checked against the rows
    of `fields` under it, nested blocks included: every key known, every
    value allowed, absent keys at their defaults. `overrides` maps a row's
    path to a value, checked too, that replaces the document's. A fault
    is `fault(message)`, and the message starts with the key path."""
    if type(doc) is not dict:
        raise fault(f"{path or 'config'} must be a JSON object, got {json.dumps(doc)}")
    overrides = overrides or {}
    prefix = f"{path}." if path else ""
    out: dict = {}
    for f in fields:
        key, _, rest = f.path.removeprefix(prefix).partition(".")
        if not f.path.startswith(prefix) or (f.kind and not rest and f.kind != out.get("kind")):
            continue
        if rest:
            if key not in out:
                out[key] = checked(doc.get(key, {}), prefix + key, fields, fault, overrides)
        elif key in doc or f.path in overrides:
            out[key] = check_value(f, doc[key], fault) if key in doc else None
            if f.path in overrides:
                out[key] = check_value(f, overrides[f.path], fault)
        elif f.default is REQUIRED:
            raise fault(f"{f.path} is required")
        else:
            out[key] = f.default
    unknown = sorted(set(doc) - set(out))
    if unknown:
        raise fault(f"{prefix}{unknown[0]} is not a known key; known: {', '.join(out)}")
    return out
