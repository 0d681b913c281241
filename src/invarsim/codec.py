"""The JSON codec of every document invarsim reads: the scene document, the
scene config, the characterization protocol and the ingest annotation.

A dataclass is its own schema.  Each field is one key of the dataclass's
JSON block: its ``json_key`` metadata, or else its name.  A dotted key such
as ``"render.spp"`` is the ``spp`` key of the nested block ``render``; a
nested block left out reads as ``{}``.  The kind of JSON value the key
holds is the field's ``kind`` metadata, or else the kind its type hint
gives.  A number must be finite: RFC 8259 allows no NaN or Infinity, though
Python's ``json`` reads both.

Every document is read by a reader and the scene document is written by a
writer, each compiled once per dataclass from its block:

- ``_reader(cls, optional)`` checks a block's key set and each value's kind,
  loads the values and builds ``cls``, in one pass.  Its key policy is
  ``optional``: in the hand-written scene config, protocol and annotation a
  key may be left out when its field has a default; in the scene document,
  which the program writes, every key is required.  A valid block costs one
  key-set test and one kind test per value.  Only a block that fails one
  is walked again, by its ``word``, which raises the error naming its
  json_path, in this order: a block that is no JSON object; its first
  unknown key, in document order; then, field by field in declaration
  order, a nested block's error, a value not of its field's kind or a
  missing key.  Reading order across blocks: a block's fields are loaded in
  declaration order, a nested block's after the block's own; a value that
  holds blocks, such as a list of entries, is read through when its field
  is loaded; and a block's constructor runs after all its fields.  Of a
  document's errors, the one raised is the first met in that order.
- ``_writer(cls, depth)`` is the block's layout in ``json.dumps(doc,
  sort_keys=True, indent=1)`` at one nesting depth: a ``%``-template with
  one slot per key, in key order.  A slot is filled as ``json.dumps``
  writes its value's type; a value of variable shape, such as an optional
  block or a list of blocks, by ``_text``, which writes each block it holds
  by that block's compiled writer.  The text is that of ``json.dumps``,
  byte for byte.

``_encode`` gives the JSON block of a protocol's dataclasses, from which its
``canonical_json`` and ``content_hash`` are made.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import operator
import sys
import typing
from json.encoder import encode_basestring_ascii

from .errors import ConfigError


class _Kind(typing.NamedTuple):
    """A kind of JSON value in a document."""

    name: str  #: what the value must be, for the error message
    test: typing.Callable  #: whether a JSON value is of this kind
    load: typing.Callable = lambda value: value  #: a checked value as a field value


def _list_of(n, item):
    """A list of ``n`` values of kind ``item``, loaded as a tuple."""
    return _Kind(f"a list of {n} {item.name.split()[-1]}s",
                 lambda v: isinstance(v, list) and len(v) == n and all(map(item.test, v)),
                 lambda v: tuple(map(item.load, v)))


_MAX = sys.float_info.max
#: a comparison, not math.isfinite, so that an int beyond float range cannot
#: overflow; a float, the common case, is tested first
_NUMBER = _Kind("a finite number",
                lambda v: type(v) is float and -_MAX <= v <= _MAX
                or isinstance(v, (int, float)) and not isinstance(v, bool) and -_MAX <= v <= _MAX,
                float)
_INTEGER = _Kind("an integer",
                 lambda v: type(v) is int or isinstance(v, int) and not isinstance(v, bool))
_STRING = _Kind("a string", lambda v: isinstance(v, str))
_LIST = _Kind("a JSON list", lambda v: isinstance(v, list), tuple)
_OBJECT = _Kind("a JSON object", lambda v: isinstance(v, dict))
_SIMPLE = {float: _NUMBER, int: _INTEGER, str: _STRING, dict: _OBJECT,
           bool: _Kind("true or false", lambda v: isinstance(v, bool))}


def _kind(hint):
    """The kind of JSON value that holds a field of type ``hint``.  A nested
    dataclass is a JSON object, and an enum one of its members' values."""
    args = typing.get_args(hint)
    if type(None) in args:
        name, test, load = _kind(next(a for a in args if a is not type(None)))
        return _Kind(f"{name} or null", lambda v: v is None or test(v),
                     lambda v: None if v is None else load(v))
    if isinstance(hint, enum.EnumMeta):
        values = tuple(member.value for member in hint)
        return _Kind("one of " + ", ".join(map(str, values)), lambda v: v in values, hint)
    if hint is tuple:
        return _LIST
    if typing.get_origin(hint) is tuple:
        return _list_of(len(args), _kind(args[0]))
    if dataclasses.is_dataclass(hint):
        return _OBJECT
    return _SIMPLE[typing.get_origin(hint) or hint]


@functools.cache
def _block(cls):
    """(JSON key, field name, kind, whether the field has no default) of each
    field of dataclass ``cls``, in a JSON block of it."""
    hints = typing.get_type_hints(cls)
    return tuple((f.metadata.get("json_key", f.name), f.name,
                  f.metadata.get("kind") or _kind(hints[f.name]),
                  f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def _encode(spec, **given):
    """The JSON block of dataclass ``spec``: tuples become lists and enums
    their values, and each field named in ``given`` takes the given value."""
    doc = {}
    for key, name, _, _ in _block(type(spec)):
        value = given[name] if name in given else getattr(spec, name)
        *names, leaf = key.split(".")
        block = doc
        for part in names:
            block = block.setdefault(part, {})
        block[leaf] = (list(value) if isinstance(value, tuple)
                       else value.value if isinstance(value, enum.Enum) else value)
    return doc


def _construct(cls, values, path):
    """``cls(**values)``; a pathless ConfigError it raises names ``path``."""
    try:
        return cls(**values)
    except ConfigError as exc:
        if exc.json_path is not None:
            raise
        raise ConfigError(str(exc), json_path=path) from exc


def _expect(kind, value, where):
    """Raise ConfigError, naming json_path ``where``, unless ``value`` is of ``kind``."""
    if not kind.test(value):
        raise ConfigError(f"expected {kind.name}, got {value!r:.60}", json_path=where)


def _key_path(path, key):
    """The json_path of ``key`` in the block at ``path``, for an error."""
    return f"{path}.{key}" if path else key


def _items(kind, values, path):
    """The items of the JSON list ``values`` at ``path``, each checked and
    loaded as ``kind``."""
    for i, value in enumerate(values):
        _expect(kind, value, f"{path}[{i}]")
    return tuple(map(kind.load, values))


def _compile(fields):
    """The loader of the JSON block of ``fields``, each (dotted key, field
    name, kind, whether required): ``load(doc, path, values, loads)`` puts
    the value of each field that the block ``doc`` at ``path`` holds in
    ``values``, by field name, loaded by its kind or by ``loads[name](value,
    json_path)``.  The fields of dotted keys with a common first part make
    up one nested block, at the place of the first of them, loaded after
    the block's own fields; left out, it reads as ``{}``."""
    kinds, plain, required = {}, [], set()
    for key, name, kind, needed in fields:
        head, dot, rest = key.partition(".")
        if dot:
            kinds.setdefault(head, []).append((rest, name, kind, needed))
        else:
            kinds[key] = kind
            plain.append((key, name, kind.test, kind.load))
            if needed:
                required.add(key)
    nested = {key: _compile(group) for key, group in kinds.items() if isinstance(group, list)}
    keys, required = frozenset(kinds), frozenset(required)

    def word(doc, path):
        """Raise the ConfigError, naming its json_path, of the first key or
        value of ``doc`` the block rejects, in the order the module
        docstring gives; return if it rejects none."""
        _expect(_OBJECT, doc, path)
        for key in doc:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r}", json_path=_key_path(path, key))
        for key, kind in kinds.items():
            if key in nested:
                nested[key].word(doc.get(key, {}), _key_path(path, key))
            elif key in doc:
                _expect(kind, doc[key], _key_path(path, key))
            elif key in required:
                raise ConfigError("required key is missing", json_path=_key_path(path, key))

    def load(doc, path, values, loads):
        if not isinstance(doc, dict) or doc.keys() != keys and not required <= doc.keys() <= keys:
            word(doc, path)
        for key, name, test, load_value in plain:
            try:
                value = doc[key]
            except KeyError:  # an optional key left out
                continue
            if not test(value):
                word(doc, path)
            values[name] = (loads[name](value, _key_path(path, key)) if name in loads
                            else load_value(value))
        for key, sub in nested.items():
            sub(doc.get(key, {}), _key_path(path, key), values, loads)
    load.word = word
    return load


@functools.cache
def _reader(cls, optional=False, inline=None, omit=(), require=()):
    """The compiled reader of dataclass ``cls``: ``read(doc, path, **loads)``
    is the ``cls`` of its JSON block ``doc`` at ``path``.  Every key of the
    block is required, or, when ``optional``, those whose field has no
    default and those in ``require``.  The fields named in ``omit`` have no
    key and keep their defaults.  The field named ``inline``, a dataclass,
    has no key either: the block holds its fields as its own, and it is
    built after the other fields are loaded.  Each field named in ``loads``
    is loaded by ``loads[name](value, json_path)`` once its value is of its
    kind; a pathless ConfigError of a constructor names the block's ``path``."""
    def fields(of, leave_out):
        return [(key, name, kind, required or not optional or key in require)
                for key, name, kind, required in _block(of) if name not in leave_out]

    inner_cls = inline and typing.get_type_hints(cls)[inline]
    inner = fields(inner_cls, omit) if inline else []
    load = _compile(fields(cls, (inline, *omit)) + inner)
    inner_names = tuple(name for _, name, _, _ in inner)

    def read(doc, path, **loads):
        values = {}
        load(doc, path, values, loads)
        if inline:
            values[inline] = _construct(
                inner_cls, {name: values.pop(name) for name in inner_names if name in values}, path)
        return _construct(cls, values, path)
    return read


def _each(read):
    """A load of a JSON list of blocks, each read by ``read`` at its index."""
    return lambda docs, path: tuple([read(doc, f"{path}[{i}]") for i, doc in enumerate(docs)])


#: the text of a non-finite float, as ``json.dumps`` writes it
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value):
    """The JSON text of a scalar, as ``json.dumps`` writes it: an enum member
    is its value."""
    if type(value) is float:  # the common case first
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _scalar(float(value))
    if isinstance(value, enum.Enum):
        return _scalar(value.value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _layout(opening, items, closing, depth):
    """The JSON text of a list or object at nesting ``depth`` holding the
    texts ``items``, one a line."""
    if not items:
        return opening + closing
    inner = "\n" + " " * (depth + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + " " * depth + closing


def _text(value, depth):
    """The JSON text of ``value`` at nesting ``depth`` of ``json.dumps(doc,
    sort_keys=True, indent=1)``: a dataclass is its block, a tuple a list,
    and a dict's keys must be strings."""
    if isinstance(value, (list, tuple)):
        return _layout("[", [_text(item, depth + 1) for item in value], "]", depth)
    if isinstance(value, dict):
        return _layout("{", [f"{encode_basestring_ascii(key)}: {_text(item, depth + 1)}"
                             for key, item in sorted(value.items())], "}", depth)
    if dataclasses.is_dataclass(value):
        return _writer(type(value), depth)(value)
    return _scalar(value)


def _slot(hint, depth):
    """The writer of a value of type ``hint`` at nesting ``depth``: a scalar
    and a tuple of scalars are written by their own layout, any other value
    by ``_text``."""
    scalars = (float, int, str, bool)
    if hint in scalars or isinstance(hint, enum.EnumMeta):
        return _scalar
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args and all(arg in scalars for arg in args):
        head = "[\n" + " " * (depth + 1)
        sep, tail = "," + head[1:], "\n" + " " * depth + "]"
        return lambda values: head + sep.join(map(_scalar, values)) + tail if values else "[]"
    return lambda value: _text(value, depth)


@functools.cache
def _writer(cls, depth, inline=None):
    """The compiled writer of dataclass ``cls``'s JSON block at nesting
    ``depth``: ``write(spec, **texts)`` is the block of ``spec``, with the
    given JSON text in the slot of each field named in ``texts``.  The field
    named ``inline``, a dataclass, has no key: the block holds its fields
    as its own.  Keys are sorted, and each is one ``%s`` slot of the
    block's template."""
    hints = typing.get_type_hints(cls)
    slots = [(key, name, hints[name]) for key, name, _, _ in _block(cls) if name != inline]
    if inline:
        inner = typing.get_type_hints(hints[inline])
        slots += [(key, f"{inline}.{name}", inner[name])
                  for key, name, _, _ in _block(hints[inline])]
    slots.sort()
    template = _layout("{", [encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                             for key, _, _ in slots], "}", depth)
    names = tuple(name for _, name, _ in slots)
    writers = tuple(_slot(hint, depth + 1) for _, _, hint in slots)
    get = operator.attrgetter(*names)
    if len(names) == 1:  # attrgetter gives a tuple for two names or more
        get = lambda spec, one=get: (one(spec),)

    def write(spec, **texts):
        return template % tuple([texts[name] if name in texts else write_slot(value)
                                 for name, write_slot, value in zip(names, writers, get(spec))])
    return write
