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
writer, each compiled from its block at first use: one Python function per
dataclass, generated from source as ``dataclasses`` generates ``__init__``.

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
  sort_keys=True, indent=1)`` at one nesting depth: an f-string with one
  slot per key, in key order.  A slot is filled as ``json.dumps`` writes
  its value's type; a value of variable shape, such as an optional block
  or a list of blocks, by ``_text``, which writes each block it holds by
  that block's writer.  The text is that of ``json.dumps``, byte for byte.

``_encode`` gives the JSON block of a protocol's dataclasses, from which its
``canonical_json`` and ``content_hash`` are made.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sys
import typing
from json.encoder import encode_basestring_ascii

from .errors import ConfigError


class _Kind(typing.NamedTuple):
    """A kind of JSON value in a document."""

    name: str  #: what the value must be, for the error message
    test: typing.Callable  #: whether a JSON value is of this kind
    load: typing.Callable = lambda value: value  #: a checked value as a field value
    #: (test, load) of a value ``{v}`` as Python a reader inlines; else it calls the two
    code: tuple | None = None


def _list_of(n, item):
    """A list of ``n`` values of kind ``item``, loaded as a tuple."""
    code = item.code and (
        f"isinstance({{v}}, list) and len({{v}}) == {n}"
        + "".join(f" and ({item.code[0]})".replace("{v}", f"{{v}}[{i}]") for i in range(n)),
        "(" + "".join(f"{item.code[1]}, ".replace("{v}", f"{{v}}[{i}]") for i in range(n)) + ")")
    return _Kind(f"a list of {n} {item.name.split()[-1]}s",
                 lambda v: isinstance(v, list) and len(v) == n and all(map(item.test, v)),
                 lambda v: tuple(map(item.load, v)), code)


_MAX = sys.float_info.max
#: a comparison, not math.isfinite, so that an int beyond float range cannot
#: overflow; a float, the common case, is tested first
_NUMBER = _Kind("a finite number",
                lambda v: type(v) is float and -_MAX <= v <= _MAX
                or isinstance(v, (int, float)) and not isinstance(v, bool) and -_MAX <= v <= _MAX,
                float, ("type({v}) is float and {v} - {v} == 0.0 or _NUMBER.test({v})",
                        "float({v})"))
_INTEGER = _Kind("an integer",
                 lambda v: type(v) is int or isinstance(v, int) and not isinstance(v, bool),
                 code=("type({v}) is int or _INTEGER.test({v})", "{v}"))
_STRING = _Kind("a string", lambda v: isinstance(v, str), code=("isinstance({v}, str)", "{v}"))
_LIST = _Kind("a JSON list", lambda v: isinstance(v, list), tuple)
_OBJECT = _Kind("a JSON object", lambda v: isinstance(v, dict))
_SIMPLE = {float: _NUMBER, int: _INTEGER, str: _STRING, dict: _OBJECT,
           bool: _Kind("true or false", lambda v: isinstance(v, bool),
                       code=("isinstance({v}, bool)", "{v}"))}


def _kind(hint):
    """The kind of JSON value that holds a field of type ``hint``.  A nested
    dataclass is a JSON object, and an enum one of its members' values."""
    args = typing.get_args(hint)
    if type(None) in args:
        name, test, load, code = _kind(next(a for a in args if a is not type(None)))
        return _Kind(f"{name} or null", lambda v: v is None or test(v),
                     lambda v: None if v is None else load(v),
                     code and (f"{{v}} is None or ({code[0]})",
                               f"None if {{v}} is None else {code[1]}"))
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


def _encode(spec):
    """The JSON block of dataclass ``spec``: tuples become lists and enums
    their values."""
    doc = {}
    for key, name, _, _ in _block(type(spec)):
        value = getattr(spec, name)
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


def _compile(fields, doc, path, bind):
    """The ``word`` of the JSON block of ``fields``, each (dotted key, field
    name, kind, whether required, its local, the Python of its default), and
    the lines that test the block in local ``doc`` at json_path ``path`` and
    load each value into its field's local, calling ``word`` on a failed
    test.  The fields of dotted keys with a common first part make up one
    nested block, at the place of the first of them, loaded after the
    block's own fields; left out, it reads as ``{}``."""
    kinds, plain, required, nested, lines = {}, [], set(), {}, []
    for key, *field in fields:
        head, dot, rest = key.partition(".")
        if dot:
            kinds.setdefault(head, []).append((rest, *field))
        else:
            kinds[key] = field[1]
            plain.append((key, *field))
            if field[2]:
                required.add(key)
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
                nested[key](doc.get(key, {}), _key_path(path, key))
            elif key in doc:
                _expect(kind, doc[key], _key_path(path, key))
            elif key in required:
                raise ConfigError("required key is missing", json_path=_key_path(path, key))

    fail, key_set = f"{bind(word)}({doc}, {path})", bind(keys)
    lines += [f"if not isinstance({doc}, dict) or {doc}.keys() != {key_set} "
              f"and not {bind(required)} <= {doc}.keys() <= {key_set}:", f" {fail}"]
    for key, name, kind, needed, local, default in plain:
        test, load = kind.code or (  # with no code: the kind's own load, or that in ``loads``
            f"{bind(kind.test)}(v)",
            f"loads.get({name!r}, {bind(lambda value, _, load=kind.load: load(value))})"
            f"(v, _key_path({path}, {key!r}))")
        value = local if load == "{v}" else "v"  # a value loaded as it is needs no copy
        steps = [step.replace("{v}", value) for step in (f"{value} = {doc}[{key!r}]",
                 f"if not ({test}): {fail}", *[f"{local} = {load}"] * (value == "v"))]
        lines += steps if needed else [f"if {key!r} in {doc}:", *[" " + step for step in steps],
                                       f"else: {local} = {default}"]
    for head, group in kinds.items():
        if isinstance(group, list):
            sub, sub_path = f"{doc}_{len(nested)}", f"{path}_{len(nested)}"
            nested[head], sub_lines = _compile(group, sub, sub_path, bind)
            lines += [f"{sub} = {doc}.get({head!r}, {{}})",
                      f"{sub_path} = _key_path({path}, {head!r})", *sub_lines]
    return word, lines


class _Scope(list):
    """The values of a generated function's closure: ``bind`` names a new one,
    and ``define`` makes the function ``def name(params):`` of body ``lines``."""

    def bind(self, value):
        self.append(value)
        return f"_c{len(self) - 1}"

    def define(self, name, params, lines):
        scope = {}
        exec(f"def make({''.join(f'_c{i}, ' for i in range(len(self)))}):\n"
             f" def {name}({params}):\n" + "".join(f"  {line}\n" for line in lines)
             + f" return {name}", globals(), scope)
        return scope["make"](*self)


@functools.cache
def _reader(cls, optional=False, inline=None, omit=(), require=()):
    """The compiled reader of dataclass ``cls``: ``read(doc, path, **loads)``
    is the ``cls`` of its JSON block ``doc`` at ``path``.  Every key of the
    block is required, or, when ``optional``, those whose field has no
    default and those in ``require``.  The fields named in ``omit`` have no
    key and keep their defaults.  The field named ``inline``, a dataclass,
    has no key either: the block holds its fields as its own, and it is
    built after the other fields are loaded.  Each field named in ``loads``,
    one whose kind has no code, is loaded by ``loads[name](value,
    json_path)`` once its value is of its kind; a pathless ConfigError of a
    constructor names the block's ``path``.  The reader's source holds the
    key-set test, each value's test and load, and each constructor's call."""
    scope = _Scope()
    bind = scope.bind

    def fields(of, leave_out, prefix):
        """The fields of ``of`` the block holds, loaded into the locals named
        ``prefix`` and an index, and the Python of the constructor call."""
        held, args = [], []
        for (key, name, kind, no_default), field in zip(_block(of), dataclasses.fields(of)):
            needed = no_default or not optional or key in require
            default = None if needed and name not in leave_out else (
                bind(field.default) if field.default is not dataclasses.MISSING
                else f"{bind(field.default_factory)}()")
            local = f"{prefix}{len(args)}"
            if name not in leave_out:
                held.append((key, name, kind, needed, local, default))
            args.append("inner" if name == inline else default if name in leave_out else local)
        return held, f"{bind(of)}({', '.join(args)})"

    outer, call = fields(cls, (inline, *omit), "a")
    inner, build = fields(typing.get_type_hints(cls)[inline], omit, "b") if inline else ([], "")
    _, lines = _compile(outer + inner, "doc", "path", bind)
    lines += ["try:", *[f" inner = {build}"] * bool(inline), f" return {call}",
              "except ConfigError as exc:",
              " if exc.json_path is not None:", "  raise",
              " raise ConfigError(str(exc), json_path=path) from exc"]
    return scope.define("read", "doc, path, **loads", lines)


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


def _text(value, depth, floats=None):
    """The JSON text of ``value`` at nesting ``depth`` of ``json.dumps(doc,
    sort_keys=True, indent=1)``: a dataclass is its block, a tuple a list,
    and a dict's keys must be strings; ``floats`` as ``_writer`` has it."""
    if isinstance(value, (list, tuple)):  # each type of item's writer is looked up once
        write = functools.cache(lambda kind: _writer(kind, depth + 1) if dataclasses.is_dataclass(
            kind) else lambda item, floats: _text(item, depth + 1, floats))
        return _layout("[", [write(type(item))(item, floats) for item in value], "]", depth)
    if isinstance(value, dict):
        return _layout("{", [f"{encode_basestring_ascii(key)}: {_text(item, depth + 1, floats)}"
                             for key, item in sorted(value.items())], "}", depth)
    if dataclasses.is_dataclass(value):
        return _writer(type(value), depth)(value, floats)
    return _scalar(value)


#: the JSON text of a scalar ``{v}`` of each type: for a value of another
#: type, a zero or a non-finite float, that of ``_scalar``
_INLINE = {float: "_f.get(_x) or _f.setdefault(_x, float.__repr__(_x))"
                  " if type(_x := {v}) is float and _x - _x == 0.0 and _x else _scalar(_x)",
           int: "int.__repr__(_x) if type(_x := {v}) is int else _scalar(_x)",
           str: "encode_basestring_ascii(_x) if type(_x := {v}) is str else _scalar(_x)"}
_SLOT = "\0"  #: a slot of a layout: JSON text escapes a NUL


def _fill(layout, texts, bind, quote):
    """A Python f-string, in ``quote``s, of the text ``layout`` with the
    Python expression of each of ``texts`` in place of each ``_SLOT``."""
    pieces = [f"{{{bind(piece)}}}" for piece in layout.split(_SLOT)]
    return f"f{quote}{''.join(f'{p}{{{t}}}' for p, t in zip(pieces, texts))}{pieces[-1]}{quote}"


def _slot(value, hint, depth, bind):
    """A Python expression of the JSON text of the Python expression
    ``value``, of type ``hint``, at nesting ``depth``: a scalar inline, a
    tuple of scalars of its hint's length by its layout, else ``_text``."""
    if hint in _INLINE:
        return "(" + _INLINE[hint].replace("{v}", value) + ")"
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args and all(arg in _INLINE for arg in args):
        layout = _layout("[", [_SLOT] * len(args), "]", depth)
        items = [_slot(f"_t[{i}]", arg, depth + 1, bind) for i, arg in enumerate(args)]
        return (f"({_fill(layout, items, bind, chr(39))} if len(_t := {value}) == {len(args)}"
                f" else _text(_t, {depth}, _f))")
    return f"_text({value}, {depth}, _f)"


@functools.cache
def _writer(cls, depth, inline=None, given=()):
    """The compiled writer of dataclass ``cls``'s JSON block at nesting
    ``depth``: ``write(spec, **texts)`` is the block of ``spec``, with the
    JSON text ``texts[name]`` in the slot of each field named in ``given``.
    The field named ``inline``, a dataclass, has no key: the block holds
    its fields as its own.  The writer is one generated function: an
    f-string of the block's layout, keys sorted, with each value's
    expression in its slot (see ``_slot``).  A block and the blocks it
    holds write each finite nonzero float once: ``write(spec, floats)``
    keeps its text in the dict ``floats``, since a city's facades repeat them."""
    hints = typing.get_type_hints(cls)
    slots = [(key, name, f"spec.{name}", hints[name])
             for key, name, _, _ in _block(cls) if name != inline]
    if inline:
        inner = typing.get_type_hints(hints[inline])
        slots += [(key, name, f"spec.{inline}.{name}", inner[name])
                  for key, name, _, _ in _block(hints[inline])]
    slots.sort()
    scope = _Scope()
    layout = _layout("{", [f"{encode_basestring_ascii(key)}: {_SLOT}" for key, *_ in slots],
                     "}", depth)
    texts = [name if name in given else _slot(value, hint, depth + 1, scope.bind)
             for _, name, value, hint in slots]
    return scope.define("write", ", ".join(("spec", *given, "_f=None")), [
        "_f = {} if _f is None else _f", f"return {_fill(layout, texts, scope.bind, chr(34))}"])
