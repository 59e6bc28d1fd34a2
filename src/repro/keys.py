"""Canonical cache keys for configuration dataclasses.

Every configuration object that participates in a cache key — compiler
options, machine configs, predictor configs — must serialize to the
*same* string whenever two instances are equal, regardless of how they
were constructed (``replace()``, keyword order, defaulting).  Ad-hoc
``repr`` is not good enough: it follows field *declaration* order,
omits nothing, and silently changes when a field is added, so two
semantically equal configs from different code versions can collide or
diverge.  :func:`config_key` is the one canonical recipe; the harness
cache (``repro.harness.cachedir``) refuses anything else.

The recipe: ``ClassName(field=value, ...)`` with fields sorted by
name, values rendered by :func:`value_key` (primitives via ``repr``,
nested dataclasses recursively, containers element-wise).  Unsupported
value types raise ``TypeError`` loudly instead of producing an
unstable key.

:func:`config_key` is memoized per process on the config's exact value
(:func:`_exact`): a warm experiment pass asks for the key of the same
few machine and compiler configs hundreds of times.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Dict, Hashable, Tuple

__all__ = ["config_key", "value_key"]


def value_key(value: object) -> str:
    """Canonical string for one config value (see module docstring)."""
    if is_dataclass(value) and not isinstance(value, type):
        return config_key(value)
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        # repr() round-trips floats exactly in Python 3.
        return repr(value)
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[%s]" % ",".join(value_key(item) for item in value)
    if isinstance(value, dict):
        items = sorted((value_key(k), value_key(v))
                       for k, v in value.items())
        return "{%s}" % ",".join("%s:%s" % item for item in items)
    if isinstance(value, frozenset):
        return "{%s}" % ",".join(sorted(value_key(v) for v in value))
    raise TypeError(
        "cannot build a stable cache key from %r (type %s); add support "
        "in repro.keys.value_key or exclude the field" %
        (value, type(value).__name__))


#: types whose values compare equal only to values that render the
#: same, once the type is attached (``True == 1``, but not with types)
_PLAIN = frozenset((bool, int, str, type(None)))

#: dataclass type -> its field names
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _exact(value: object) -> Hashable:
    """*value* with its type attached at every level, as a memo key.
    Values that compare equal but render differently stay apart:
    ``True``, ``1`` and ``1.0`` by their types, ``0.0`` and ``-0.0`` by
    their hex form.  Other value types (dicts, sets, subclasses) raise
    ``TypeError``, and the caller then skips the memo."""
    kind = type(value)
    if kind in _PLAIN:
        return kind, value
    if kind is float:
        return kind, value.hex()
    if is_dataclass(value) and not isinstance(value, type):
        names = _FIELD_NAMES.get(kind)
        if names is None:
            names = _FIELD_NAMES[kind] = tuple(f.name for f in fields(value))
        items = tuple([getattr(value, name) for name in names])
    elif kind in (tuple, list):
        items = tuple(value)
    else:
        raise TypeError("no exact memo key for %s" % kind.__name__)
    types = tuple(map(type, items))
    if not _PLAIN.issuperset(types):
        items = tuple(item if type(item) in _PLAIN else _exact(item)
                      for item in items)
    return kind, types, items


#: exact config value (:func:`_exact`) -> its key, per process
_KEYS: Dict[Hashable, str] = {}


def config_key(config: object) -> str:
    """Canonical key string for a config dataclass instance.

    Equal instances always map to the same string; any field change
    (including inside nested dataclasses) changes it.
    """
    if not is_dataclass(config) or isinstance(config, type):
        raise TypeError("config_key expects a dataclass instance, got %r"
                        % (config,))
    try:
        exact = _exact(config)
        key = _KEYS.get(exact)
    except TypeError:
        exact = key = None
    if key is None:
        parts = ["%s=%s" % (f.name, value_key(getattr(config, f.name)))
                 for f in sorted(fields(config), key=lambda f: f.name)]
        key = "%s(%s)" % (type(config).__name__, ",".join(parts))
        if exact is not None:
            _KEYS[exact] = key
    return key
