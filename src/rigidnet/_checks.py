"""The one judge of every number a caller hands the library.

Every config field (each declares its domain once, _domain) and every
scalar argument is read by _number, every node id by _node_ids, and each
fault is a ConfigError in the words "{name} must be {domain}, got
{value!r}".  Arrays keep their own readers: subframeworks._extents,
Framework's positions and symmetric_rigidity_matrix's finite weights.
"""

import numbers
import sys
from dataclasses import MISSING, field, fields


class ConfigError(ValueError):
    """An input the library cannot use, such as a configuration field of
    the wrong type or out of its domain."""


# the domains a value may be held to, by the words its errors use
_DOMAINS = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "at least 1": lambda v: v >= 1,
    "at least 2": lambda v: v >= 2,
    "2 or 3": lambda v: v in (2, 3),
}


def _domain(name, default=MISSING):
    """A config field whose value must be name, one of _DOMAINS."""
    return field(default=default, metadata={"domain": name})


def _is_a(value, kind):
    """Whether value is of the annotated kind: an int passes as a float, a
    bool as neither, and a tuple must hold ints."""
    if kind is tuple:
        return isinstance(value, tuple) and all(_is_a(v, int) for v in value)
    abc = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, abc) and (kind is bool
                                       or not isinstance(value, bool))


def _number(name, value, kind=float, domain=None, subject=None):
    """value, as an int if kind is int, if it is of kind (_is_a), finite if
    a float, and in domain, one of _DOMAINS or None; else a ConfigError
    naming name, or subject for the wrong type."""
    if not _is_a(value, kind):
        label = "list of int" if kind is tuple else kind.__name__
        raise ConfigError(f"{subject or name} must be of type {label}, "
                          f"got {value!r}")
    # false for NaN, the infinities and ints too large for float64
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if domain is not None and not _DOMAINS[domain](value):
        raise ConfigError(f"{name} must be {domain}, got {value!r}")
    return int(value) if kind is int else value


def _check_fields(config):
    """Read every field of a config dataclass through _number, against its
    annotated type and the domain it declares; the first to fail raises."""
    for f in fields(config):
        _number(f.name, getattr(config, f.name), f.type,
                f.metadata.get("domain"), subject=f"field {f.name!r}")


def _node_ids(ids, n, name):
    """ids, one node id or a sequence of them, as an int or a list of ints:
    each a whole number in 0..n - 1, not a bool or a string; else a
    ConfigError naming name."""
    one = isinstance(ids, (str, bytes)) or not hasattr(ids, "__iter__")
    domain = f"{'a node id' if one else 'node ids'} in 0..{n - 1}"
    read = []
    for v in [ids] if one else ids:
        # false for NaN, the infinities and a fraction
        if not (_is_a(v, float) and 0 <= v < n and v == int(v)):
            raise ConfigError(f"{name} must be {domain}, got {v!r}")
        read.append(int(v))
    return read[0] if one else read
