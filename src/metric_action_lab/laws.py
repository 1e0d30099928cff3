"""Tiny whitelisted expression grammar for closed-form laws in ``h``.

Config files express sequences like endpoint laws or scale factors as
strings over the alphabet {h, numbers, + - * /, parentheses, sqrt, pow,
exp}.  Python's own parser reads the law and a whitelist over its syntax
tree admits only those forms, so configs stay data, not code.  Numbers are
ASCII decimals such as ``2``, ``0.5``, ``1.`` or ``1e-3`` (no sign, no
leading zeros on integers, no underscores); ``sqrt`` and ``exp`` take one
positional argument and ``pow`` two.  Whitespace between tokens and around
the law is ignored; comments are not allowed.

A malformed law, a wrong arity included, raises ``ConfigError`` when it is
parsed.  A law that fails at some ``h`` (division by zero, a math domain
error, an overflow, a non-finite value) raises ``DomainError`` naming the
law, ``h`` and the cause when it is evaluated there.

The ``config_*`` readers check the other values of a config file where
they are read: a value of the wrong JSON type raises ``ConfigError`` naming
its key.  The objects that hold them, and the keys each may carry, are
declared in ``harness``.
"""

from __future__ import annotations

import ast
import math
import numbers
import re
import warnings
from typing import Callable

from .errors import ConfigError, DomainError

_NUMERAL = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")

# name -> (function, number of arguments)
_FUNCTIONS = {"sqrt": (math.sqrt, 1), "exp": (math.exp, 1), "pow": (math.pow, 2)}

# operator -> builder of the closure that applies it to two compiled operands
_BINARY = {
    ast.Add: lambda a, b: lambda h: a(h) + b(h),
    ast.Sub: lambda a, b: lambda h: a(h) - b(h),
    ast.Mult: lambda a, b: lambda h: a(h) * b(h),
    ast.Div: lambda a, b: lambda h: a(h) / b(h),
}


def _compile(node: ast.AST, src: str) -> Callable[[int], float]:
    """``h -> float`` for a whitelisted node of ``src``; ``ConfigError`` otherwise.

    Numbers are ``float`` of their source text and ``h`` is ``float(h)``, so
    every operation is an IEEE operation on exactly those floats.
    """
    if isinstance(node, ast.Constant):
        text = src[node.col_offset : node.end_col_offset]
        if _NUMERAL.fullmatch(text):
            value = float(text)
            return lambda h: value
    elif isinstance(node, ast.Name) and node.id == "h":
        return lambda h: float(h)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_compile(node.left, src), _compile(node.right, src))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _compile(node.operand, src)
        return inner if isinstance(node.op, ast.UAdd) else lambda h: -inner(h)
    elif (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in _FUNCTIONS
        and not node.keywords
    ):
        fn, arity = _FUNCTIONS[node.func.id]
        if len(node.args) != arity:
            raise ConfigError(f"{node.func.id} takes {arity} argument(s), got {len(node.args)}")
        args = [_compile(arg, src) for arg in node.args]
        return lambda h: fn(*(arg(h) for arg in args))
    raise ConfigError(f"{src[node.col_offset : node.end_col_offset]!r} is not in the law grammar")


def parse_law(text) -> Callable[[int], float]:
    """Compile a law string into ``h -> float``; numbers pass through, and a
    boolean is neither."""
    if isinstance(text, bool):
        raise ConfigError(f"law {text!r} is not a number or a string")
    if isinstance(text, (int, float)):
        if not math.isfinite(text):
            raise ConfigError(f"law {text!r} is not finite")
        return lambda h, v=float(text): v
    # eval mode rejects a leading space and an inner newline
    src = " ".join(str(text).split())
    try:
        # the syntax tree keeps no comment and no trailing comma of a call,
        # and Python reads some non-ASCII names as ASCII ones (a fullwidth h as h)
        if not src.isascii() or "#" in src or ",)" in src.replace(" ", ""):
            raise ConfigError("only ASCII laws without comments or trailing commas parse")
        with warnings.catch_warnings():
            # a parser warning becomes a SyntaxError instead of stderr noise
            warnings.simplefilter("error")
            tree = ast.parse(src, mode="eval")
        fn = _compile(tree.body, src)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # ConfigError is a ValueError too; MemoryError is a parser stack overflow
        raise ConfigError(f"law {text!r} does not parse: {exc or 'nested too deeply'}") from None

    def law(h) -> float:
        try:
            v = fn(h)
        except (ArithmeticError, ValueError, RecursionError) as exc:
            raise DomainError(f"law {text!r} fails at h={h}: {exc}") from None
        if not math.isfinite(v):
            raise DomainError(f"law {text!r} fails at h={h}: non-finite value {v}")
        return v

    return law


class ConfigObject(dict):
    """A JSON object of a config file: a missing required key is a ``ConfigError``."""

    def __missing__(self, key):
        raise ConfigError(f"config is missing required key {key!r}")


def config_number(value, key: str, kind=float):
    """``kind(value)`` for the config value under ``key``.

    Raises ``ConfigError`` unless ``value`` is a finite number (JSON's
    ``NaN`` and ``Infinity`` are not), and an integer when ``kind`` is
    ``int``; a boolean is neither.
    """
    wanted = numbers.Integral if kind is int else numbers.Real
    if (
        isinstance(value, bool)
        or not isinstance(value, wanted)
        or not (isinstance(value, numbers.Integral) or math.isfinite(value))
    ):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return kind(value)


def config_count(value, key: str) -> int:
    """The config value under ``key``, which must be an integer of at least 1."""
    n = config_number(value, key, int)
    if n < 1:
        raise ConfigError(f"config key {key!r} must be at least 1, got {n}")
    return n


def config_bool(value, key: str) -> bool:
    """The config value under ``key``, which must be JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def as_coords(v):
    """Coordinates of a config point: a list as is, a scalar as one value."""
    return v if isinstance(v, (list, tuple)) else [v]


def config_point(space, value, key: str):
    """The point of ``space`` under ``key``: a number or a list of numbers."""
    return space.point(*[config_number(c, key) for c in as_coords(value)])


def config_h_list(value) -> list:
    """The indices under ``h_list``, which must be a list of positive numbers."""
    if not isinstance(value, list) or not all(
        isinstance(h, numbers.Real) and not isinstance(h, bool) and 0 < h < math.inf
        for h in value
    ):
        raise ConfigError(f"config key 'h_list' must be a list of positive numbers, got {value!r}")
    return list(value)
