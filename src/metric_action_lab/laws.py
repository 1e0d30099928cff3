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
"""

from __future__ import annotations

import ast
import math
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
    """Compile a law string into ``h -> float``; numbers pass through."""
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
