"""Tiny whitelisted expression grammar for closed-form laws in ``h``.

Config files express sequences like endpoint laws or scale factors as
strings over the alphabet {h, numbers, + - * /, parentheses, sqrt, pow,
exp}.  No names outside the whitelist resolve, so configs stay data, not
code.  ``sqrt`` and ``exp`` take one argument and ``pow`` two.  Whitespace
between tokens and around the law is ignored.

A malformed law, a wrong arity included, raises ``ConfigError`` when it is
parsed.  A law that fails at some ``h`` (division by zero, a math domain
error, an overflow, a non-finite value) raises ``DomainError`` naming the
law, ``h`` and the cause when it is evaluated there.
"""

from __future__ import annotations

import math
import re
from typing import Callable

from .errors import ConfigError, DomainError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]+)|(?P<op>[()+\-*/,]))"
)

# name -> (function, number of arguments)
_FUNCTIONS = {"sqrt": (math.sqrt, 1), "exp": (math.exp, 1), "pow": (math.pow, 2)}


def _tokenize(text: str) -> list:
    out, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ConfigError(f"bad character in law {text!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ConfigError(f"expected {kind}, found {tok}")
        if value is not None and tok[1] != value:
            raise ConfigError(f"expected {value!r}, found {tok}")
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = (lambda a, b, o: (lambda h: a(h) + b(h) if o == "+" else a(h) - b(h)))(
                node, rhs, op
            )
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.unary()
            node = (lambda a, b, o: (lambda h: a(h) * b(h) if o == "*" else a(h) / b(h)))(
                node, rhs, op
            )
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return lambda h: -inner(h)
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.atom()

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return lambda h, v=value: v
        if kind == "name":
            self.take()
            if value == "h":
                return lambda h: float(h)
            if value in _FUNCTIONS:
                fn, arity = _FUNCTIONS[value]
                self.take("op", "(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.take("op", ")")
                if len(args) != arity:
                    raise ConfigError(f"{value} takes {arity} argument(s), got {len(args)}")
                return lambda h, fn=fn, args=tuple(args): fn(*(a(h) for a in args))
            raise ConfigError(f"unknown name {value!r} in law")
        if (kind, value) == ("op", "("):
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        raise ConfigError(f"unexpected token {self.peek()} in law")


def parse_law(text) -> Callable[[int], float]:
    """Compile a law string into ``h -> float``; numbers pass through."""
    if isinstance(text, (int, float)):
        if not math.isfinite(text):
            raise ConfigError(f"law {text!r} is not finite")
        return lambda h, v=float(text): v
    parser = _Parser(_tokenize(str(text)))
    try:
        fn = parser.expr()
    except RecursionError:
        raise ConfigError(f"law {text!r} is nested too deeply") from None
    parser.take("end")

    def law(h) -> float:
        try:
            v = fn(h)
        except (ArithmeticError, ValueError, RecursionError) as exc:
            raise DomainError(f"law {text!r} fails at h={h}: {exc}") from None
        if not math.isfinite(v):
            raise DomainError(f"law {text!r} fails at h={h}: non-finite value {v}")
        return v

    return law
