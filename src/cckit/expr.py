"""A tiny arithmetic-expression language for pointwise maps.

Grammar (operators in increasing binding strength; ``^`` is
right-associative exponentiation):

    expr    := term  (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-') unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Known call names: exp, log, sqrt, abs, max, min (max/min take two or
more arguments, the rest exactly one). Any other NAME is a variable
resolved from the evaluation environment. Parse failures carry the byte
offset of the offending token; evaluation failures (log of a negative,
division by zero, overflow to non-finite) raise ``DomainError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParseError

#: one-argument functions with their derivatives f'(x), given x and f(x)
_FUNCS_1 = {
    "exp": (math.exp, lambda x, v: v),
    "log": (math.log, lambda x, v: 1.0 / x),
    "sqrt": (math.sqrt, lambda x, v: 0.5 / v),
    "abs": (abs, lambda x, v: (x > 0.0) - (x < 0.0)),
}
_FUNCS_N = {"max": max, "min": min}


@dataclass(frozen=True)
class Token:
    kind: str  # num | name | op | lparen | rparen | comma | end
    text: str
    offset: int


def _tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = src[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    if j + 1 < n and src[j + 1].isdigit():
                        seen_exp = True
                        j += 1
                    elif (
                        j + 2 < n
                        and src[j + 1] in "+-"
                        and src[j + 2].isdigit()
                    ):
                        seen_exp = True
                        j += 2
                    else:
                        break
                else:
                    break
            toks.append(Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Token("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            toks.append(Token("op", ch, i))
        elif ch == "(":
            toks.append(Token("lparen", ch, i))
        elif ch == ")":
            toks.append(Token("rparen", ch, i))
        elif ch == ",":
            toks.append(Token("comma", ch, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", offset=i)
        i += 1
    toks.append(Token("end", "", n))
    return toks


# AST nodes are plain tuples: ("num", v) ("var", name) ("call", name, args)
# ("bin", op, lhs, rhs) ("neg", operand)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, got {t.text!r}", offset=t.offset)
        return self.take()

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", offset=t.offset)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.take()
            operand = self.unary()
            return operand if t.text == "+" else ("neg", operand)
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            return ("bin", "^", base, self.unary())
        return base

    def atom(self):
        t = self.take()
        if t.kind == "num":
            return ("num", float(t.text))
        if t.kind == "name":
            if self.peek().kind == "lparen":
                self.take()
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.take()
                    args.append(self.expr())
                self.expect("rparen")
                if t.text in _FUNCS_1:
                    if len(args) != 1:
                        raise ParseError(
                            f"{t.text} takes exactly one argument", offset=t.offset
                        )
                elif t.text in _FUNCS_N:
                    if len(args) < 2:
                        raise ParseError(
                            f"{t.text} takes at least two arguments", offset=t.offset
                        )
                else:
                    raise ParseError(f"unknown function {t.text!r}", offset=t.offset)
                return ("call", t.text, tuple(args))
            return ("var", t.text)
        if t.kind == "lparen":
            node = self.expr()
            self.expect("rparen")
            return node
        raise ParseError(f"unexpected token {t.text!r}", offset=t.offset)


class Expression:
    """A parsed expression; evaluate with a {name: value} environment."""

    def __init__(self, src: str):
        self.src = src
        self.ast = _Parser(src).parse()
        self.variables = sorted(_collect_vars(self.ast))

    def __call__(self, **env: float) -> float:
        return self.eval(env)

    def eval(self, env: dict) -> float:
        v = _eval(self.ast, env, self.src)
        if not math.isfinite(v):  # from finite inputs, only after an overflow
            raise DomainError(f"expression {self.src!r} evaluated to {v!r}") from OverflowError(v)
        return v

    def derivative(self, env: dict, wrt: str) -> float:
        """Exact d/d(wrt), forward mode: one walk that computes each value as
        ``eval`` does and carries the one-sided derivatives, so kinks compose.
        Returns their mean, a subgradient at a kink (``abs`` at 0 gives 0; a
        ``max``/``min`` tie of two smooth arguments, their mean derivative).
        ``DomainError`` where it is undefined (``sqrt`` at 0, ``0 ^ b`` with
        b < 1, a base <= 0 under a variable exponent) or not finite; a
        subexpression that does not vary contributes 0 wherever defined."""
        v, p, m = _eval_d(self.ast, env, wrt, self.src)
        d = 0.5 * (p - m)
        if not (math.isfinite(v) and math.isfinite(d)):
            raise DomainError(f"{self.src!r}: value {v!r}, derivative {d!r}")
        return d

    def __repr__(self):
        return f"Expression({self.src!r})"


def _collect_vars(node) -> set:
    tag = node[0]
    if tag == "num":
        return set()
    if tag == "var":
        return {node[1]}
    if tag == "neg":
        return _collect_vars(node[1])
    if tag == "call":
        out = set()
        for a in node[2]:
            out |= _collect_vars(a)
        return out
    return _collect_vars(node[2]) | _collect_vars(node[3])


def _call(name: str, args: list) -> float:
    try:
        if name in _FUNCS_1:
            return _FUNCS_1[name][0](args[0])
        return _FUNCS_N[name](*args)
    except ValueError as exc:
        raise DomainError(f"{name}({args[0]!r}) is undefined") from exc
    except OverflowError as exc:
        raise DomainError(f"{name} overflowed") from exc


def _div(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        raise DomainError("division by zero")
    return lhs / rhs


def _pow(lhs: float, rhs: float) -> float:
    try:
        v = lhs ** rhs
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{lhs!r} ^ {rhs!r} is undefined") from exc
    if isinstance(v, complex):
        raise DomainError(f"{lhs!r} ^ {rhs!r} is not real")
    return v


def _eval(node, env: dict, src: str) -> float:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        name = node[1]
        if name not in env:
            raise DomainError(f"unbound variable {name!r} in {src!r}")
        return float(env[name])
    if tag == "neg":
        return -_eval(node[1], env, src)
    if tag == "call":
        return _call(node[1], [_eval(a, env, src) for a in node[2]])
    _, op, lhs_n, rhs_n = node
    lhs = _eval(lhs_n, env, src)
    rhs = _eval(rhs_n, env, src)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return _div(lhs, rhs)
    return _pow(lhs, rhs)


def _eval_d(node, env: dict, wrt: str, src: str):
    """(value, p, m): ``_eval``'s value with its directional derivatives
    along +1 and -1 in ``wrt``, which compose through kinks (smooth: m = -p)."""
    tag = node[0]
    if tag == "num":
        return node[1], 0.0, 0.0
    if tag == "var":
        p = float(node[1] == wrt)
        return _eval(node, env, src), p, -p
    if tag == "neg":
        v, p, m = _eval_d(node[1], env, wrt, src)
        return -v, -p, -m
    if tag == "call":
        name = node[1]
        args = [_eval_d(a, env, wrt, src) for a in node[2]]
        v = _call(name, [a[0] for a in args])
        if name in _FUNCS_N:  # the tying arguments' extreme slope, each way
            ties = [a for a in args if a[0] == v] or [(v, math.nan, math.nan)]
            pick = _FUNCS_N[name]
            return v, pick(a[1] for a in ties), pick(a[2] for a in ties)
        (x, p, m), = args
        if not (p or m) or name == "abs" and x == 0.0:  # constant, or abs' kink
            return v, abs(p), abs(m)
        if name == "sqrt" and v == 0.0:
            raise DomainError(f"sqrt has no derivative at 0 in {src!r}")
        f1 = _FUNCS_1[name][1](x, v)
        return v, f1 * p, f1 * m
    _, op, lhs_n, rhs_n = node
    lhs, pl, ml = _eval_d(lhs_n, env, wrt, src)
    rhs, pr, mr = _eval_d(rhs_n, env, wrt, src)
    if op == "+":
        return lhs + rhs, pl + pr, ml + mr
    if op == "-":
        return lhs - rhs, pl - pr, ml - mr
    if op == "*":
        return lhs * rhs, pl * rhs + lhs * pr, ml * rhs + lhs * mr
    if op == "/":
        v = _div(lhs, rhs)
        return v, (pl - v * pr) / rhs, (ml - v * mr) / rhs
    v = _pow(lhs, rhs)
    if (pr or mr) and not lhs > 0.0:
        raise DomainError(f"{lhs!r} ^ b has no derivative in b in {src!r}")
    f1 = rhs * _pow(lhs, rhs - 1.0) if pl or ml else 0.0
    g1 = v * math.log(lhs) if pr or mr else 0.0
    return v, f1 * pl + g1 * pr, f1 * ml + g1 * mr
