"""Concrete syntax: tokenizer, recursive-descent parser, and printer.

Grammar (whitespace-insensitive)::

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "boxI" unary | "boxF" unary | "diaI" unary
             | "diaF" unary | "[" ident ("," ident)* "]" unary
             | "[" "!" formula "]" unary | primary
    primary := ident | "=" value | "true" | "false" | "(" formula ")"

Atom idents start with a letter; the underscore prefix is reserved for
machine-generated fresh atoms and only accepted when the signature already
declares the name.  Rendering produces minimal parentheses and re-parses to
the same formula node.
"""

from __future__ import annotations

import re

from .syntax import (
    CP,
    And,
    Atom,
    BoxF,
    BoxI,
    Dec,
    Dyn,
    Formula,
    FRESH_PREFIX,
    Iff,
    Implies,
    KEYWORDS,
    Not,
    Or,
    Signature,
    Top,
)

_TOKEN_RE = re.compile(r"(<->|->|[~&|()\[\],=!])|([A-Za-z0-9_]+)|(\S)")


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, position); kind is 'op', 'name', or 'end'."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        assert m is not None
        if m.group(1):
            tokens.append(("op", m.group(1), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        else:
            raise FormulaSyntaxError(f"unexpected character {m.group(3)!r}", pos)
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        kind, t, pos = self.next()
        if t != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {t or 'end of input'!r}", pos)

    def fail(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.peek()[2])

    def formula(self) -> Formula:
        left = self.imp()
        while self.peek()[1] == "<->":
            self.next()
            left = Iff(left, self.imp())
        return left

    def imp(self) -> Formula:
        left = self.or_()
        if self.peek()[1] == "->":
            self.next()
            return Implies(left, self.imp())
        return left

    def or_(self) -> Formula:
        left = self.and_()
        while self.peek()[1] == "|":
            self.next()
            left = Or(left, self.and_())
        return left

    def and_(self) -> Formula:
        left = self.unary()
        while self.peek()[1] == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, t, pos = self.peek()
        if t == "~":
            self.next()
            return Not(self.unary())
        if t in ("boxI", "boxF", "diaI", "diaF") and kind == "name":
            self.next()
            sub = self.unary()
            if t == "boxI":
                return BoxI(sub)
            if t == "boxF":
                return BoxF(sub)
            if t == "diaI":
                return Not(BoxI(Not(sub)))
            return Not(BoxF(Not(sub)))
        if t == "[":
            self.next()
            if self.peek()[1] == "!":
                self.next()
                announced = self.formula()
                self.expect("]")
                return Dyn(announced, self.unary())
            if self.peek()[1] == "]":  # empty index set: nothing held fixed
                self.next()
                return CP((), self.unary())
            names = [self.atom_name()]
            while self.peek()[1] == ",":
                self.next()
                names.append(self.atom_name())
            self.expect("]")
            return CP(tuple(names), self.unary())
        return self.primary()

    def atom_name(self) -> str:
        kind, t, pos = self.next()
        if kind != "name":
            raise FormulaSyntaxError(f"expected an atom name, found {t or 'end of input'!r}", pos)
        self.check_atom(t, pos)
        return t

    def check_atom(self, name: str, pos: int) -> None:
        if name in self.sig._atom_pos:  # a dict: a long index set stays linear
            return
        if name.startswith(FRESH_PREFIX):
            raise FormulaSyntaxError(
                f"atom {name!r} uses the reserved '_' prefix and is not declared", pos
            )
        raise FormulaSyntaxError(f"unknown atom {name!r}", pos)

    def primary(self) -> Formula:
        kind, t, pos = self.next()
        if t == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        if t == "=":
            vkind, value, vpos = self.next()
            if vkind != "name":
                raise FormulaSyntaxError("expected a value name after '='", vpos)
            if value not in self.sig.values:
                raise FormulaSyntaxError(f"unknown value {value!r}", vpos)
            return Dec(value)
        if t == "true":
            return Top()
        if t == "false":
            return Not(Top())
        if kind == "name":
            if t in KEYWORDS:
                raise FormulaSyntaxError(f"misplaced keyword {t!r}", pos)
            self.check_atom(t, pos)
            return Atom(t)
        raise FormulaSyntaxError(f"unexpected {t or 'end of input'!r}", pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse the concrete syntax into an AST over the given signature."""
    p = _Parser(text, sig)
    out = p.formula()
    kind, t, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {t!r}", pos)
    return out


# Printer.  Levels follow the grammar nonterminals.
_IFF, _IMP, _OR, _AND, _UNARY, _PRIMARY = 1, 2, 3, 4, 5, 6


def _match_implies(f: Formula) -> tuple[Formula, Formula] | None:
    if isinstance(f, Not) and isinstance(f.sub, And) and isinstance(f.sub.right, Not):
        return f.sub.left, f.sub.right.sub
    return None


def _match_or(f: Formula) -> tuple[Formula, Formula] | None:
    m = _match_implies(f)
    if m is not None and isinstance(m[0], Not):
        return m[0].sub, m[1]
    return None


def _match_iff(f: Formula) -> tuple[Formula, Formula] | None:
    if isinstance(f, And):
        m1 = _match_implies(f.left)
        m2 = _match_implies(f.right)
        if m1 is not None and m2 is not None and m1 == (m2[1], m2[0]):
            return m1
    return None


def _render(f: Formula, required: int) -> str:
    text, level = _render_raw(f)
    if level < required:
        return f"({text})"
    return text


def _render_raw(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f.name, _PRIMARY
    if isinstance(f, Dec):
        return f"={f.value}", _PRIMARY
    if isinstance(f, Top):
        return "true", _PRIMARY
    if isinstance(f, Not):
        if isinstance(f.sub, Top):
            return "false", _PRIMARY
        m = _match_or(f)
        if m is not None:
            parts = []
            head: Formula = f
            while (m := _match_or(head)) is not None:
                parts.append(m[1])
                head = m[0]
            parts.append(head)
            parts.reverse()
            return " | ".join(_render(p, _AND) for p in parts), _OR
        m = _match_implies(f)
        if m is not None:
            return f"{_render(m[0], _OR)} -> {_render(m[1], _IMP)}", _IMP
        if isinstance(f.sub, BoxI) and isinstance(f.sub.sub, Not):
            return f"diaI {_render(f.sub.sub.sub, _UNARY)}", _UNARY
        if isinstance(f.sub, BoxF) and isinstance(f.sub.sub, Not):
            return f"diaF {_render(f.sub.sub.sub, _UNARY)}", _UNARY
        return f"~{_render(f.sub, _UNARY)}", _UNARY
    if isinstance(f, And):
        m = _match_iff(f)
        if m is not None:
            parts = [m[1]]
            head: Formula = m[0]
            while (m2 := _match_iff(head)) is not None:
                parts.append(m2[1])
                head = m2[0]
            parts.append(head)
            parts.reverse()
            return " <-> ".join(_render(p, _IMP) for p in parts), _IFF
        parts = []
        head: Formula = f
        while isinstance(head, And) and _match_iff(head) is None:
            parts.append(head.right)
            head = head.left
        parts.append(head)
        parts.reverse()
        return " & ".join(_render(p, _UNARY) for p in parts), _AND
    if isinstance(f, BoxI):
        return f"boxI {_render(f.sub, _UNARY)}", _UNARY
    if isinstance(f, BoxF):
        return f"boxF {_render(f.sub, _UNARY)}", _UNARY
    if isinstance(f, CP):
        return f"[{','.join(f.atoms)}] {_render(f.sub, _UNARY)}", _UNARY
    if isinstance(f, Dyn):
        return f"[! {_render(f.announced, _IFF)}] {_render(f.sub, _UNARY)}", _UNARY
    raise TypeError(f"not a formula: {f!r}")


def render_formula(phi: Formula) -> str:
    """Concrete syntax for phi; parsing the result reproduces phi exactly."""
    return _render(phi, _IFF)
