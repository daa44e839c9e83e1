"""Text format for model definitions (.mcca files).

Grammar (whitespace insignificant, comments run from '#' to end of line):

    model <name> ;
    gen <id> : <degree> ;          # one per generator, degree >= 2
    d <id> = <poly> ;              # omitted generators have d = 0

    poly  := term (('+'|'-') term)*  |  '0'
    term  := [coeff '*'] factor ('*' factor)*
    coeff := integer | integer '/' integer     (optional leading '-')
    factor:= <id> ['^' exponent]

'^' binds tighter than '*', which binds tighter than '+'/'-'.  Identifiers
are ASCII alphanumerics plus underscore; the model name additionally allows
'-'.  Parse and semantic errors carry line:column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from .algebra import IDENTIFIER, Generator, Polynomial, Q
from .model import SullivanModel


@dataclass(frozen=True)
class ParseError(ValueError):
    message: str
    line: int
    column: int
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}: {self.message}"


_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>\d+)
      | (?P<name>{IDENTIFIER})
      | (?P<punct>[;:=+\-*/^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "name" | "punct" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col, filename)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column, self.filename)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self.error(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "name" or tok.text != word:
            raise self.error(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    # model <name>; gen lines; d lines
    def parse_model(self) -> SullivanModel:
        self.expect_keyword("model")
        name_tok = self.next()
        if name_tok.kind not in ("name", "number"):
            raise self.error("expected a model name", name_tok)
        # dashed names like V-ex31 are split by the tokenizer; glue adjacent runs
        label = name_tok.text
        end_col = name_tok.column + len(name_tok.text)
        while True:
            nxt = self.peek()
            adjacent = nxt.line == name_tok.line and nxt.column == end_col
            if adjacent and (nxt.kind in ("name", "number") or nxt.text == "-"):
                label += self.next().text
                end_col += len(nxt.text)
            else:
                break
        self.expect("punct", ";")
        gens: dict[str, Generator] = {}
        order: list[Generator] = []
        while self.peek().kind == "name" and self.peek().text == "gen":
            self.next()
            id_tok = self.expect("name")
            if id_tok.text in gens:
                raise self.error(f"generator {id_tok.text!r} declared twice", id_tok)
            self.expect("punct", ":")
            deg_tok = self.expect("number")
            degree = int(deg_tok.text)
            if degree < 2:
                raise self.error(
                    f"generator degree must be >= 2 (1-connectedness), got {degree}",
                    deg_tok,
                )
            self.expect("punct", ";")
            g = Generator(id_tok.text, degree)
            gens[g.name] = g
            order.append(g)
        diff: dict[str, Polynomial] = {}
        warnings: list[str] = []
        while self.peek().kind == "name" and self.peek().text == "d":
            self.next()
            id_tok = self.expect("name")
            if id_tok.text not in gens:
                raise self.error(f"unknown generator {id_tok.text!r}", id_tok)
            if id_tok.text in diff:
                raise self.error(f"differential of {id_tok.text!r} given twice", id_tok)
            g = gens[id_tok.text]
            self.expect("punct", "=")
            poly, vanished = self.parse_poly(gens, expected_degree=g.degree + 1, owner=g)
            self.expect("punct", ";")
            diff[g.name] = poly
            for dead in vanished:
                warnings.append(
                    f"term {dead} in d({g.name}) normalized to zero (odd generator power)"
                )
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected {tok.text!r}", tok)
        return SullivanModel(order, diff, label=label, warnings=warnings)

    def parse_poly(self, gens, expected_degree: int, owner: Generator):
        raw_terms = []
        tok = self.peek()
        if tok.kind == "number" and tok.text == "0":
            nxt = self.tokens[self.pos + 1]
            if nxt.text == ";":
                self.next()
                return Polynomial.zero(), []
        sign = Q(1)
        if self.peek().text == "-":
            self.next()
            sign = Q(-1)
        elif self.peek().text == "+":
            self.next()
        while True:
            term_tok = self.peek()
            coeff, factors = self.parse_term(gens)
            term_degree = sum(g.degree * e for g, e in factors)
            if term_degree != expected_degree:
                raise self.error(
                    f"term has degree {term_degree}, but d({owner.name}) must have "
                    f"degree {expected_degree}",
                    term_tok,
                )
            raw_terms.append((sign * coeff, factors))
            nxt = self.peek()
            if nxt.text == "+":
                self.next()
                sign = Q(1)
            elif nxt.text == "-":
                self.next()
                sign = Q(-1)
            else:
                break
        return Polynomial.from_raw_terms(raw_terms)

    def parse_term(self, gens):
        coeff = Q(1)
        factors: list[tuple[Generator, int]] = []
        first = True
        while True:
            tok = self.peek()
            if tok.kind == "number":
                num_tok = self.next()
                value = Q(int(num_tok.text))
                if self.peek().text == "/":
                    self.next()
                    den_tok = self.expect("number")
                    if int(den_tok.text) == 0:
                        raise self.error("zero denominator", den_tok)
                    value /= int(den_tok.text)
                coeff *= value
            elif tok.kind == "name":
                name_tok = self.next()
                if name_tok.text not in gens:
                    raise self.error(f"unknown generator {name_tok.text!r}", name_tok)
                exponent = 1
                if self.peek().text == "^":
                    self.next()
                    exp_tok = self.expect("number")
                    exponent = int(exp_tok.text)
                    if exponent < 1:
                        raise self.error("exponent must be >= 1", exp_tok)
                factors.append((gens[name_tok.text], exponent))
            else:
                if first:
                    raise self.error(
                        f"expected a term, found {tok.text or 'end of input'!r}", tok
                    )
                break
            first = False
            if self.peek().text == "*":
                self.next()
                continue
            break
        return coeff, factors


def parse(text: str, filename: str = "<input>") -> SullivanModel:
    """Parse model source text; raises ParseError with line:column on failure."""
    return _Parser(text, filename).parse_model()


def serialize(m: SullivanModel) -> str:
    """Canonical source text; parse(serialize(m)) reproduces m."""
    label = re.sub(r"[^A-Za-z0-9_\-]", "-", m.label)  # keep labels parseable
    lines = [f"model {label};"]
    for g in m.generators:
        lines.append(f"gen {g.name} : {g.degree};")
    for g in m.generators:
        dg = m.differential(g)
        if not dg:
            continue
        lines.append(f"d {g.name} = {dg};")
    return "\n".join(lines) + "\n"


def load_builtin(label: str) -> SullivanModel:
    from . import corpus

    return corpus.load_builtin(label)
