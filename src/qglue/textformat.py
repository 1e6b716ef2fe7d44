"""Plain-text format for presentations.

    # comment
    presentation disc-q
    generator z  weight 1
    generator z* weight -1 star z
    rule z* z -> q z z* + (1 - q)
    pbwrule a a* b b* -> a a* + b b* - 1

Generators must be declared before rules; `star` names the adjoint partner
(optionally `scale <coef>` for a twisted star); `order <int>` sets the term
order weight. Rule right-hand sides are sums of terms; a term is an optional
coefficient (numbers, fractions, q/p/s powers, parenthesized sums of those)
followed by juxtaposed letter names.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coefficients import P, Q, S, CoefPoly, _accumulate
from .errors import PresentationError
from .presentations import Presentation

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z][A-Za-z0-9*']*|\^|\(|\)|\+|-)")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PresentationError(f"cannot tokenize {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _PolyParser:
    """Recursive-descent parser for rule right-hand sides."""

    def __init__(self, tokens: list[str], letters: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.letters = letters

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PresentationError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_poly(self) -> dict[tuple[str, ...], CoefPoly]:
        terms: dict[tuple[str, ...], CoefPoly] = {}
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        while True:
            coef, word = self.parse_term()
            _accumulate(terms, word, coef * sign)
            tok = self.peek()
            if tok in ("+", "-"):
                sign = -1 if self.take() == "-" else 1
                continue
            return terms

    def parse_term(self) -> tuple[CoefPoly, tuple[str, ...]]:
        coef = CoefPoly.scalar(1)
        word: list[str] = []
        saw_factor = False
        while True:
            tok = self.peek()
            if tok is None or tok in ("+", "-", ")"):
                break
            saw_factor = True
            if tok in self.letters:
                self.take()
                if self.peek() == "^":
                    raise PresentationError("letters take no exponents; repeat them")
                word.append(tok)
            else:
                coef = coef * self.parse_coef_factor()
        if not saw_factor:
            raise PresentationError("empty term in expression")
        return coef, tuple(word)

    def parse_coef_factor(self) -> CoefPoly:
        tok = self.take()
        if tok == "(":
            inner = self.parse_poly()
            if self.take() != ")":
                raise PresentationError("unbalanced parenthesis")
            for w in inner:
                if w:
                    raise PresentationError(
                        "parenthesized coefficients may not contain letters"
                    )
            base = inner.get((), CoefPoly())
        elif tok in ("q", "p", "s"):
            base = {"q": Q, "p": P, "s": S}[tok]
        elif re.fullmatch(r"\d+/\d+", tok):
            num, den = tok.split("/")
            base = CoefPoly.scalar(Fraction(int(num), int(den)))
        elif tok.isdigit():
            base = CoefPoly.scalar(int(tok))
        else:
            raise PresentationError(f"unexpected token {tok!r} in coefficient")
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise PresentationError(f"bad exponent {exp_tok!r}")
            exp = sign * int(exp_tok)
            base = base**exp if exp >= 0 else base.inverse_monomial() ** (-exp)
        return base


def parse_poly_text(text: str, letters: set[str]) -> dict[tuple[str, ...], CoefPoly]:
    """Parse a polynomial expression over the given letters; '0' is empty."""
    if text.strip() == "0":
        return {}
    parser = _PolyParser(_tokenize(text), letters)
    result = parser.parse_poly()
    if parser.peek() is not None:
        raise PresentationError(f"trailing tokens near {parser.peek()!r}")
    return result


def load_presentation(text: str, check_order: bool = True) -> Presentation:
    name = None
    letters: list[str] = []
    weights: list[int] = []
    order_weights: list[int] = []
    star: dict[str, object] = {}
    rules: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rest = (line.split(None, 1) + [""])[:2]
            if head == "presentation":
                name = rest.strip()
            elif head == "generator":
                fields = rest.split()
                gname = fields[0]
                opts = fields[1:]
                weight = 0
                order = 0
                partner = None
                scale_text = None
                i = 0
                while i < len(opts):
                    key = opts[i]
                    if key == "weight":
                        weight = int(opts[i + 1])
                        i += 2
                    elif key == "order":
                        order = int(opts[i + 1])
                        i += 2
                    elif key == "star":
                        partner = opts[i + 1]
                        i += 2
                    elif key == "scale":
                        scale_text = " ".join(opts[i + 1 :])
                        i = len(opts)
                    else:
                        raise PresentationError(f"unknown generator option {key!r}")
                letters.append(gname)
                weights.append(weight)
                order_weights.append(order)
                if partner is not None:
                    if scale_text is not None:
                        coef_terms = parse_poly_text(scale_text, set())
                        star[gname] = (partner, coef_terms.get((), CoefPoly()))
                    else:
                        star[gname] = partner
            elif head in ("rule", "pbwrule"):
                if "->" not in rest:
                    raise PresentationError("rule needs '->'")
                lhs, rhs = rest.split("->", 1)
                redex_tokens = lhs.split()
                for t in redex_tokens:
                    if t not in letters:
                        raise PresentationError(f"unknown letter {t!r} in redex")
                terms = parse_poly_text(rhs, set(letters))
                rhs_spec = {" ".join(w): c for w, c in terms.items()}
                mode = "pbw" if head == "pbwrule" else "subword"
                rules.append((" ".join(redex_tokens), rhs_spec, mode))
            else:
                raise PresentationError(f"unknown directive {head!r}")
        except PresentationError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from None
        except (IndexError, ValueError) as exc:
            raise PresentationError(f"line {lineno}: {exc}") from None
    if name is None:
        raise PresentationError("missing 'presentation <name>' line")
    if not letters:
        raise PresentationError("no generators declared")
    for gname in letters:
        if gname in ("q", "p", "s") or gname[0].isdigit():
            raise PresentationError(f"letter name {gname!r} collides with coefficients")
    missing = [
        g
        for g in letters
        if g not in star and g not in {v if isinstance(v, str) else v[0] for v in star.values()}
    ]
    if missing:
        raise PresentationError(f"generators without star information: {missing}")
    return Presentation(
        name=name,
        letters=tuple(letters),
        weights=tuple(weights),
        star=star,
        rules=rules,
        order_weights=tuple(order_weights),
        check_order=check_order,
    )


def dump_presentation(pres: Presentation) -> str:
    """Render a presentation back into the text format (round-trips through
    load_presentation)."""
    lines = [f"presentation {pres.name}"]
    starred: set[int] = set()
    for i, letter in enumerate(pres.letters):
        parts = [f"generator {letter}", f"weight {pres.weights[i]}"]
        if pres.order_weights[i]:
            parts.append(f"order {pres.order_weights[i]}")
        j, scale = pres.star_table[i]
        if i not in starred:
            parts.append(f"star {pres.letters[j]}")
            if not scale.is_one():
                parts.append(f"scale ({scale})")
            starred.add(i)
            starred.add(j)
        lines.append(" ".join(parts))
    for rule in pres.rules:
        head = "pbwrule" if rule.pbw else "rule"
        lines.append(f"{head} {pres.rule_text(rule)}")
    return "\n".join(lines) + "\n"
