"""Exact sparse polynomials over arbitrary hashable variables.

Coefficients are Python ints (Fractions appear transparently under
evaluation); zero coefficients are never stored, so ``is_zero`` is just an
emptiness check.  Variables only need to be hashable and mutually orderable,
which covers the edge labels and outcome tuples used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Monomial:
    """A product of variable powers, stored as a sorted (var, exp) tuple."""

    powers: tuple = ()

    def __post_init__(self):
        cleaned = tuple(sorted((v, int(e)) for v, e in self.powers if e))
        object.__setattr__(self, "powers", cleaned)
        if any(e < 0 for _, e in cleaned):
            raise ValueError("negative exponents are not supported")
        object.__setattr__(self, "_hash", hash((cleaned,)))

    def __hash__(self):
        # The dataclass's hash, computed once: products look monomials up
        # repeatedly, and hashing the powers hashes every variable.
        return self._hash

    def __reduce__(self):
        # Rebuild through __post_init__: a string's hash differs between
        # processes, so the stored one must not travel.
        return Monomial, (self.powers,)

    @classmethod
    def of(cls, *variables) -> "Monomial":
        counts = {}
        for v in variables:
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(counts.items()))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return _monomial(_merge(self.powers, other.powers))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.powers)

    def __str__(self):
        if not self.powers:
            return "1"
        return "*".join(
            f"{v}^{e}" if e > 1 else f"{v}" for v, e in self.powers
        )


def _monomial(powers: tuple) -> Monomial:
    """A Monomial from a power tuple already sorted, zero-free and
    nonnegative, skipping ``__post_init__``."""
    mono = object.__new__(Monomial)
    object.__setattr__(mono, "powers", powers)
    object.__setattr__(mono, "_hash", hash((powers,)))
    return mono


def _merge(p: tuple, q: tuple) -> tuple:
    """The product of two sorted power tuples, merged in order."""
    if not p or not q:
        return p or q
    if p[-1][0] < q[0][0]:
        return p + q
    if q[-1][0] < p[0][0]:
        return q + p
    out = []
    i = j = 0
    n, m = len(p), len(q)
    while i < n and j < m:
        v, e = p[i]
        w, f = q[j]
        if v == w:
            out.append((v, e + f))
            i += 1
            j += 1
        elif v < w:
            out.append(p[i])
            i += 1
        else:
            out.append(q[j])
            j += 1
    return tuple(out) + p[i:] + q[j:]


class SparsePoly:
    """Polynomial as a dict from Monomial to coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coef in terms.items():
                if coef:
                    self.terms[mono] = coef

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "SparsePoly":
        return cls({Monomial(): value})

    @classmethod
    def variable(cls, var) -> "SparsePoly":
        return cls({Monomial.of(var): 1})

    @classmethod
    def term(cls, variables, coef=1) -> "SparsePoly":
        return cls({Monomial.of(*variables): coef})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self == SparsePoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            other = SparsePoly.constant(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            total = out.get(mono, 0) + coef
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
        result = SparsePoly()
        result.terms = out
        return result

    def __neg__(self) -> "SparsePoly":
        result = SparsePoly()
        result.terms = {mono: -coef for mono, coef in self.terms.items()}
        return result

    def __sub__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            other = SparsePoly.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            result = SparsePoly()
            if other:
                result.terms = {m: c * other for m, c in self.terms.items()}
            return result
        out = {}
        for m1, c1 in self.terms.items():
            p1 = m1.powers
            for m2, c2 in other.terms.items():
                mono = _monomial(_merge(p1, m2.powers))
                total = out.get(mono, 0) + c1 * c2
                if total:
                    out[mono] = total
                else:
                    out.pop(mono, None)
        result = SparsePoly()
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SparsePoly":
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        result = SparsePoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, assignment):
        """Plug in values (any ring elements) for every variable present."""
        total = 0
        for mono, coef in self.terms.items():
            value = coef
            for v, e in mono.powers:
                value = value * assignment[v] ** e
            total = total + value
        return total

    def substitute(self, replacements) -> "SparsePoly":
        """Replace some variables by whole polynomials, simultaneously."""
        out = SparsePoly.zero()
        for mono, coef in self.terms.items():
            acc = SparsePoly.constant(coef)
            plain = []
            for v, e in mono.powers:
                if v in replacements:
                    acc = acc * (replacements[v] ** e)
                else:
                    plain.append((v, e))
            if plain:
                acc = acc * SparsePoly({Monomial(tuple(plain)): 1})
            out = out + acc
        return out

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            out.update(mono.variables())
        return out

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            coef = self.terms[mono]
            body = str(mono)
            if abs(coef) != 1 or body == "1":
                body = f"{abs(coef)}*{body}" if body != "1" else str(abs(coef))
            bits.append(("- " if coef < 0 else "+ ") + body)
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"SparsePoly({self})"
