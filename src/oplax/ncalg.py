"""Exact free associative algebra with configurable commutation rules.

Scalars are Laurent monomial sums over the fixed central symbol set

    lambda  -- hbar/i, kept opaque so the scalar ring stays real-rational
    eps     -- the central symbol for omega / (2 sqrt(2H))
    h       -- the central symbol for sqrt(2H)
    omega, a, Delta, p0            -- parameters
    r       -- the single radical sqrt(2 p0), reduced by r^2 -> 2 p0

with exact-rational coefficients: each stored coefficient is an int when it
is integral and a Fraction otherwise, so products of integral coefficients
run on Python ints.  int and Fraction compare and hash alike, so equality,
hashing and rendering do not see the difference.  Noncommuting letters live in
words; a CommutationTable fixes the letter order and rewrites g f ->
f g + c for ordered pairs, each swap strictly reducing inversions, so
normal ordering terminates.  The quasi-CCR table implements
Q P -> P Q - lambda * eps.

All values are immutable; equality is exact and decidable.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from operator import add as _add

SYMBOLS = ("lambda", "eps", "h", "omega", "a", "Delta", "p0", "r")
_SYM_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_R = _SYM_INDEX["r"]
_P0 = _SYM_INDEX["p0"]
_NSYM = len(SYMBOLS)
_ZERO_EXPS = (0,) * _NSYM


def _exact(value) -> int | Fraction:
    """A rational number as an int when it is integral, else a Fraction.
    Anything else, a float included, raises TypeError: converting it would
    turn a rounding error into an exact binary fraction."""
    if type(value) is not int:
        if not isinstance(value, Rational):
            raise TypeError(f"{value!r} is not a rational number")
        value = Fraction(value)
        if value.denominator == 1:
            return value.numerator
    return value


def _accumulate(out: dict, key, value):
    """out[key] += value without seeding the sum with a zero: a new key
    takes value as it is (callers never pass a zero), and a sum that
    cancels removes the key.  An integral Fraction sum is stored as an
    int."""
    acc = out.get(key)
    if acc is None:
        out[key] = value
        return
    acc = acc + value
    if not acc:
        del out[key]
    elif type(acc) is Fraction and acc.denominator == 1:
        out[key] = acc.numerator
    else:
        out[key] = acc


def _canon_term(exps: list, coeff: int | Fraction) -> tuple:
    """Reduce the r-exponent into {0, 1} using r^2 = 2 p0.  Halving is
    exact: an even int is shifted, anything else becomes a Fraction."""
    k = exps[_R]
    while k >= 2:
        k -= 2
        coeff *= 2
        exps[_P0] += 1
    while k < 0:
        k += 2
        coeff = coeff >> 1 if type(coeff) is int and not coeff & 1 \
            else Fraction(coeff, 2)
        exps[_P0] -= 1
    exps[_R] = k
    if type(coeff) is Fraction and coeff.denominator == 1:
        coeff = coeff.numerator
    return tuple(exps), coeff


class CoeffPoly:
    """Exact Laurent polynomial in the central symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict, _canonical: bool = False):
        if _canonical:
            self.terms = terms
            return
        canon: dict = {}
        for exps, coeff in terms.items():
            coeff = _exact(coeff)
            if coeff == 0:
                continue
            key, c = _canon_term(list(exps), coeff)
            _accumulate(canon, key, c)
        self.terms = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "CoeffPoly":
        return cls({}, _canonical=True)

    @classmethod
    def number(cls, value) -> "CoeffPoly":
        value = _exact(value)
        if value == 0:
            return cls.zero()
        return cls({_ZERO_EXPS: value}, _canonical=True)

    @classmethod
    def one(cls) -> "CoeffPoly":
        return cls.number(1)

    @classmethod
    def symbol(cls, name: str, exp: int = 1) -> "CoeffPoly":
        return cls.monomial(1, {name: exp})

    @classmethod
    def monomial(cls, coeff, powers: dict) -> "CoeffPoly":
        exps = [0] * _NSYM
        for name, e in powers.items():
            if name not in _SYM_INDEX:
                raise KeyError(f"unknown symbol {name!r}")
            exps[_SYM_INDEX[name]] += e
        return cls({tuple(exps): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> int | Fraction:
        """The value of a purely numeric polynomial: an int when it is
        integral, else a Fraction."""
        if self.is_zero:
            return 0
        if self.terms.keys() == {_ZERO_EXPS}:
            return self.terms[_ZERO_EXPS]
        raise ValueError(f"not a constant: {self.render()}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            _accumulate(out, exps, coeff)
        return CoeffPoly(out, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return CoeffPoly({e: -c for e, c in self.terms.items()},
                         _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t1, t2 = self.terms, other.terms
        if len(t1) == 1 and t1.get(_ZERO_EXPS) == 1:
            return other
        if len(t2) == 1 and t2.get(_ZERO_EXPS) == 1:
            return self
        out: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                exps = tuple(map(_add, e1, e2))
                c = c1 * c2
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                if exps[_R] not in (0, 1):
                    exps, c = _canon_term(list(exps), c)
                _accumulate(out, exps, c)
        return CoeffPoly(out, _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self._inverse() ** (-n)
        out = CoeffPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def _inverse(self) -> "CoeffPoly":
        if self.is_zero:
            raise ZeroDivisionError("CoeffPoly division by zero")
        if not self.is_monomial:
            raise ValueError(f"cannot invert non-monomial {self.render()}")
        (exps, coeff), = self.terms.items()
        inv = [-e for e in exps]
        return CoeffPoly({tuple(inv): 1 / Fraction(coeff)})

    def __truediv__(self, other):
        if isinstance(other, Rational):
            return self * (1 / Fraction(other))
        if isinstance(other, CoeffPoly):
            return self * other._inverse()
        return NotImplemented

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return not self.is_zero

    def __hash__(self):
        # a constant equals its Fraction value, so it must hash like it
        if self.terms.keys() <= {_ZERO_EXPS}:
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping: dict) -> "CoeffPoly":
        """Replace central symbols by numbers or CoeffPoly values.

        A number enters as the constant CoeffPoly.number(val), so a float
        raises TypeError.  Each term, with the replaced symbols taken out,
        is multiplied by the value of each to its power, by ** and *, and
        the products are summed: a positive power of 0 drops the term, a
        negative power of 0 raises ZeroDivisionError, and a negative power
        of anything but a monomial raises ValueError.
        """
        values = {_SYM_INDEX[name]: val if isinstance(val, CoeffPoly)
                  else CoeffPoly.number(val) for name, val in mapping.items()}
        out: dict = {}
        for exps, coeff in self.terms.items():
            kept = list(exps)
            for idx in values:
                kept[idx] = 0
            term = CoeffPoly({tuple(kept): coeff}, _canonical=True)
            for idx, val in values.items():
                if exps[idx]:
                    term = term * val ** exps[idx]
            for key, c in term.terms.items():
                _accumulate(out, key, c)
        return CoeffPoly(out, _canonical=True)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form, e.g. '1/2*lambda*eps - 2*p0'."""
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            pos, neg = [], []
            for i, e in enumerate(exps):
                if e > 0:
                    pos.append(SYMBOLS[i] if e == 1 else f"{SYMBOLS[i]}^{e}")
                elif e < 0:
                    neg.append(SYMBOLS[i] if e == -1
                               else f"{SYMBOLS[i]}^{-e}")
            mag = abs(coeff)
            body = "*".join(([] if mag == 1 and pos else [str(mag)]) + pos)
            if not body:
                body = str(mag)
            if neg:
                body += "/" + "/".join(neg)
            parts.append(("-" if coeff < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"CoeffPoly({self.render()})"


def _coerce(value):
    if isinstance(value, CoeffPoly):
        return value
    if isinstance(value, Rational):
        return CoeffPoly.number(value)
    return NotImplemented


class CommutationTable:
    """Ordered alphabet plus rewrite rules g f -> f g + c for g > f.

    Letters absent from the rules commute freely.  Rewriting strictly
    reduces the inversion count, so normal ordering terminates.
    """

    def __init__(self, letters: tuple, rules: dict):
        self.letters = tuple(letters)
        self.order = {name: i for i, name in enumerate(self.letters)}
        self.rules = dict(rules)
        for (hi, lo), c in self.rules.items():
            if self.order[hi] <= self.order[lo]:
                raise ValueError(f"rule ({hi}, {lo}) is not order-reducing")
            if not isinstance(c, CoeffPoly):
                raise TypeError("rule values must be central CoeffPoly")
        self._cache: dict = {}

    def normal_word(self, word: tuple) -> dict:
        """Normal form of a single word as {normal word: CoeffPoly}."""
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        order = self.order
        idx = -1
        for i in range(len(word) - 1):
            if order[word[i]] > order[word[i + 1]]:
                idx = i
                break
        if idx < 0:
            result = {word: CoeffPoly.one()}
        else:
            hi, lo = word[idx], word[idx + 1]
            swapped = word[:idx] + (lo, hi) + word[idx + 2:]
            result = dict(self.normal_word(swapped))
            c = self.rules.get((hi, lo))
            if c is not None and not c.is_zero:
                contracted = word[:idx] + word[idx + 2:]
                for w, cc in self.normal_word(contracted).items():
                    _accumulate(result, w, c * cc)
        self._cache[word] = result
        return result


def quasi_ccr_table(letters: tuple) -> CommutationTable:
    """Quasi-CCR: Q P -> P Q - lambda * eps; all other pairs commute."""
    if "P" not in letters or "Q" not in letters:
        raise ValueError("quasi-CCR table needs letters P and Q")
    c = -(CoeffPoly.symbol("lambda") * CoeffPoly.symbol("eps"))
    return CommutationTable(letters, {("Q", "P"): c})


class NCPoly:
    """Element of the quotient algebra, stored in normal-ordered form."""

    __slots__ = ("table", "terms")

    def __init__(self, table: CommutationTable, terms: dict,
                 _normal: bool = False):
        self.table = table
        if _normal:
            self.terms = terms
            return
        out: dict = {}
        for word, coeff in terms.items():
            coeff = coeff if isinstance(coeff, CoeffPoly) \
                else CoeffPoly.number(coeff)
            if coeff.is_zero:
                continue
            for letter in word:
                if letter not in table.order:
                    raise KeyError(f"letter {letter!r} not in alphabet")
            for w, c in table.normal_word(tuple(word)).items():
                _accumulate(out, w, coeff * c)
        self.terms = out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table) -> "NCPoly":
        return cls(table, {}, _normal=True)

    @classmethod
    def scalar(cls, table, coeff) -> "NCPoly":
        return cls(table, {(): coeff})

    @classmethod
    def letter(cls, table, name: str) -> "NCPoly":
        return cls(table, {(name,): 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    @property
    def is_scalar(self) -> bool:
        return all(w == () for w in self.terms)

    def scalar_part(self) -> CoeffPoly:
        if self.is_zero:
            return CoeffPoly.zero()
        if not self.is_scalar:
            raise ValueError(f"not a scalar: {self.render()}")
        return self.terms[()]

    def _check(self, other: "NCPoly"):
        if self.table is not other.table:
            raise ValueError("operands use different commutation tables")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(out, w, c)
        return NCPoly(self.table, out, _normal=True)

    def __neg__(self):
        return NCPoly(self.table, {w: -c for w, c in self.terms.items()},
                      _normal=True)

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (CoeffPoly, Rational)):
            other = _coerce(other)
            out = {w: c * other for w, c in self.terms.items()}
            return NCPoly(self.table,
                          {w: c for w, c in out.items() if not c.is_zero},
                          _normal=True)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        raw: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _accumulate(raw, w1 + w2, c1 * c2)
        return NCPoly(self.table, raw)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.table), frozenset(self.terms)))

    # -- algebra operations -------------------------------------------------

    def substitute_symbols(self, mapping: dict) -> "NCPoly":
        """Replace central symbols inside every coefficient."""
        out: dict = {}
        for word, coeff in self.terms.items():
            c = coeff.substitute(mapping)
            if not c.is_zero:
                out[word] = c
        return NCPoly(self.table, out, _normal=True)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form with words in length-then-lex order."""
        if self.is_zero:
            return "0"
        chunks = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word].render()
            name = "*".join(word) if word else "1"
            if coeff == "1":
                chunks.append(name)
            elif word:
                chunks.append(f"({coeff})*{name}")
            else:
                chunks.append(f"({coeff})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"NCPoly({self.render()})"


def commutator(x: NCPoly, y: NCPoly) -> NCPoly:
    return x * y - y * x
