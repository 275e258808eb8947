"""Exact sparse multivariate polynomials over the rationals, as values.

A polynomial in d variables x1..xd is stored exactly as integers: its
numerators, nonzero ints keyed by monomial, over one positive scale with
no factor common to the scale and every numerator, e.g. for d=2:

    x1^2/2 + 2*x2  ->  scale 2, numerators {(2, 0): 1, (0, 1): 4}

That form is canonical (the scale is the lcm of the coefficients'
denominators).  The monomials are keyed in one of two ways:

  * by exponent tuple, as the public constructor, parse, from_dict and
    the vector operations make them;
  * by the codes of one MonomialCodes codec, which packs an exponent
    into one int (`codes` and `coded`), as the builders return them.

`numerators`, {exponent: int}, reads the first form as it is stored and
the second through a view made once, on its first read; `terms`,
{exponent: Fraction}, is made afresh on each read for the text and JSON
writers.  Equality compares dim, scale and the int-keyed dicts when both
sides are coded by equal codecs, and the exponent views otherwise;
degree, is_zero and truth read the form as stored.  So a built basis is
compared, graded and checked on its codes, and no exponent tuple is made
unless something reads one.

A Polynomial is a vector: it adds, subtracts and scales (on its integer
form), evaluates at a point (the order-0 functional of DiffOperator), and
reads and writes its text and JSON forms.  The builders and checks
compute elsewhere, on integer numerators or dense h-series, and hand
their results to this type.  Every value is immutable after
construction and every operation is pure, so polynomials can be shared
freely between threads or processes.

All arithmetic is exact; there is no floating point anywhere in this
module.  The convention 0**0 == 1 is used throughout (Python's native
behaviour for ints and Fractions).

Variable indices in the public API are 1-based (x1 is index 1), matching
the usual mathematical notation.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from . import fuel

Rational = Fraction
Exponent = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?\Z")
_RAT_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


# Most decimal digits a parsed rational's numerator or denominator may have.
# Every finite float (down to 5e-324) fits; Python refuses to print an int of
# more than 4300 digits.
MAX_RATIONAL_DIGITS = 1000

_TOO_MANY_DIGITS = 10 ** MAX_RATIONAL_DIGITS
_EXPONENT_RE = re.compile(r"e([+-]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# The text json_ratio reads by int() alone: an integer or p/q in ASCII
# digits, neither of more than MAX_RATIONAL_DIGITS.
_RATIO_RE = re.compile(r"(-?[0-9]{1,%d})(?:/([0-9]{1,%d}))?\Z" % (MAX_RATIONAL_DIGITS, MAX_RATIONAL_DIGITS))


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of |n|, without converting it to text.
    One power of ten is computed (the costly step on a huge n); the
    estimate from the bit length is then off by at most one."""
    n = abs(n)
    k = max(1, int(n.bit_length() * 0.30103))
    low = 10 ** (k - 1)  # n has k digits iff low <= n < 10 * low
    while n >= 10 * low:
        k, low = k + 1, low * 10
    while k > 1 and n < low:
        k, low = k - 1, low // 10
    return k


def parse_rational(text: str) -> Fraction:
    """Fraction(text), refusing with ValueError a numerator or denominator
    of more than MAX_RATIONAL_DIGITS digits.

    A decimal exponent far past the bound ("1e10000000" alone takes
    seconds to expand) is refused before Fraction computes the power: a
    literal whose exponent exceeds its own length by e has a numerator or
    denominator of more than e digits.
    """
    shown = text if len(text) <= 40 else text[:37] + "..."
    m = _EXPONENT_RE.search(text)
    if m and abs(int(m.group(1))) > len(text) + 100 * MAX_RATIONAL_DIGITS:
        raise ValueError(
            f"rational {shown!r}: exponent {m.group(1)} gives more than {100 * MAX_RATIONAL_DIGITS} "
            f"digits, the bound is {MAX_RATIONAL_DIGITS}"
        )
    value = Fraction(text)
    for part, n in (("numerator", value.numerator), ("denominator", value.denominator)):
        if abs(n) >= _TOO_MANY_DIGITS:
            raise ValueError(
                f"rational {shown!r}: {part} has {_decimal_digits(n)} digits, "
                f"the bound is {MAX_RATIONAL_DIGITS}"
            )
    return value


class DigitLimitError(ValueError):
    """A rational with more digits than Python writes as text."""

    def __init__(self, digits: int):
        super().__init__(
            f"a result coefficient has {digits} digits, more than Python's limit of "
            f"{sys.get_int_max_str_digits()} for writing an integer as text (sys.get_int_max_str_digits())"
        )


def rational_text(value: Fraction) -> str:
    """str(value); where str refuses a numerator or denominator past
    sys.get_int_max_str_digits(), DigitLimitError names its digits and the
    limit.  Products of in-bound inputs can outgrow that limit."""
    try:
        return str(value)
    except ValueError:
        raise DigitLimitError(max(_decimal_digits(value.numerator), _decimal_digits(value.denominator))) from None


def common_denominator(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """(s, nums): s the lcm of the denominators of the values (1 if there
    are none) and nums[k] = values[k] * s, the integer numerators over it."""
    vals = list(values)
    scale = 1
    for v in vals:
        if scale % v.denominator:
            scale = math.lcm(scale, v.denominator)
    return scale, [v.numerator * (scale // v.denominator) for v in vals]


# One rule for numbers in decoded JSON, shared by every from_dict: integers
# are JSON ints (not bool, float or string), sequences are JSON arrays and
# rationals are read from their text ("3/4", 2, and 0.1 as 1/10).

def json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_array(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


def json_ratio(value) -> tuple[int, int]:
    """(p, q), q > 0, with p / q the value of parse_rational(str(value)),
    not necessarily in lowest terms; raises what that raises.  An integer
    or p/q with a nonzero q and at most MAX_RATIONAL_DIGITS digits each
    (so within parse_rational's bound) is read by int(), with no Fraction
    made; every other text goes through parse_rational."""
    text = str(value)
    m = _RATIO_RE.match(text)
    if m:
        q = m.group(2)
        q = int(q) if q else 1
        if q:
            return int(m.group(1)), q
    v = parse_rational(text)
    return v.numerator, v.denominator


def _derivative_factor(e: Exponent, alpha: Exponent) -> int:
    """prod_i e_i!/(e_i-alpha_i)!, the factor d^alpha brings down from x^e;
    0 unless e >= alpha componentwise."""
    factor = 1
    for ei, ai in zip(e, alpha):
        if ei < ai:
            return 0
        for t in range(ei, ei - ai, -1):
            factor *= t
    return factor


def _check_exponent(exps: Exponent, dim: int) -> None:
    """Refuse an exponent tuple that is not dim non-negative ints."""
    if len(exps) != dim:
        raise ValueError(f"exponent {exps} has length {len(exps)}, expected {dim}")
    if any(e < 0 or not isinstance(e, int) for e in exps):
        raise ValueError(f"exponents must be non-negative integers, got {exps}")


class MonomialCodes:
    """The exponents e of total degree <= top in d variables, each packed
    into one int with base B = top + 1:

        code(e) = sum_i e_i * (B^d + B^(d-1-i)),

    the degree times B^d plus e read as d base-B digits.  So int order is
    graded-lex order (x1 > x2 > ... > xd), the degree is code // B^d
    (.high), multiplying by x_i adds units[i], and e_i is
    code // powers[i] % B.  The constant is 0.  A code is a plain int,
    past 2^64 once B^d is, and hashes as one; the kernels read the
    attributes, not the methods, in their loops.  Two codecs with the
    same d and B are equal: they give every exponent the same code.  The
    builders key their numerators by a codec, and a coded Polynomial
    keeps them so keyed."""

    __slots__ = ("d", "base", "high", "powers", "units")

    def __init__(self, d: int, top: int):
        base = top + 1
        # A cell per power made, and per 64 bits of the powers' and units'
        # d^2 / 2 and d^2 digits of log2(B) bits, before they are made.
        fuel.charge(d + (3 * d * d * (base - 1).bit_length() >> 7), "the monomial codes")
        self.d, self.base, self.high = d, base, base**d
        self.powers = [base ** (d - 1 - i) for i in range(d)]
        self.units = [self.high + p for p in self.powers]

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialCodes) and (self.d, self.base) == (other.d, other.base)

    def __hash__(self) -> int:
        return hash((self.d, self.base))

    def __repr__(self) -> str:
        return f"MonomialCodes({self.d}, {self.base - 1})"

    def pack(self, e: Sequence[int]) -> int:
        """The code of e; ValueError unless e is d non-negative ints of
        total degree < B, the exponents among which no two share a code."""
        if len(e) != self.d or min(e) < 0 or sum(e) >= self.base:
            raise ValueError(f"exponent {tuple(e)} is not {self.d} non-negative ints of degree < {self.base}")
        return sum(map(mul, e, self.units))

    def unpack(self, code: int) -> Exponent:
        """The exponent whose code is code."""
        base = self.base
        return tuple([code // p % base for p in self.powers])

    def exponents(self, codes: Iterable[int]) -> dict[int, Exponent]:
        """{code: exponent} for every one of codes, each unpacked once.
        Plain loops: a comprehension per code, or an iterator per digit,
        costs more than the digits of the few codes a small basis has."""
        base, powers = self.base, self.powers
        out = {}
        for c in codes:
            digits = []
            for p in powers:
                digits.append(c // p % base)
            out[c] = tuple(digits)
        return out

    def packed(self, nums: Mapping[Exponent, int]) -> dict[int, int]:
        """nums keyed by code instead of exponent, unchecked: the caller
        picks B above every degree."""
        units = self.units
        return {sum(map(mul, e, units)): v for e, v in nums.items()}

    def degree(self, code: int) -> int:
        return code // self.high


_set = object.__setattr__
_INT_TYPE = {int}  # the types of an exponent list of JSON ints only


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    `dim` is the ambient number of variables; a constant in 2 variables is
    a different value from a constant in 3 variables.  `scale` and the
    numerators are the one stored form (see the module docstring): keyed
    by exponent, `codes` is None and `numerators` is the stored dict;
    keyed by code, `coded` is the stored dict, `codes` its codec and
    `numerators` a view of it made on its first read.  Do not mutate
    either dict.  The public constructor checks the exponents of
    {exponent: Fraction or int} and drops zero coefficients; _scale=s
    takes internal results, nonzero int numerators over a positive scale
    s, keyed by exponent, or by code when _codes names their codec (whose
    d is dim).  Both end in one gcd fold with the scale.
    """

    __slots__ = ("dim", "scale", "codes", "coded", "numerators")

    def __init__(
        self,
        dim: int,
        terms: Mapping[Exponent, Fraction | int] | Mapping[int, int] | None = None,
        *,
        _scale: int | None = None,
        _codes: MonomialCodes | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if _scale is None:
            clean: dict[Exponent, Fraction] = {}
            for exps, coef in (terms or {}).items():
                exps = tuple(exps)
                _check_exponent(exps, dim)
                c = Fraction(coef)
                if c != 0:
                    clean[exps] = c
            _scale, nums = common_denominator(clean.values())
            terms = dict(zip(clean, nums))
        # One gcd fold, stopped at 1: math.gcd(*nums) would build a tuple.
        g = _scale
        for v in terms.values():
            g = math.gcd(g, v)
            if g == 1:
                break
        if g != 1:
            terms = {e: v // g for e, v in terms.items()}
        _set(self, "dim", dim)
        _set(self, "scale", _scale // g)
        _set(self, "codes", _codes)
        if _codes is None:
            _set(self, "coded", None)
            _set(self, "numerators", terms)
        else:
            _set(self, "coded", terms)

    def __getattr__(self, name: str):
        """Only an unset slot gets here: the numerators of a coded
        polynomial, whose exponent view is made now and kept."""
        codes = self.codes if name == "numerators" else None
        if codes is None:
            raise AttributeError(f"'Polynomial' object has no attribute {name!r}")
        coded = self.coded
        view = dict(zip(codes.exponents(coded).values(), coded.values()))
        _set(self, "numerators", view)
        return view

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """{exponent: Fraction}, made afresh on each read."""
        s = self.scale
        return {e: Fraction(v, s) for e, v in self.numerators.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> Polynomial:
        return cls(dim, {}, _scale=1)

    @classmethod
    def constant(cls, dim: int, value: Fraction | int) -> Polynomial:
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def variable(cls, dim: int, j: int) -> Polynomial:
        """The monomial x_j (1-based index)."""
        if not 1 <= j <= dim:
            raise ValueError(f"variable index {j} out of range 1..{dim}")
        exps = [0] * dim
        exps[j - 1] = 1
        return cls(dim, {tuple(exps): 1}, _scale=1)

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], coef: Fraction | int = 1) -> Polynomial:
        return cls(dim, {tuple(exps): Fraction(coef)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  A coded polynomial's
        is that of its largest code."""
        codes = self.codes
        if codes is None:
            nums = self.numerators
            return max(map(sum, nums)) if nums else -1
        coded = self.coded
        return max(coded) // codes.high if coded else -1

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.numerators.get(tuple(exps), 0), self.scale)

    def canonical_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lexicographic descending order, x1 > x2 > ... > xd."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- vector-space operations, on the integer form ----------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        s, t = self.scale, other.scale
        scale = math.lcm(s, t)
        a, b = scale // s, scale // t
        out = {e: v * a for e, v in self.numerators.items()}
        for e, v in other.numerators.items():
            out[e] = out.get(e, 0) + v * b
        return Polynomial(self.dim, {e: v for e, v in out.items() if v}, _scale=scale)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.dim, {e: -v for e, v in self.numerators.items()}, _scale=self.scale)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Fraction | int) -> Polynomial:
        """Scalar multiple."""
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        num = other.numerator
        if not num:
            return Polynomial.zero(self.dim)
        return Polynomial(self.dim, {e: v * num for e, v in self.numerators.items()}, _scale=self.scale * other.denominator)

    def __rmul__(self, other: Fraction | int) -> Polynomial:
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.dim != other.dim or self.scale != other.scale:
            return False
        codes = self.codes
        if codes is not None and (codes is other.codes or codes == other.codes):
            return self.coded == other.coded
        return self.numerators == other.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators if self.codes is None else self.coded)

    def __repr__(self) -> str:
        return f"Polynomial.parse({self.render()!r}, dim={self.dim})"

    # -- evaluation and text and JSON forms -------------------------------

    def eval(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a rational point (0**0 == 1): the order-0 functional, on integers."""
        one = Polynomial(self.dim, {(0,) * self.dim: 1}, _scale=1)
        return DiffOperator(one).apply_at(self, [Fraction(v) for v in point])

    def render(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form, terms in graded-lex descending order.

        Example: '1/2*x1^2 + 2*x2'.  Coefficients +-1 are left implicit in
        front of a non-constant monomial.
        """
        if not self.numerators:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(1, self.dim + 1)]
        pieces: list[str] = []
        for e, c in self.canonical_terms():
            factors = []
            for name, ei in zip(names, e):
                if ei == 1:
                    factors.append(name)
                elif ei > 1:
                    factors.append(f"{name}^{ei}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = rational_text(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{rational_text(mag)}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(pieces)

    @classmethod
    def parse(cls, text: str, dim: int) -> Polynomial:
        """Inverse of render.  Accepts explicit coefficients ('1*x1') and
        repeated monomials (summed)."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        chunks: list[tuple[int, str]] = []
        sign, buf = 1, ""
        for ch in s:
            if ch in "+-":
                if buf.strip():
                    chunks.append((sign, buf))
                    sign, buf = 1, ""
                if ch == "-":
                    sign = -sign
            else:
                buf += ch
        if buf.strip():
            chunks.append((sign, buf))
        if not chunks:
            raise ValueError(f"cannot parse polynomial from {text!r}")
        terms: dict[Exponent, Fraction] = {}
        for sgn, chunk in chunks:
            coef = _ONE
            exps = [0] * dim
            for pos, raw in enumerate(chunk.split("*")):
                part = raw.strip()
                m = _VAR_RE.match(part)
                if m:
                    j = int(m.group(1))
                    if not 1 <= j <= dim:
                        raise ValueError(f"variable x{j} out of range for dim {dim}")
                    exps[j - 1] += int(m.group(2) or 1)
                elif pos == 0 and _RAT_RE.match(part):
                    coef = parse_rational(part)
                else:
                    raise ValueError(f"cannot parse term part {part!r} in {text!r}")
            key = tuple(exps)
            terms[key] = terms.get(key, _ZERO) + sgn * coef
        return cls(dim, terms)

    def to_dict(self) -> dict:
        """JSON-ready form: {"dim": d, "terms": [{"exp": [...], "coef": "p/q"}, ...]}."""
        return {
            "dim": self.dim,
            "terms": [{"exp": list(e), "coef": rational_text(c)} for e, c in self.canonical_terms()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> Polynomial:
        """Inverse of to_dict.  A repeated exponent takes its last
        coefficient.  The coefficients are read by json_ratio and kept as
        the integer form: the nonzero numerators over the lcm of their
        denominators, which the gcd fold makes canonical.  An exponent list
        of JSON ints only is type-checked in one pass; any other goes
        through json_int entry by entry, which names the bad entry."""
        try:
            dim = json_int(data["dim"], "dim")
            terms = {}
            for t in json_array(data["terms"], "terms"):
                exp = json_array(t["exp"], "exp")
                if {*map(type, exp)} != _INT_TYPE:
                    exp = [json_int(v, "exponent") for v in exp]
                terms[tuple(exp)] = json_ratio(t["coef"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed polynomial object: {exc}") from exc
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        scale = 1
        for exps, (p, q) in terms.items():
            if len(exps) != dim or min(exps) < 0:
                _check_exponent(exps, dim)
            if p and scale % q:
                scale = math.lcm(scale, q)
        nums = {e: p * (scale // q) for e, (p, q) in terms.items() if p}
        return cls(dim, nums, _scale=scale)


class DiffOperator:
    """The constant-coefficient differential operator induced by a polynomial.

    Each source term c*x^a acts as c times the mixed partial of multi-order
    a; the whole operator is the sum of those actions.  Linear in the source
    polynomial and in the argument.
    """

    __slots__ = ("source",)

    def __init__(self, source: Polynomial):
        self.source = source

    def apply_at(self, f: Polynomial, point: Sequence[Fraction | int]) -> Fraction:
        """Value of the functional: apply the operator to f, evaluate at point.

        Runs on integers, with point_i = p_i / q_i and deg_i the degree of f
        in x_i.  Sums n_alpha * c_e * prod_i e_i!/(e_i-alpha_i)! *
        p_i^(e_i-alpha_i) * q_i^(deg_i-e_i+alpha_i) over the source's
        numerators n_alpha and the numerators c_e of f's terms e >= alpha,
        and makes one Fraction, over source.scale * f.scale *
        prod_i q_i^deg_i: no derivative, sum polynomial or Fraction is
        built before it.  Each p_i^k * q_i^(deg_i-k) is taken once, by
        Python's repeated squaring, so the work grows with log(deg f).
        """
        source = self.source
        if f.dim != source.dim:
            raise ValueError(f"dimension mismatch: {source.dim} vs {f.dim}")
        ratios = [(v.numerator, v.denominator) for v in point]
        if len(ratios) != f.dim:
            raise ValueError(f"point has length {len(ratios)}, expected {f.dim}")
        nums = f.numerators
        degs = [max(ks) for ks in zip(*nums)]
        if fuel.metered:
            # 200 a call (timed as points --h calls it, a point's coordinate at a
            # time), and d multiplies per pair of terms, by powers of at most
            # deg_i * log2 max(|p_i|, q_i) bits.
            sizes = [deg * (max(abs(p), q) - 1).bit_length() for (p, q), deg in zip(ratios, degs)]
            bits = sum(sizes) + sum(max(map(int.bit_length, p.values()), default=0) for p in (source.numerators, nums))
            pairs = len(source.numerators) * len(nums)
            fuel.charge(200 + fuel.cells(pairs * (f.dim + 1), bits, max(sizes, default=0)), "apply_at")
        powers: dict[tuple[int, int], int] = {}  # (i, k): p_i^k * q_i^(deg_i - k)
        total = 0
        for alpha, na in source.numerators.items():
            for e, ce in nums.items():
                value = _derivative_factor(e, alpha)
                if not value:
                    continue
                value *= na * ce
                for i, (ei, ai) in enumerate(zip(e, alpha)):
                    power = powers.get((i, ei - ai))
                    if power is None:
                        p, q = ratios[i]
                        power = powers[i, ei - ai] = p ** (ei - ai) * q ** (degs[i] - ei + ai)
                    value *= power
                    if not value:
                        break
                total += value
        scale = source.scale * f.scale
        for (_, q), deg in zip(ratios, degs):
            scale *= q ** deg
        return Fraction(total, scale)

    def __repr__(self) -> str:
        return f"DiffOperator({self.source!r})"
