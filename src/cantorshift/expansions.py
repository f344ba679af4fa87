"""Exact digit expansions of numbers in [0, 1].

A number is stored as a base specification (constant base q, or a finite
prefix of bases followed by a constant tail base), a finite tuple of leading
digits, and a symbolic tail that is either all zeros or all maximal digits.
Every value is an exact ``fractions.Fraction``; no floating point enters the
digit arithmetic.

Conventions:

* positions are 1-indexed throughout,
* x = 0 is the empty prefix with a zeros tail, x = 1 the empty prefix with a
  max-digits tail,
* the terminating (zeros-tail) form is the canonical one for display.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from enum import Enum
from fractions import Fraction

__all__ = [
    "Tail",
    "BaseSpec",
    "DigitExpansion",
    "Cylinder",
    "value_of",
    "expansion_of",
    "dual_representation",
    "cylinder_interval",
    "same_stream",
    "parse_base",
    "format_base",
    "parse_expansion",
    "format_expansion",
    "parse_rational",
    "quote_token",
]


class Tail(Enum):
    """Symbolic digit tail beyond the stored prefix."""

    ZEROS = "zeros"
    MAX = "max"


class _Record:
    """An immutable record, compared, hashed and shown by the fields it is
    built from, as a frozen dataclass is, without the import and class-build
    cost of ``dataclasses``.

    A subclass lists those fields first in ``__slots__`` (any derived slots
    follow them, and ``_fields`` then names the built-from ones), and its
    ``__init__`` checks its arguments and stores the slots with ``_set``.
    Copies, pickles and ``_replace`` rebuild the record through ``__init__``
    from its fields; ``_make`` is the one way past the checks, for values
    that hold by construction.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls._stores = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        """Store ``values`` in the slots, in ``__slots__`` order, past ``__setattr__``."""
        for store, value in zip(self._stores, values):
            store(self, value)

    @classmethod
    def _make(cls, *values):
        """A record of ``values``, in ``__slots__`` order, stored without the
        checks of ``__init__``: only for values that are valid by construction."""
        self = object.__new__(cls)
        self._set(*values)
        return self

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def _replace(self, **changes):
        """A copy with ``changes`` applied to its fields, checked by ``__init__``."""
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    __replace__ = _replace  # copy.replace, from Python 3.13


class BaseSpec(_Record):
    """Per-position digit bases: a finite prefix, then a constant tail value.

    ``base_at(k)`` is the base of position k.  Trailing prefix entries equal
    to the tail value carry no information and are stripped, so equal base
    sequences compare equal and a constant base always has an empty prefix.
    """

    __slots__ = ("prefix", "tail_value")
    prefix: tuple[int, ...]
    tail_value: int

    def __init__(self, prefix: tuple[int, ...], tail_value: int) -> None:
        prefix = tuple(map(int, prefix))
        if min(prefix + (tail_value,)) < 2:
            raise ValueError("base entries must be >= 2")
        n = len(prefix)
        while n and prefix[n - 1] == tail_value:
            n -= 1
        self._set(prefix[:n], tail_value)

    @classmethod
    def constant(cls, q: int) -> "BaseSpec":
        if q < 2:
            raise ValueError("base entries must be >= 2")
        return cls._make((), q)

    @classmethod
    def cantor(cls, prefix, tail_value: int) -> "BaseSpec":
        return cls(tuple(prefix), tail_value)

    @property
    def is_constant(self) -> bool:
        return not self.prefix

    def base_at(self, k: int) -> int:
        if k < 1:
            raise ValueError("positions are 1-indexed")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.tail_value

    def block(self, n: int) -> int:
        """Product of the first n bases (denominator of a rank-n cylinder)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return math.prod(self.prefix[:n]) * self.tail_value ** max(n - len(self.prefix), 0)

    def __str__(self) -> str:
        return format_base(self)


class DigitExpansion(_Record):
    """A number in [0, 1]: leading digits over a base, plus a symbolic tail.

    The prefix is kept exactly as given (trailing zeros are allowed and
    meaningful for round-trips); semantic equality is value equality via
    :func:`value_of` or stream equality via :func:`same_stream`.
    """

    __slots__ = ("base", "prefix", "tail")
    base: BaseSpec
    prefix: tuple[int, ...]
    tail: Tail

    def __init__(self, base: BaseSpec, prefix: tuple[int, ...], tail: Tail = Tail.ZEROS) -> None:
        prefix = tuple(map(int, prefix))
        bases = _bases(base, len(prefix))
        if prefix and not (min(prefix) >= 0 and all(map(operator.lt, prefix, bases))):
            k, d, q = next((k, d, q) for k, (d, q) in enumerate(zip(prefix, bases), 1) if not 0 <= d < q)
            raise ValueError(f"digit {_quote_int(d)} at position {k} outside alphabet 0..{_quote_int(q - 1)}")
        self._set(base, prefix, tail)

    def digit_at(self, k: int) -> int:
        """Digit at position k, including the symbolic tail region."""
        if k < 1:
            raise ValueError("positions are 1-indexed")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if self.tail is Tail.ZEROS:
            return 0
        return self.base.base_at(k) - 1

    def __str__(self) -> str:
        return format_expansion(self)


class Cylinder(_Record):
    """All numbers whose first ``len(word)`` digits equal ``word``."""

    __slots__ = ("base", "word")
    base: BaseSpec
    word: tuple[int, ...]

    def __init__(self, base: BaseSpec, word: tuple[int, ...]) -> None:
        word = DigitExpansion(base, word).prefix
        if not word:
            raise ValueError("cylinder rank must be >= 1")
        self._set(base, word)

    @property
    def rank(self) -> int:
        return len(self.word)


def _bases(base: BaseSpec, n: int) -> tuple[int, ...]:
    """The bases of positions 1..n."""
    return base.prefix[:n] + (base.tail_value,) * (n - len(base.prefix))


def value_of(e: DigitExpansion) -> Fraction:
    """Exact value of an expansion.

    The finite prefix is read as one integer over q_1 ... q_m (Horner); a
    max-digits tail beyond position m telescopes to 1/(q_1 ... q_m), so the
    result is closed form for both tails.
    """
    num, den = 0, 1
    for d, q in zip(e.prefix, _bases(e.base, len(e.prefix))):
        num = num * q + d
        den *= q
    if e.tail is Tail.MAX:
        num += 1
    return Fraction(num, den)


def expansion_of(
    x: Fraction | int | str,
    base: BaseSpec,
    depth: int,
    tail_pref: Tail = Tail.ZEROS,
) -> DigitExpansion:
    """Greedy digit extraction of a rational in [0, 1], by integer long
    division of x's numerator by its denominator.

    If x terminates within ``depth`` digits the tail preference picks which
    of the two dual forms is returned; otherwise the result is the truncated
    prefix of length ``depth`` with a zeros tail.  x = 0 has no max-digits
    form and always comes back in zeros form; x = 1 is always the empty
    prefix with a max tail.
    """
    if depth <= 0:
        raise ValueError("depth must be >= 1")
    x = _rational(x)
    if not 0 <= x <= 1:
        raise ValueError("value must lie in [0, 1]")
    if x == 1:
        return DigitExpansion(base, (), Tail.MAX)
    n, m = x.numerator, x.denominator
    digits = []
    for q in _bases(base, depth):
        d, n = divmod(n * q, m)
        digits.append(d)
    e = DigitExpansion(base, tuple(digits), Tail.ZEROS)
    if n == 0 and tail_pref is Tail.MAX:
        return dual_representation(e) or e
    return e


def dual_representation(e: DigitExpansion) -> DigitExpansion | None:
    """The other expansion of the same value, or None if it is unique.

    Terminating form  d_1 .. d_m 0 0 0 ...         (d_m >= 1)
    equals            d_1 .. [d_m - 1] max max ...
    where d_1 .. d_m are the significant digits (:func:`_significant`): the
    last one moves down for a zeros tail, up for a max tail.  Only 0 (zeros
    form) and 1 (max form) have no significant digit and a single
    representation.
    """
    digits = _significant(e)
    if not digits:
        return None
    step, tail = (-1, Tail.MAX) if e.tail is Tail.ZEROS else (1, Tail.ZEROS)
    # a significant last digit is >= 1 under a zeros tail and <= base - 2
    # under a max tail, so the moved digit stays in its alphabet
    return DigitExpansion._make(e.base, digits[:-1] + (digits[-1] + step,), tail)


def _significant(e: DigitExpansion) -> tuple[int, ...]:
    """The stored digits of ``e`` less its trailing digits equal to the tail
    digit (0 for a zeros tail, base - 1 for a max tail), which carry no
    information."""
    prefix, n = e.prefix, len(e.prefix)
    if e.tail is Tail.ZEROS:
        while n and not prefix[n - 1]:
            n -= 1
    else:
        bases = _bases(e.base, n)
        while n and prefix[n - 1] == bases[n - 1] - 1:
            n -= 1
    return prefix[:n]


def cylinder_interval(c: Cylinder) -> tuple[Fraction, Fraction]:
    """Closed interval [inf, sup] spanned by a cylinder.

    sup - inf is exactly 1 / (q_1 ... q_m) for rank m.
    """
    lo = value_of(DigitExpansion(c.base, c.word, Tail.ZEROS))
    hi = value_of(DigitExpansion(c.base, c.word, Tail.MAX))
    return lo, hi


def same_stream(e1: DigitExpansion, e2: DigitExpansion) -> bool:
    """True when two expansions have identical digit and base streams.

    Past its significant digits (:func:`_significant`) a stream repeats its
    tail digit, 0 or base - 1 >= 1, so two streams agree exactly when their
    normalized base specs, their tails and their significant digits do.
    """
    return e1.base == e2.base and e1.tail is e2.tail and _significant(e1) == _significant(e2)


# --- textual notation ---------------------------------------------------
#
#   q10:[2,5]:zeros        constant base 10, digits 2 5, zeros tail
#   Q(2,3,4|5):[1,2]:max   bases 2 3 4 then 5 forever, digits 1 2, max tail

_CONSTANT_RE = re.compile(r"^q(\d+)$")
_CANTOR_RE = re.compile(r"^Q\(([\d,\s]*)\|(\d+)\)$")
_BASE_ENTRY = "base entry {} must be an integer"
_DIGIT_ENTRY = "digit entry {} must be an integer"


def format_base(b: BaseSpec) -> str:
    if b.is_constant:
        return f"q{b.tail_value}"
    inner = ",".join(str(q) for q in b.prefix)
    return f"Q({inner}|{b.tail_value})"


def parse_base(text: str) -> BaseSpec:
    text = text.strip()
    m = _CONSTANT_RE.match(text)
    if m:
        return BaseSpec.constant(_read_token(int, m.group(1), _BASE_ENTRY))
    m = _CANTOR_RE.match(text)
    if m:
        entries = [_read_token(int, t.strip(), _BASE_ENTRY) for t in m.group(1).split(",") if t.strip()]
        return BaseSpec.cantor(entries, _read_token(int, m.group(2), _BASE_ENTRY))
    raise ValueError(f"cannot parse base {quote_token(text)}")


def format_expansion(e: DigitExpansion) -> str:
    digits = ",".join(str(d) for d in e.prefix)
    return f"{format_base(e.base)}:[{digits}]:{e.tail.value}"


def parse_expansion(text: str) -> DigitExpansion:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"expected base:[digits]:tail, got {quote_token(text)}")
    base = parse_base(parts[0])
    digit_part = parts[1].strip()
    if not (digit_part.startswith("[") and digit_part.endswith("]")):
        raise ValueError(f"digit list must be bracketed, got {quote_token(digit_part)}")
    inner = digit_part[1:-1].strip()
    digits = tuple(_read_token(int, t.strip(), _DIGIT_ENTRY) for t in inner.split(",") if t.strip())
    tail_token = parts[2].strip().lower()
    try:
        tail = Tail(tail_token)
    except ValueError:
        raise ValueError(f"tail must be 'zeros' or 'max', got {quote_token(tail_token)}") from None
    return DigitExpansion(base, digits, tail)


_EXPONENT = re.compile(r"E([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str, message: str = "cannot parse rational {}") -> Fraction:
    """Parse 'a/b', an integer, or a decimal string with an optional exponent
    as an exact rational; a token that does not parse raises ValueError with
    ``message``, its ``{}`` filled with the quoted token.

    Every token obeys the interpreter's integer string limit
    (``sys.get_int_max_str_digits()``, 0 for none), which the digits of an
    a/b token meet as they are read: an exponent past the limit is refused
    before 10^|e| is built, and so is a value whose numerator or denominator
    has more digits than the limit, which ``str`` could not print."""
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(text) if limit else None
    try:
        value = None if exponent and abs(int(exponent[1])) > limit else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(message.format(quote_token(text))) from None
    if value is None or _over_str_limit(value.numerator) or _over_str_limit(value.denominator):
        raise ValueError(f"{message.format(quote_token(text))} (past the integer string limit of {limit} digits)")
    return value


def _rational(x: Fraction | int | str) -> Fraction:
    """x as a Fraction; a ``str`` is read by :func:`parse_rational`, so it
    obeys the integer string limit as a CLI token does."""
    return parse_rational(x) if isinstance(x, str) else Fraction(x)


def _read_token(parse, text: str, message: str):
    """``parse(text)``, or a ValueError with ``message``, its ``{}`` filled with
    the quoted token, when the token does not parse."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(message.format(quote_token(text))) from None


def quote_token(text: str) -> str:
    """``text`` quoted for an error message.  A token over 40 characters is
    clipped to its first 40 and its length, and one with more digits than the
    interpreter's integer string limit (``sys.get_int_max_str_digits()``,
    read here, never raised) names that limit."""
    if len(text) <= 40:
        return repr(text)
    limit = sys.get_int_max_str_digits()
    over = ""
    if limit and sum(c.isdigit() for c in text) > limit:
        over = f", more digits than the integer string limit of {limit}"
    return f"{text[:40]!r}... ({len(text)} characters{over})"


def _quote_int(n: int) -> str:
    """A caller's integer for an error message: its decimal text, clipped by
    :func:`quote_token` when over 40 characters.  Past the interpreter's
    integer string limit, where ``str`` would raise, it names that limit and
    never calls ``str``."""
    if _over_str_limit(n):
        limit = sys.get_int_max_str_digits()
        return f"{'-' if n < 0 else ''}<more digits than the integer string limit of {limit}>"
    text = str(n)
    return text if len(text) <= 40 else quote_token(text)


def _over_str_limit(n: int) -> bool:
    """Whether ``str(n)`` would raise: n has more digits than the interpreter's
    integer string limit (never, when the limit is 0).  A number of at most
    3*limit bits is under it, which spares building 10^limit."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and abs(n).bit_length() > 3 * limit and abs(n) >= 10**limit
