"""Exact coefficient rings: the integers, the rationals, and prime fields.

Every value handled by this package is an element of one of these three
rings, kept in canonical form at all times: an int for an integer (over Z,
and over Q when the value is integral), a Fraction in lowest terms with
denominator > 1 for any other rational, and a residue in [0, p) over
GF(p).  There is no floating point anywhere.

The ring's kind is dispatched once, when the ring is built: `add`, `sub`,
`mul` and `neg` are bound on each Z and GF(p) instance (the `operator`
builtins over Z, closures that reduce mod p over GF(p)), so element
arithmetic never tests the kind; Q uses the class methods.
"""

from __future__ import annotations

import operator
from fractions import Fraction

# GF(p) needs p below this bound: primality is checked by trial division,
# whose cost grows with sqrt(p) (2 ms at 2^31 - 1, 6 s at 10^16 + 61).
MAX_MODULUS = 2 ** 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Ring:
    """One of Z, Q, or GF(p), with exact element arithmetic.

    Elements are plain Python objects: int for Z and GF(p) (residues in
    [0, p)); over Q, int for an integral value and Fraction (denominator
    > 1, lowest terms) otherwise, so integral rationals cost what integers
    cost.  The form is unique per value, and int and Fraction compare and
    hash equal on equal values.  `canon` is the single entry point that
    maps raw input to canonical form; all constructors route through it.

    `__init__` binds `add`, `sub`, `mul` and `neg` on Z and GF(p)
    instances; the class methods of those names are Q's, which map an
    integral Fraction back to its int.
    """

    INT = "Z"
    RAT = "Q"
    MOD = "GF"

    def __init__(self, kind: str, p: int | None = None):
        if kind == self.MOD:
            if p is not None and p >= MAX_MODULUS:
                raise ValueError(f"GF({p}): modulus must be below 2^31")
            if p is None or not _is_prime(p):
                raise ValueError(f"GF({p}): modulus must be prime")
        elif kind not in (self.INT, self.RAT):
            raise ValueError(f"unknown ring kind {kind!r}")
        self.kind = kind
        self.p = p
        if kind == self.INT:
            self.add, self.sub = operator.add, operator.sub
            self.mul, self.neg = operator.mul, operator.neg
        elif kind == self.MOD:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.neg = lambda a: -a % p

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == self.MOD:
            return f"GF({self.p})"
        return self.kind

    @property
    def is_field(self) -> bool:
        return self.kind != self.INT

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == self.MOD else 0

    # -- element arithmetic ------------------------------------------------

    def canon(self, x):
        """Canonical form of an exact value: an int or a Fraction.

        Anything else (bool, float, str, ...) raises TypeError; text goes
        through `parse`.  The exact-type tests come first because they are
        the hot path: canonical values return at once.
        """
        t = type(x)
        if t is int:
            return x % self.p if self.kind == self.MOD else x
        if t is Fraction:
            if self.kind == self.MOD:
                den = x.denominator % self.p
                if den == 0:
                    raise ZeroDivisionError(
                        f"denominator of {x} vanishes mod {self.p}")
                return (x.numerator * pow(den, -1, self.p)) % self.p
            if x.denominator == 1:
                return x.numerator
            if self.kind == self.INT:
                raise ValueError(f"{x} is not an integer")
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return self.canon(int(x))
        if isinstance(x, Fraction):
            return self.canon(Fraction(x.numerator, x.denominator))
        raise TypeError(f"{x!r} is not an exact ring element (int or Fraction)")

    def zero(self):
        return self.canon(0)

    def one(self):
        return self.canon(1)

    # Q's operations (see __init__): an integral Fraction goes back to its int

    def add(self, a, b):
        c = a + b
        if type(c) is int:
            return c
        return c.numerator if c.denominator == 1 else c

    def sub(self, a, b):
        c = a - b
        if type(c) is int:
            return c
        return c.numerator if c.denominator == 1 else c

    def mul(self, a, b):
        c = a * b
        if type(c) is int:
            return c
        return c.numerator if c.denominator == 1 else c

    def neg(self, a):
        return -a

    def inv(self, a):
        """Multiplicative inverse; fields only."""
        if self.kind == self.RAT:
            c = 1 / Fraction(a)
            return c.numerator if c.denominator == 1 else c
        if self.kind == self.MOD:
            if a % self.p == 0:
                raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
            return pow(a, -1, self.p)
        raise ValueError("Z is not a field")

    def div(self, a, b):
        """Exact quotient a/b; over Z raises unless b divides a."""
        if self.kind == self.INT:
            q, r = divmod(a, b)
            if r != 0:
                raise ValueError(f"{b} does not divide {a} in Z")
            return q
        return self.mul(a, self.inv(b))

    # -- text form (used by the scenario files and reports) -----------------

    # str of a Fraction is "n/d", or "n" when it is integral
    format = staticmethod(str)

    def parse(self, s: str):
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return self.canon(Fraction(int(num), int(den)))
        return self.canon(int(s))


ZZ = Ring(Ring.INT)
QQ = Ring(Ring.RAT)


def GF(p: int) -> Ring:
    return Ring(Ring.MOD, p)


def ring_from_name(name: str) -> Ring:
    """Ring named as in scenario files: "Z", "Q", or "GF(p)"."""
    name = name.strip()
    if name in ("Z", "Q"):
        return ZZ if name == "Z" else QQ
    if name.startswith("GF(") and name.endswith(")") and \
            name[3:-1].strip().isdecimal():
        return GF(int(name[3:-1]))
    raise ValueError(f"unknown ring {name!r} (expected Z, Q, or GF(p))")
