"""Exact coefficient fields: the rationals and prime fields of odd characteristic.

All arithmetic is exact; there is no floating point anywhere in this package.
Prime-field values are residues in ``range(p)``, rational values are
``fractions.Fraction`` instances (automatically in lowest terms with positive
denominator).  A :class:`Field` implements arithmetic on these raw values;
:class:`Scalar` pairs a raw value with its field for type-safe use at API
boundaries.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, InvalidField, InvalidRange


#: Miller-Rabin with the first 13 primes as bases is exact below psi_13
#: (Sorenson and Webster, Math. Comp. 86, 2017); moduli at or above it are refused.
MODULUS_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for ``p < MODULUS_BOUND``.

    Raises :class:`InvalidField` at or above the bound, where the 13 bases
    no longer decide primality.
    """
    if p >= MODULUS_BOUND:
        raise InvalidField(f"modulus {p} is at or above the supported bound {MODULUS_BOUND}")
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _parse_fraction(text: str, field_name: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise InvalidField(f"cannot parse {text!r} as a scalar of {field_name}") from None
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {text!r}") from None


class Field:
    """Common interface of the two supported coefficient fields.

    Subclasses provide arithmetic on raw values.  ``zero`` and ``one`` are raw
    constants; use :meth:`scalar` (or call the field directly) to obtain
    :class:`Scalar` objects.
    """

    name: str
    characteristic: int
    zero = None
    one = None

    def coerce(self, x):
        """Convert ``x`` (int, string, Fraction, or Scalar) to a raw value."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a)

    def elements(self):
        """Iterate all raw values (finite fields only)."""
        raise InvalidRange(f"{self.name} is infinite; cannot enumerate elements")

    def nonzero_elements(self):
        return (v for v in self.elements() if v != self.zero)

    def scalar(self, x) -> "Scalar":
        return Scalar(self.coerce(x), self)

    def __call__(self, x) -> "Scalar":
        return self.scalar(x)

    def _coerce_common(self, x):
        """Shared unwrapping for Scalar inputs; returns None if not a Scalar."""
        if isinstance(x, Scalar):
            if x.field != self:
                raise FieldMismatch(f"scalar of {x.field.name} used in {self.name}")
            return x.value
        return None


class PrimeField(Field):
    """The field of integers modulo an odd prime ``p >= 3``."""

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise InvalidField(f"modulus must be an integer, got {p!r}")
        if p == 2:
            raise InvalidField("characteristic 2 is not supported")
        if not is_prime(p):
            raise InvalidField(f"modulus must be prime, got {p}")
        self.p = p

    @property
    def name(self) -> str:
        return f"Fp:{self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, x):
        unwrapped = self._coerce_common(x)
        if unwrapped is not None:
            return unwrapped
        if isinstance(x, bool):
            raise InvalidField(f"cannot coerce {x!r} into {self.name}")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.coerce(_parse_fraction(x, self.name))
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        raise InvalidField(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"0 has no inverse in {self.name}")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return iter(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Rationals(Field):
    """The field of exact rational numbers."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)
    name = "Q"
    characteristic = 0

    def coerce(self, x):
        unwrapped = self._coerce_common(x)
        if unwrapped is not None:
            return unwrapped
        if isinstance(x, bool) or isinstance(x, float):
            raise InvalidField(f"cannot coerce {x!r} into Q (exact values only)")
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return _parse_fraction(x, self.name)
        raise InvalidField(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no inverse in Q")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "Rationals()"


#: Shared instance; all Rationals() compare equal, this is just convenient.
QQ = Rationals()


def field_from_name(name: str) -> Field:
    """Parse a field tag: ``"Q"``, ``"Fp:<p>"``, or the short form ``"F<p>"``."""
    if not isinstance(name, str):
        raise InvalidField(f"field tag must be a string, got {name!r}")
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        body = name[3:]
    elif name.startswith("F"):
        body = name[1:]
    else:
        raise InvalidField(f"unknown field tag {name!r}")
    try:
        p = int(body)
    except ValueError:
        raise InvalidField(f"unknown field tag {name!r}") from None
    return PrimeField(p)


class Scalar:
    """A single field element.

    Immutable by convention; arithmetic between scalars of different fields
    raises :class:`FieldMismatch`.  Plain ints (and strings / Fractions) are
    coerced into the scalar's own field.
    """

    __slots__ = ("value", "field")

    def __init__(self, value, field: Field):
        self.value = value
        self.field = field

    def _other(self, x):
        if isinstance(x, Scalar):
            if x.field != self.field:
                raise FieldMismatch(
                    f"mixed fields {self.field.name} and {x.field.name}"
                )
            return x.value
        return self.field.coerce(x)

    def __add__(self, other):
        return Scalar(self.field.add(self.value, self._other(other)), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.field.sub(self.value, self._other(other)), self.field)

    def __rsub__(self, other):
        return Scalar(self.field.sub(self._other(other), self.value), self.field)

    def __mul__(self, other):
        return Scalar(self.field.mul(self.value, self._other(other)), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.field.div(self.value, self._other(other)), self.field)

    def __rtruediv__(self, other):
        return Scalar(self.field.div(self._other(other), self.value), self.field)

    def __neg__(self):
        return Scalar(self.field.neg(self.value), self.field)

    def inv(self) -> "Scalar":
        return Scalar(self.field.inv(self.value), self.field)

    @property
    def is_zero(self) -> bool:
        return self.value == self.field.zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(
                    f"mixed fields {self.field.name} and {other.field.name}"
                )
            return self.value == other.value
        if isinstance(other, (int, str, Fraction)):
            return self.value == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return f"Scalar({self}, {self.field.name})"
