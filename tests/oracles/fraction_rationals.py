"""The rationals with every element a `Fraction`, kept as the oracle for `QQ`.

`QQ` keeps an integral rational as an `int`; this field makes every
constant a `Fraction`, as `QQ` once did, and divides with `Fraction`
arithmetic.  The same computation over both fields must give the same
answers entry for entry.
"""

from fractions import Fraction

from stringar.fields import Rationals


class FractionRationals(Rationals):
    """`Rationals` whose zero, one, constants and inverses are all Fractions."""

    _zero = Fraction(0)
    _one = Fraction(1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def of(self, n):
        return Fraction(n)

    def parse(self, s):
        return Fraction(s)

    def inv(self, x):
        return self._one / x

    def __repr__(self):
        return "QQ (Fraction oracle)"
