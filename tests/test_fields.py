import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from permrank import PrimeField, QQ, Rationals, field_from_name
from permrank.errors import DivisionByZero, FieldMismatch, InvalidField
from permrank.fields import MODULUS_BOUND, is_prime


class TestConstruction:
    def test_characteristic_two_rejected(self):
        with pytest.raises(InvalidField):
            PrimeField(2)

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15, -7])
    def test_nonprime_rejected(self, p):
        with pytest.raises(InvalidField):
            PrimeField(p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_odd_primes_ok(self, p):
        assert PrimeField(p).characteristic == p

    def test_field_names(self):
        assert PrimeField(5).name == "Fp:5"
        assert Rationals().name == "Q"

    def test_field_from_name(self):
        assert field_from_name("Q") == QQ
        assert field_from_name("Fp:5") == PrimeField(5)
        assert field_from_name("F3") == PrimeField(3)
        with pytest.raises(InvalidField):
            field_from_name("R")
        with pytest.raises(InvalidField):
            field_from_name("Fp:4")

    def test_floats_rejected(self):
        with pytest.raises(InvalidField):
            QQ(0.5)
        with pytest.raises(InvalidField):
            PrimeField(3)(1.0)


class TestPrimality:
    def test_agrees_with_sympy_below_ten_to_the_fifth(self):
        assert [p for p in range(-3, 10**5) if is_prime(p)] == list(sympy.primerange(10**5))

    def test_agrees_with_sympy_on_large_numbers(self):
        rng = random.Random("is-prime")
        odd = [rng.randrange(10**5, MODULUS_BOUND) | 1 for _ in range(300)]
        primes = [sympy.prevprime(x) for x in odd[:100]]
        for x in odd + primes:
            assert is_prime(x) == sympy.isprime(x), x

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 .. 23
        assert not is_prime(n)
        with pytest.raises(InvalidField):
            PrimeField(n)

    def test_large_prime_modulus_builds_at_once(self):
        start = time.process_time()
        assert PrimeField(10**18 + 3).characteristic == 10**18 + 3
        assert time.process_time() - start < 0.1

    def test_modulus_bound(self):
        below = sympy.prevprime(MODULUS_BOUND)
        assert PrimeField(below).characteristic == below
        # the bound is itself a strong pseudoprime to all 13 bases
        for p in (MODULUS_BOUND, sympy.nextprime(MODULUS_BOUND)):
            with pytest.raises(InvalidField, match="bound"):
                PrimeField(p)
            with pytest.raises(InvalidField, match="bound"):
                field_from_name(f"Fp:{p}")


class TestArithmetic:
    def test_inverse_mod_5(self, F5):
        inv = F5(2).inv()
        assert inv == F5(3)
        assert F5(2) * inv == F5(1)

    def test_half_plus_half(self, Q):
        assert Q("1/2") + Q("1/2") == Q(1)

    def test_inverse_of_zero(self, F5, Q):
        with pytest.raises(DivisionByZero):
            F5(0).inv()
        with pytest.raises(DivisionByZero):
            Q(0).inv()
        with pytest.raises(DivisionByZero):
            Q(1) / Q(0)

    def test_field_mismatch(self, F3, F5, Q):
        with pytest.raises(FieldMismatch):
            F3(1) + F5(1)
        with pytest.raises(FieldMismatch):
            Q(1) * F3(1)
        with pytest.raises(FieldMismatch):
            F3(1) == F5(1)

    def test_int_coercion(self, F5):
        assert F5(2) + 4 == F5(1)
        assert 2 * F5(3) == F5(1)

    def test_lowest_terms(self, Q):
        s = Q("4/6")
        assert str(s) == "2/3"
        assert str(Q(Fraction(3, -9))) == "-1/3"

    def test_negative_residues_normalize(self, F5):
        assert F5(-1) == F5(4)
        assert str(F5(-1)) == "4"

    def test_fraction_string_into_prime_field(self, F5):
        # 7/2 = 7 * inv(2) = 2 * 3 = 6 = 1 mod 5
        assert F5("7/2") == F5(1)


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


class TestProperties:
    @given(a=small_fractions, b=small_fractions, c=small_fractions)
    def test_rational_field_laws(self, a, b, c):
        Q = QQ
        sa, sb, sc = Q(a), Q(b), Q(c)
        assert sa + sb == sb + sa
        assert (sa + sb) + sc == sa + (sb + sc)
        assert sa * (sb + sc) == sa * sb + sa * sc
        assert sa - sa == Q(0)
        if not sa.is_zero:
            assert sa * sa.inv() == Q(1)

    @given(a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6))
    def test_prime_field_laws(self, a, b, c):
        F = PrimeField(7)
        sa, sb, sc = F(a), F(b), F(c)
        assert sa + sb == sb + sa
        assert (sa * sb) * sc == sa * (sb * sc)
        assert sa * (sb + sc) == sa * sb + sa * sc
        if not sa.is_zero:
            assert sa * sa.inv() == F(1)

    @given(value=small_fractions)
    def test_string_round_trip_is_exact(self, value):
        Q = QQ
        s = Q(value)
        assert Q(str(s)) == s
        assert Q(str(s)).value == s.value

    @given(value=st.integers(0, 12))
    def test_prime_field_string_round_trip(self, value):
        F = PrimeField(13)
        s = F(value)
        assert F(str(s)) == s

    def test_scalar_hash_consistency(self, F5):
        assert hash(F5(2)) == hash(F5(7))
        assert len({F5(1), F5(6), F5(2)}) == 2

    def test_bool_and_is_zero(self, Q):
        assert not Q(0)
        assert Q("1/3")
        assert Q(0).is_zero
