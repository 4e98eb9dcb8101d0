"""Zeta evaluations: direct summation vs Euler summation vs brute force."""

import math

import mpmath
import numpy as np
import pytest

from eulersum.errors import DomainError, NoEulerSum
from eulersum.zeta import (
    alternating_sequence,
    plain_sequence,
    zeta_direct,
    zeta_euler,
)


def brute_bracket(s, n_terms):
    """Lower/upper bracket of zeta(s) from a plain partial sum plus the
    integral comparison bound on the tail."""
    partial = math.fsum(n ** (-s) for n in range(1, n_terms + 1))
    lower = partial + (n_terms + 1) ** (1.0 - s) / (s - 1.0)
    upper = partial + n_terms ** (1.0 - s) / (s - 1.0)
    return lower, upper


def test_zeta_direct_basel():
    assert zeta_direct(2.0, 1e-10) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-10)


def test_zeta_direct_fourth_power():
    assert zeta_direct(4.0, 1e-10) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-10)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 7.5])
def test_zeta_direct_inside_brute_force_bracket(s):
    lower, upper = brute_bracket(s, 4000)
    value = zeta_direct(s, 1e-10)
    assert lower - 1e-12 <= value <= upper + 1e-12


@pytest.mark.parametrize("s", [1.0, 0.5, -2.0])
def test_zeta_direct_domain(s):
    with pytest.raises(DomainError):
        zeta_direct(s, 1e-8)


def test_zeta_euler_at_zero():
    res = zeta_euler(0.0)
    assert res.converged
    assert res.value == pytest.approx(-0.5, abs=1e-7)


def test_zeta_euler_at_minus_one():
    res = zeta_euler(-1.0)
    assert res.converged
    assert res.value == pytest.approx(-1.0 / 12.0, abs=1e-7)


def test_zeta_euler_agrees_with_direct_at_two():
    res = zeta_euler(2.0)
    assert res.converged
    assert abs(res.value - zeta_direct(2.0, 1e-10)) <= 1e-7


def test_zeta_euler_pole_rejected():
    with pytest.raises(DomainError):
        zeta_euler(1.0)


def test_zeta_euler_fails_honestly_deep_in_the_left_half_line():
    # Abel values for s = -5 are swamped by cancellation noise; the limit
    # extractor must refuse rather than return garbage.
    with pytest.raises(NoEulerSum):
        zeta_euler(-5.0)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_prefactor_identity(s):
    # (1 - 2^(1-s)) zeta(s) equals the directly summed alternating series.
    n_terms = 2_000_000
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    signs = np.where(ns % 2 == 1, 1.0, -1.0)
    eta = math.fsum(signs * ns ** (-s))
    remainder = (n_terms + 1.0) ** (-s)
    lhs = (1.0 - 2.0 ** (1.0 - s)) * zeta_direct(s, 1e-12)
    assert abs(lhs - eta) <= remainder + 1e-10


def test_alternating_sequence_terms():
    seq = alternating_sequence(0.0)
    # prefactor 1/(1-2) = -1 makes the series -1, +1, -1, ...
    assert seq.growth_hint == 0.0 and seq.start_index == 1
    block = seq.term_block(np.array([1.0, 2.0, 3.0]))
    assert block.tolist() == [-1.0, 1.0, -1.0]


@pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -3.0, -2.5, 0.5, 2.0, 3.7])
def test_alternating_term_block_matches_term(s):
    seq = alternating_sequence(s)
    pref = 1.0 / (1.0 - 2.0 ** (1.0 - s))
    ns = np.arange(1.0, 400.0)
    big = np.array([2.0 ** 40 + 1, 2.0 ** 40 + 2, 2.0 ** 52 - 1, 2.0 ** 52])
    for idx in (ns[::3], ns[1::2], ns[::2], ns[::-7], big):
        assert not idx.flags.c_contiguous or idx is big
        # a_n = b_n * n^-s from the normalised coefficients b_n
        block = seq.term_block(idx) * idx ** seq.growth_hint
        # the scalar oracle: sign by integer parity, libm's pow per term
        scalar = np.array([pref * (-1.0) ** (int(n) + 1) * float(n) ** (-s) for n in idx])
        # the integer-parity sign is bit-identical to the float-modulus one
        mod_sign = np.where(np.mod(idx, 2.0) == 1.0, 1.0, -1.0)
        assert block.tobytes() == (pref * mod_sign * idx ** (-s)).tobytes()
        # the sign is exact at every parity and magnitude
        assert np.array_equal(np.signbit(block), np.signbit(scalar))
        if s <= 0.0 and s == round(s):
            # non-negative integer powers are exact, so the values are too
            assert block.tobytes() == scalar.tobytes()
        else:
            # numpy's vectorised pow may differ from libm's by one ulp,
            # which the prefactor can round to two
            assert np.all(np.abs(block - scalar) <= 2.0 * np.spacing(np.abs(scalar)))


@pytest.mark.parametrize("s", [1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-4, 1.0 + 1e-4])
def test_prefactor_keeps_its_digits_near_the_pole(s):
    # 1 - 2^(1-s) cancels near s = 1; b_1 is the prefactor itself
    pref = float(alternating_sequence(s).term_block(np.array([1.0]))[0])
    with mpmath.workdps(40):
        exact = 1 / (1 - mpmath.mpf(2) ** (1 - mpmath.mpf(s)))
        assert abs((pref - exact) / exact) <= 1e-15


def test_plain_sequence_is_all_ones_at_s_zero():
    seq = plain_sequence(0.0)
    assert seq.term_block(np.array([1.0, 2.0, 5.0])).tolist() == [1.0, 1.0, 1.0]
