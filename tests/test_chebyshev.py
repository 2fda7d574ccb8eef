import math
import random

import pytest

from pttunnel import cheb_T, cheb_U


def recurrence_T(n: int, x: float) -> float:
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def recurrence_U(n: int, x: float) -> float:
    # starts from U_{-2} = -1, U_{-1} = 0 so negative indices work too
    prev, cur = -1.0, 0.0
    for _ in range(n + 2):
        prev, cur = cur, 2.0 * x * cur - prev
    return prev


def test_first_kind_trivial_values():
    assert cheb_T(0, 0.3) == 1.0
    assert cheb_T(3, 0.5) == pytest.approx(-1.0, rel=1e-14)
    assert cheb_T(1, -0.25) == pytest.approx(-0.25, rel=1e-14)


def test_second_kind_trivial_values():
    assert cheb_U(-1, 0.7) == 0.0
    assert cheb_U(-2, 0.7) == -1.0
    assert cheb_U(2, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert cheb_U(4, 1.0) == 5.0
    assert cheb_U(4, -1.0) == 5.0
    assert cheb_U(3, -1.0) == -4.0


def test_first_kind_matches_recurrence_outside_band():
    value = cheb_T(7, 2.5)
    assert value == pytest.approx(recurrence_T(7, 2.5), rel=1e-13)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 27, 41, 50])
def test_first_kind_recurrence_agreement_wide_range(n):
    for x in [-10.0, -7.3, -2.0, -0.99, -0.4, 0.0, 0.31, 0.999, 1.7, 4.2, 10.0]:
        expected = recurrence_T(n, x)
        assert cheb_T(n, x) == pytest.approx(expected, rel=1e-12)


def test_recurrence_equivalence_both_kinds():
    rng = random.Random(101)
    for _ in range(400):
        n = rng.randint(0, 30)
        x = rng.uniform(-3.0, 3.0)
        assert cheb_T(n, x) == pytest.approx(recurrence_T(n, x), rel=1e-12, abs=1e-12)
        assert cheb_U(n, x) == pytest.approx(recurrence_U(n, x), rel=1e-12, abs=1e-12)


def test_pearl_identity_splits_first_kind():
    # x*U_{n-1} - U_{n-2} = T_n; sampled away from roots of T_n so the
    # relative comparison is well posed.
    rng = random.Random(77)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 30)
        x = rng.uniform(-3.0, 3.0)
        t_val = cheb_T(n, x)
        lhs = x * cheb_U(n - 1, x) - cheb_U(n - 2, x)
        if abs(t_val) < 1e-3 * max(1.0, abs(x * cheb_U(n - 1, x))):
            continue
        assert lhs == pytest.approx(t_val, rel=1e-12)
        checked += 1


def test_derivative_identity_against_finite_differences():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 20)
        x = rng.uniform(-5.0, 5.0)
        h = 1e-6 * max(1.0, abs(x))
        fd = (cheb_T(n, x + h) - cheb_T(n, x - h)) / (2.0 * h)
        exact = n * cheb_U(n - 1, x)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


def test_branch_continuity_across_unity():
    eps = 1e-9
    for n in range(1, 21):
        for fn in (cheb_T, cheb_U):
            above = fn(n, 1.0 + eps)
            below = fn(n, 1.0 - eps)
            assert abs(above - below) / abs(above) < 1e-6


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cheb_T(-1, 0.5)
    with pytest.raises(ValueError):
        cheb_U(-3, 0.5)
    with pytest.raises(ValueError):
        cheb_T(2, math.inf)
    with pytest.raises(ValueError):
        cheb_U(2, math.nan)
