import random

import pytest

from pttunnel.chebyshev import cheb_pair


def recurrence_T(n: int, x: float) -> float:
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def recurrence_U(n: int, x: float) -> float:
    # starts from U_{-2} = -1, U_{-1} = 0 so that U_0 = 1 comes out of the loop
    prev, cur = -1.0, 0.0
    for _ in range(n + 2):
        prev, cur = cur, 2.0 * x * cur - prev
    return prev


def test_first_kind_trivial_values():
    assert cheb_pair(3, 0.5)[0] == pytest.approx(-1.0, rel=1e-14)
    assert cheb_pair(1, -0.25)[0] == pytest.approx(-0.25, rel=1e-14)


def test_second_kind_trivial_values():
    assert cheb_pair(3, 0.5)[1] == pytest.approx(0.0, abs=1e-15)
    assert cheb_pair(5, 1.0)[1] == 5.0
    assert cheb_pair(1, 0.7)[1] == pytest.approx(1.0, rel=1e-15)


def test_first_kind_matches_recurrence_outside_band():
    value = cheb_pair(7, 2.5)[0]
    assert value == pytest.approx(recurrence_T(7, 2.5), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5, 13, 27, 41, 50])
def test_first_kind_recurrence_agreement_wide_range(n):
    for x in [-0.99, -0.4, 0.0, 0.31, 0.999, 1.7, 4.2, 10.0]:
        expected = recurrence_T(n, x)
        assert cheb_pair(n, x)[0] == pytest.approx(expected, rel=1e-12)


def test_recurrence_equivalence_both_kinds():
    rng = random.Random(101)
    for _ in range(400):
        n = rng.randint(1, 31)
        x = rng.uniform(-0.999, 3.0)
        t_n, u_n1 = cheb_pair(n, x)
        assert t_n == pytest.approx(recurrence_T(n, x), rel=1e-12, abs=1e-12)
        assert u_n1 == pytest.approx(recurrence_U(n - 1, x), rel=1e-12, abs=1e-12)


def test_pearl_identity_splits_first_kind():
    # x*U_{n-1} - U_{n-2} = T_n; sampled away from roots of T_n so the
    # relative comparison is well posed.
    rng = random.Random(77)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 30)
        x = rng.uniform(-0.999, 3.0)
        t_val, u_n1 = cheb_pair(n, x)
        lhs = x * u_n1 - cheb_pair(n - 1, x)[1]
        if abs(t_val) < 1e-3 * max(1.0, abs(x * u_n1)):
            continue
        assert lhs == pytest.approx(t_val, rel=1e-12)
        checked += 1


def test_pell_identity_outside_band():
    # T_n^2 - (x^2 - 1) U_{n-1}^2 = 1 for x > 1; both squares grow as
    # x^(2n), so the residual is bounded relative to T_n^2
    rng = random.Random(78)
    for _ in range(300):
        n = rng.randint(1, 30)
        x = 1.0 + 10.0 ** rng.uniform(-12.0, 1.0)
        t_n, u_n1 = cheb_pair(n, x)
        residual = t_n * t_n - (x - 1.0) * (x + 1.0) * u_n1 * u_n1 - 1.0
        assert abs(residual) <= 1e-13 * t_n * t_n


def test_derivative_identity_against_finite_differences():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 20)
        x = rng.uniform(-0.99, 5.0)
        h = 1e-6 * max(1.0, abs(x))
        fd = (cheb_pair(n, x + h)[0] - cheb_pair(n, x - h)[0]) / (2.0 * h)
        exact = n * cheb_pair(n, x)[1]
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


def test_branch_continuity_across_unity():
    # the three branches x > 1, x == 1 and x < 1 meet: the kernel reaches
    # each of them with xi just outside the band
    eps = 1e-9
    for n in range(1, 21):
        at_one = cheb_pair(n, 1.0)
        assert at_one == (1.0, float(n))
        for above, below, exact in zip(cheb_pair(n, 1.0 + eps), cheb_pair(n, 1.0 - eps), at_one):
            assert abs(above - below) / abs(above) < 1e-6
            assert abs(above - exact) / abs(exact) < 1e-6
