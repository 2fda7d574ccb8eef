"""Closed-form transmission, transmission phase, and stationary-phase times.

The N-cell transmission is t = exp(-i*k*L)/G with

    G = (xi - i*chi) U_{N-1}(xi) - U_{N-2}(xi) = T_N(xi) - i*chi*U_{N-1}(xi),

where xi and chi are real functions of (E, V, b) built from the cell
geometry.  The stationary-phase time is the k-derivative of the transmission
phase plus the free-passage term; in natural units

    tau = (1/2k) * d(arctan(q*chi))/dk,   q = U_{N-1}(xi)/T_N(xi),

which this module evaluates analytically.  :func:`closed_form` computes t,
its phase and tau together from one set of cell scalars; the single-output
functions are projections of its record.  For thick cells xi grows like
exp(2*beta), so every (xi^2 - 1) denominator is assembled from bounded
ratios (chi/s, xi'/s, ... with s = sqrt(xi^2 - 1)) instead of raw polynomial
values, and t itself comes from ln|G| and arg G on the growth rate nu that
the time uses; the exact path refuses beta > BETA_MAX, beyond which the
thick-barrier limit is the only honest answer.

The independent check of t and tau is :func:`transfer.lattice_oracle`, the
2N-barrier product with its exact k-derivative.  :func:`tunneling_time_fd`
differentiates :func:`transmission_closed`, so it shares G with the closed form.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (
    DegeneratePotentialError,
    OverflowGuardError,
    PtTunnelError,
    SpectralSingularityError,
)
from .model import CellSpec, Particle, _check_cells, _check_real, _Geometry, _geometry, _record

__all__ = [
    "BETA_MAX",
    "ClosedForm",
    "HartmanCoeffs",
    "closed_form",
    "transmission_closed",
    "tunneling_time",
    "tunneling_time_fd",
    "hartman_coeffs",
    "hartman_limit_time",
    "free_propagation_time",
    "n_infinity_bracket",
    "square_barrier_time",
]

# Largest growth exponent the exact path accepts: exp(2*beta) must stay well
# inside double range together with its O(1..b) prefactors.
BETA_MAX = 350.0

# |G| below this absolute bound is treated as a spectral singularity.
G_SINGULARITY_ABS_TOL = 1e-12

# N^2 |xi^2 - 1| below this marks a point as on the band edge (ClosedForm.band_edge,
# the XiAtUnity flag); the time takes the same expression there as anywhere.
BAND_EDGE_TOL = 1e-10

# ln of the largest representable double, slightly rounded down.
_LN_MAX = 709.0

_LN2 = math.log(2.0)

_NAN = float("nan")

# Below this angle x, the parts of dq/dxi that vanish as x^3 are summed as
# series rather than formed directly.
_SERIES_X = 0.5

# Taylor coefficients, highest order first, of A(x)/x^3 and B(x)/x^3 in powers
# of y = -x^2, where A(x) = sin x - x cos x and B(x) = x - sin x cos x.  Both
# vanish as x^3, so below x = _SERIES_X these keep the digits the direct
# forms cancel.  The hyperbolic twins x cosh x - sinh x and sinh x cosh x - x
# take y = +x^2.
_A_SERIES, _B_SERIES = zip(
    *((2 * j / math.factorial(2 * j + 1), 4**j / math.factorial(2 * j + 1))
      for j in range(11, 0, -1))
)


def _horner(series: tuple[float, ...], y: float) -> float:
    """The 11-term series at y, highest order first, from c0 itself (y is finite at every caller)."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = series
    return ((((((((((c0 * y + c1) * y + c2) * y + c3) * y + c4) * y + c5) * y + c6) * y + c7) * y
              + c8) * y + c9) * y + c10)


def _wrap_phase(raw: float) -> float:
    """Principal value of a phase in (-pi, pi]; nan for a phase that overflowed."""
    if not math.isfinite(raw):
        return _NAN
    wrapped = math.remainder(raw, math.tau)
    return wrapped if wrapped > -math.pi else math.pi


class ClosedForm(NamedTuple):
    """tau, t and theta of the N-cell lattice from one evaluation.

    ``path`` names the branch taken: ``empty`` (N = 0: t = 1, tau = theta = 0),
    ``in-band`` (|xi| <= 1), ``singular`` (in the band, |G| <
    G_SINGULARITY_ABS_TOL), ``out-of-band`` (xi > 1, t from ln|G| and arg G),
    ``underflow`` (|G| itself leaves double range), ``handoff`` (beta >
    BETA_MAX: the thick-cell limit applies) or ``not-evaluated`` (the (E, V)
    geometry, the phase 2*alpha or k*L leaves double range, or xi + 1 cancels
    to 0 outside the band).  ``t`` is None where ``error`` replaces it.
    ``theta`` is the phase of t, the bounded-ratio phase on ``underflow`` and
    nan on ``singular``, whose tau stays exact.  On ``handoff`` and
    ``not-evaluated``, tau, theta and ``xi`` are nan and an OverflowGuardError
    in ``error`` says why.
    ``band_edge`` marks N^2 |xi^2 - 1| < BAND_EDGE_TOL on either side of the
    band; tau there comes from the same expression as elsewhere.
    """

    tau: float
    theta: float
    t: complex | None
    error: PtTunnelError | None = None
    xi: float = _NAN
    band_edge: bool = False
    path: str = "not-evaluated"

    @property
    def t_abs(self) -> float:
        """|t|; 0 on ``underflow`` and ``handoff``, inf on ``singular``, nan on ``not-evaluated``."""
        return abs(self.t) if self.t is not None else _T_ABS_WITHOUT_T[self.path]


_T_ABS_WITHOUT_T = {"singular": math.inf, "underflow": 0.0, "handoff": 0.0, "not-evaluated": _NAN}


def closed_form(particle: Particle, cell: CellSpec, n_cells: int) -> ClosedForm:
    """Evaluate tau, t and theta at one (E, V, b, N) point in a single pass:
    the kernel's cell part (:func:`_cell`, all that reads b and not N), then
    its N part (:func:`_closed_form`), which a sweep runs once per N on one
    cell part.

    The time is

        tau = [q*chi' + chi*xi'*(dq/dxi)] / (2k*(1 + (q*chi)^2))

    with q = U_{N-1}/T_N and dq/dxi exact on each side of the band, with no
    switch at its edge.  In the band, xi = +-cos(psi) with psi <= pi/2,
    q = +-N sinc(N psi)/(sinc(psi) cos(N psi)) and dq/dxi = -[N A(psi) +
    cos(psi) B(N psi)]/(sin^3(psi) cos^2(N psi)), A(x) = sin x - x cos x,
    B(x) = x - sin x cos x: finite at every double, roots of T_N included.
    Outside it, xi = cosh(nu), s = sinh(nu), q = tanh(N nu)/s and s^2 dq/dxi
    = -[N sech^2(N nu)(nu coth nu - 1) + coth nu (tanh N nu - N nu sech^2 N nu)]
    from the bounded ratios chi/s, xi'/s, chi'/s, xi/s, so nothing overflows
    for beta <= BETA_MAX.  Parts that vanish as x^3 are summed as series below
    x = _SERIES_X.  Inside the band G is formed from T_N and U_{N-1} directly;
    outside, t = exp(-ln|G| - i(k*L + arg G)) with ln|G| = ln cosh(N nu) +
    ln|1 - i q chi| and arg G = -arctan(q chi), from the same nu, so no
    component of G has to fit in a double.  The record's ``path`` names the
    branch.  Raises ValueError unless N is an int, not a bool, in [0, the
    largest double], and OverflowGuardError where the cell geometry itself
    leaves double range (see :func:`model._geometry`).
    """
    n_cells = _check_cells(n_cells)  # the N rule first, as at every entry point that takes N
    geo = _geometry(particle, cell.strength)
    return _closed_form(geo, _cell(geo, cell.width), cell.width, n_cells)


def _unevaluated(message: str, path: str = "not-evaluated") -> ClosedForm:
    return _record(ClosedForm, (_NAN, _NAN, None, OverflowGuardError(message), _NAN, False, path))


def _cell(geo: _Geometry, width: float) -> tuple[float, ...] | ClosedForm:
    """The kernel's cell part at barrier width b, which every N shares: the
    plain tuple (xi, xi - 1, xi + 1, chi, xi', chi', beta), or the
    ``handoff`` record (beta > BETA_MAX) and then the ``not-evaluated`` one
    (2*alpha leaves double range) of :class:`ClosedForm`.

    The time expression divides by xi^2 - 1, and for thin cells xi sits
    within O(b^2) of 1, where forming xi - 1 from the rounded xi would lose
    all leading digits.  Regrouping with cos(2a) = 1 - 2 sin^2(a) and
    cosh(2b) = 1 + 2 sinh^2(b) gives the offsets directly:

        xi - 1 = sinh^2(beta) (1 - cos 2phi cos^2 alpha)
                 - sin^2(alpha) (1 + cos 2phi cosh^2 beta)
        xi + 1 = cos^2(alpha) (1 - cos 2phi sinh^2 beta)
                 + cosh^2(beta) (1 - cos 2phi sin^2 alpha)

    and every downstream (xi^2 - 1) factor is built from these, which keeps
    the free-space (V = 0) reduction of the time exact to rounding at any N.
    For the same reason xi' carries cosh 2beta - cos 2alpha, O(b^2) in a thin
    cell, as 2 (sinh^2 beta + sin^2 alpha).
    """
    (k, rho, rho3, sin_phi, cos_phi, sin_2phi, cos_2phi, u_plus, u_minus, phi_prime, u_plus_prime,
     u_minus_prime, alpha_rate, beta_rate) = geo
    alpha, beta = width * rho * cos_phi, width * rho * sin_phi
    if beta > BETA_MAX:
        return _unevaluated(f"growth exponent beta = {beta:.3f} exceeds {BETA_MAX:.0f}; exp(2*beta) "
                            "leaves double range -- use the thick-barrier limit", "handoff")
    if not math.isfinite(two_alpha := 2.0 * alpha):
        return _unevaluated(f"cell phase 2*alpha = 2*{alpha:.3e} leaves double range")
    bk = width * k
    alpha_prime, beta_prime = bk * alpha_rate / rho3, bk * beta_rate / rho3
    sin_a, cos_a = math.sin(alpha), math.cos(alpha)
    sinh_b, cosh_b = math.sinh(beta), math.cosh(beta)
    sin_2a, cos_2a = math.sin(two_alpha), math.cos(two_alpha)
    sinh_2b, cosh_2b = math.sinh(2.0 * beta), math.cosh(2.0 * beta)
    sin_a2, cos_a2 = sin_a * sin_a, cos_a * cos_a
    sinh_b2, cosh_b2 = sinh_b * sinh_b, cosh_b * cosh_b
    xi_minus_1 = sinh_b2 * (1.0 - cos_2phi * cos_a2) - sin_a2 * (1.0 + cos_2phi * cosh_b2)
    xi_plus_1 = cos_a2 * (1.0 - cos_2phi * sinh_b2) + cosh_b2 * (1.0 - cos_2phi * sin_a2)
    chi = 0.5 * (u_plus * cos_phi * sin_2a + u_minus * sin_phi * sinh_2b)
    xi_prime = (2.0 * beta_prime * sin_phi * sin_phi * sinh_2b - 2.0 * alpha_prime * cos_phi * cos_phi * sin_2a
                + 2.0 * phi_prime * sin_2phi * (sinh_b2 + sin_a2))
    chi_prime = (u_plus * (alpha_prime * cos_2a * cos_phi - 0.5 * phi_prime * sin_phi * sin_2a)
                 + u_minus * (beta_prime * cosh_2b * sin_phi + 0.5 * phi_prime * cos_phi * sinh_2b)
                 + 0.5 * u_plus_prime * cos_phi * sin_2a + 0.5 * u_minus_prime * sin_phi * sinh_2b)
    return 0.5 * (xi_minus_1 + xi_plus_1), xi_minus_1, xi_plus_1, chi, xi_prime, chi_prime, beta


def _closed_form(geo: _Geometry | None, cell: tuple[float, ...] | ClosedForm | None, width: float,
                 n_cells: int) -> ClosedForm:
    """:func:`closed_form`'s N part, on a (k, V) geometry that many widths
    share (None where it leaves double range, and then ``cell`` is unread)
    and its :func:`_cell` at b.  It checks the geometry, N = 0, the cell's
    record, then k*L; its callers check N."""
    if geo is None:
        return _unevaluated("cell geometry leaves double range")
    if n_cells == 0:
        return _record(ClosedForm, (0.0, 0.0, 1.0 + 0.0j, None, _NAN, False, "empty"))
    if type(cell) is ClosedForm:  # handoff or not-evaluated: no N changes that
        return cell
    xi, xi_minus_1, xi_plus_1, chi, xi_prime, chi_prime, beta = cell
    k = geo.k
    n = float(n_cells)  # the same bits below 2**53, and N^2 past 1.3e154 is inf, not an OverflowError
    length = 2.0 * (n * width)  # 2N itself is inf past half the largest double
    if not math.isfinite(k * length):
        return _unevaluated(f"lattice phase k*L = {k:.3e}*{length:.3e} leaves double range")
    quad = xi_minus_1 * xi_plus_1  # inf far outside the band is fine
    band_edge = n * n * abs(quad) < BAND_EDGE_TOL
    # xi + 1 >= 2 cos^2(alpha) >= 0 for every cell (0 < cos 2phi <= 1), so
    # outside the band xi > 1 and T_N > 0.  The side is read off xi - 1, whose
    # sign quad shares: just outside the band xi itself can round to 1.0.
    if xi_minus_1 > 0.0:
        # xi > 1: the record from the growth rate nu = acosh(xi).
        # s = sqrt(xi^2 - 1) without forming xi^2
        scale = math.sqrt(abs(xi_minus_1)) * math.sqrt(abs(xi_plus_1))
        if scale == 0.0:  # xi + 1 > 2 here: it lost every digit, as where cos 2phi rounds to 1
            return _unevaluated(f"xi + 1 cancels to 0 at beta = {beta:.3f}")
        nu1 = math.asinh(scale)
        nu = n * nu1
        tt = math.tanh(nu)
        cs, rs, y = chi / scale, xi / scale, nu1 * nu1
        sech2 = 4.0 * (decay := math.exp(-2.0 * nu)) / (1.0 + decay) ** 2
        # the two parts of s^2 dq/dxi that vanish as x^3, summed where small
        coth_part = y * (nu1 / scale) * _horner(_A_SERIES, y) if nu1 < _SERIES_X else nu1 * rs - 1.0
        tanh_part = nu**3 * _horner(_B_SERIES, nu * nu) * sech2 if nu < _SERIES_X else tt - nu * sech2
        minus_s2_dq = n * sech2 * coth_part + rs * tanh_part
        bracket = tt * (chi_prime / scale) - cs * (xi_prime / scale) * minus_s2_dq
        tau = bracket / (2.0 * k * (1.0 + (tt * cs) ** 2))
        q_chi = chi * (tt / scale)
        # t = exp(-ln|G| - i(k*L + arg G)), G = T_N (1 - i q chi) and T_N = cosh(N nu)
        ln_g = nu - _LN2 + math.log1p(decay) + 0.5 * math.log1p(q_chi**2)
        phase = -k * length - math.atan2(-q_chi, 1.0)
        if ln_g > _LN_MAX:  # the phase stays well defined through the bounded ratio q*chi
            error = OverflowGuardError(
                f"|G| ~ exp({ln_g:.1f}) exceeds double range; transmission magnitude underflows")
            return _record(ClosedForm, (tau, _wrap_phase(phase), None, error, xi, band_edge, "underflow"))
        t = cmath.rect(math.exp(-ln_g), phase)
        return _record(ClosedForm, (tau, cmath.phase(t), t, None, xi, band_edge, "out-of-band"))
    # |xi| <= 1: the record from the band angle psi.
    # sin psi from the cancellation-free offsets stays consistent with chi.
    # q (odd in xi) and dq/dxi (even) take psi1 = arccos|xi| <= pi/2, where
    # N A(psi) + cos(psi) B(N psi) does not cancel as it does near psi = pi;
    # G takes psi = arccos(xi) itself.  math.cos never returns 0 for a
    # finite double, so q stays finite at the roots of T_N.
    sine = math.sqrt(max(-quad, 0.0))
    psi1 = math.atan2(sine, abs(xi))
    x, y = n * psi1, psi1 * psi1
    sin_x, cos_x = math.sin(x), math.cos(x)
    psi = psi1 if xi >= 0.0 else math.atan2(sine, xi)
    cos_n, sin_n = (cos_x, sin_x) if xi >= 0.0 else (math.cos(n * psi), math.sin(n * psi))
    sinc1 = math.sin(psi1) / psi1 if psi1 else 1.0
    q = (n if xi >= 0.0 else -n) * (sin_x / x if x else 1.0) / (sinc1 * cos_x)
    a_part = _horner(_A_SERIES, -y) if psi1 < _SERIES_X else (sinc1 - math.cos(psi1)) / y
    b_part = n * n * _horner(_B_SERIES, -x * x) if x < _SERIES_X else (x - sin_x * cos_x) / (x * y)
    dq_dxi = -n * (a_part + abs(xi) * b_part) / (sinc1**3 * cos_x * cos_x)
    try:
        tau = (q * chi_prime + chi * xi_prime * dq_dxi) / (2.0 * k * (1.0 + (q * chi) ** 2))
    except OverflowError:  # q ~ N/psi in a thin cell: (q*chi)^2 leaves double range for a huge N
        tau = _NAN
    if sine == 0.0:  # exactly on a band edge, where U_{N-1} = q T_N
        g = complex(cos_n, -chi * q * cos_n)
    else:
        g = complex(cos_n, -chi * sin_n / sine)
    mag = abs(g)
    if mag < G_SINGULARITY_ABS_TOL:
        error = SpectralSingularityError(mag)
        return _record(ClosedForm, (tau, _NAN, None, error, xi, band_edge, "singular"))
    t = cmath.exp(-1j * k * length) / g
    return _record(ClosedForm, (tau, cmath.phase(t), t, None, xi, band_edge, "in-band"))


def transmission_closed(particle: Particle, cell: CellSpec, n_cells: int) -> complex:
    """Closed-form transmission t = exp(-i*k*L)/G of the N-cell lattice.

    Raises
    ------
    SpectralSingularityError
        |G| < G_SINGULARITY_ABS_TOL: the lattice lases at this point.
    OverflowGuardError
        beta > BETA_MAX, or |G| itself exceeds double range (the
        transmission magnitude underflows; the asymptotic path applies).
    """
    record = closed_form(particle, cell, n_cells)
    if record.error is not None:
        raise record.error
    return record.t


def tunneling_time(particle: Particle, cell: CellSpec, n_cells: int) -> float:
    """Analytic stationary-phase tunneling time; see :func:`closed_form`.

    Raises the record's OverflowGuardError on ``handoff`` and ``not-evaluated``,
    and one wherever else the time is not finite (its k-derivatives leave
    double range, as at E = 1e300).
    """
    record = closed_form(particle, cell, n_cells)
    if math.isfinite(record.tau):
        return record.tau
    if record.path in ("handoff", "not-evaluated"):
        raise record.error
    raise OverflowGuardError(f"tunneling time is {record.tau!r}: its terms leave double range")


def tunneling_time_fd(
    particle: Particle, cell: CellSpec, n_cells: int, rel_step: float = 1e-6
) -> float:
    """Finite-difference tunneling time (the oracle of the analytic derivative).

    Central difference of the transmission phase over k*(1 -+ rel_step),
    unwrapped across the stencil by minimal jump, plus the free-passage term:

        tau = (dtheta/dk + L) / (2k).

    The phase is that of :func:`transmission_closed`, so this shares G with
    the closed form and checks only the analytic k-derivative behind tau;
    :func:`sweep.run_limits` no longer uses it, as :func:`transfer.lattice_oracle`
    gives t and tau exactly.  Raises ValueError unless N is an int, not a
    bool, in [0, the largest double], and OverflowGuardError where the upper
    stencil energy leaves double range.
    """
    if not (1e-9 <= rel_step <= 1e-3):
        raise ValueError("rel_step must lie in [1e-9, 1e-3]")
    _check_cells(n_cells)
    if n_cells == 0:
        return 0.0
    k = particle.k
    dk = rel_step * k
    try:  # a float ** raises where the upper stencil energy leaves double range
        e_hi = (k + dk) ** 2
    except OverflowError:
        raise OverflowGuardError(
            f"FD stencil energy (k + dk)^2 = {k + dk!r}^2 leaves double range") from None
    t_hi = transmission_closed(Particle(e_hi), cell, n_cells)
    t_lo = transmission_closed(Particle((k - dk) ** 2), cell, n_cells)
    dtheta = math.remainder(cmath.phase(t_hi) - cmath.phase(t_lo), math.tau)
    length = 2.0 * (n_cells * cell.width)  # 2N itself is inf past half the largest double
    return (dtheta / (2.0 * dk) + length) / (2.0 * k)


class HartmanCoeffs(NamedTuple):
    """Coefficients of the thick-cell (b -> infinity) expansions.

    xi ~ f1*exp(2*beta), xi' ~ (f2 + b*f4)*exp(..), chi' ~ (b*g2 + g3)*exp(..)
    and chi/xi -> gamma, each up to terms that do not grow with exp(2*beta).
    None depends on b.  Satisfies g2 - gamma*f4 = 0 identically.
    """

    f1: float
    f2: float
    f4: float
    g2: float
    g3: float
    gamma: float


def hartman_coeffs(particle: Particle, strength: float) -> HartmanCoeffs:
    """Thick-cell expansion coefficients for potential strength V > 0.

    Raises DegeneratePotentialError for V <= 0, ValueError for a V CellSpec
    rejects, and OverflowGuardError when rho^3 leaves double range or
    sin(phi) underflows to 0.
    """
    if strength <= 0.0:
        raise DegeneratePotentialError("thick-barrier expansion requires strength > 0")
    return _hartman_coeffs(particle, strength, _geometry(particle, _check_real("strength", strength)))


def _hartman_coeffs(particle: Particle, strength: float, geo: _Geometry) -> HartmanCoeffs:
    """:func:`hartman_coeffs` from the (E, V) geometry the caller has already built."""
    k = geo.k
    v = strength
    sin_phi = geo.sin_phi
    rho3 = _power(geo.rho, 3)
    if sin_phi == 0.0:  # gamma divides by it
        raise OverflowGuardError(f"sin(phi) underflows to 0 at E = {particle.energy!r}, V = {v!r}")
    dec_factor = k * k * sin_phi * sin_phi - 0.5 * v * geo.sin_2phi
    return HartmanCoeffs(
        f1=0.5 * sin_phi * sin_phi,
        f2=0.5 * geo.phi_prime * geo.sin_2phi,
        f4=k * sin_phi / rho3 * dec_factor,
        g2=k * geo.u_minus / (2.0 * rho3) * dec_factor,
        g3=0.25 * (geo.phi_prime * geo.u_minus * geo.cos_phi + geo.u_minus_prime * sin_phi),
        gamma=0.5 * geo.u_minus / sin_phi,
    )


def hartman_limit_time(particle: Particle, strength: float) -> float:
    """Saturated tunneling time in the thick-cell limit.

    tau_inf = (g3 - gamma*f2) / (2k*(1 + gamma^2)*f1): independent of both
    the cell width and the repetition count by construction.

    Raises OverflowGuardError when the coefficients or the time leave double
    range, or the time's denominator underflows to 0.
    """
    return _limit_time(hartman_coeffs(particle, strength), particle.k)


def _limit_time(c: HartmanCoeffs, k: float) -> float:
    denominator = 2.0 * k * (1.0 + c.gamma**2) * c.f1
    if denominator == 0.0:  # f1 = sin^2(phi)/2 underflows to 0 below V/k^2 ~ 1e-161
        raise OverflowGuardError("thick-cell limit time's denominator underflows to 0")
    tau = (c.g3 - c.gamma * c.f2) / denominator
    if not math.isfinite(tau):
        raise OverflowGuardError("thick-cell limit time leaves double range")
    return tau


def _power(x: float, exponent: int) -> float:
    """x**exponent, or OverflowGuardError where it leaves double range."""
    try:
        return x**exponent
    except OverflowError:
        raise OverflowGuardError(f"{x:.3e}**{exponent} leaves double range") from None


def free_propagation_time(particle: Particle, span: float) -> float:
    """Time L/(2k) to cross a length L; ValueError for an L that the span rule rejects."""
    return _check_real("span", span) / (2.0 * particle.k)


def n_infinity_bracket(particle: Particle, strength: float, span: float) -> float:
    """Many-thin-cells limit of the time, via the intermediate bracket form.

    Evaluates L/(4k*rho^3) * [rho^3 + ((k^4 - V^2)/k^2)*rho*cos(2phi)
    + 2V*rho*sin(2phi)] literally; the bracket collapses to 2*rho^3, so the
    value equals the free-propagation time L/(2k) identically.  Keeping the
    unsimplified form makes the cancellation itself testable.

    Raises ValueError for a V, or an L > 0, that the input rules reject, and
    OverflowGuardError where the geometry or a term of the bracket leaves
    double range or the denominator 4*k*rho^3 underflows to 0.
    """
    _check_real("strength", strength)
    _check_real("span", span, positive=True)
    geo = _geometry(particle, strength)
    k = particle.k
    rho3 = _power(geo.rho, 3)
    bracket = (
        rho3
        + (_power(k, 4) - float(strength) * strength) / (k * k) * geo.rho * geo.cos_2phi
        + 2.0 * strength * geo.rho * geo.sin_2phi
    )
    if (denominator := 4.0 * k * rho3) == 0.0:  # rho^5 > 0 (the geometry's guard) does not keep it from 0
        raise OverflowGuardError(
            f"denominator 4*k*rho^3 underflows to 0 at E = {particle.energy!r}, V = {strength!r}")
    value = span / denominator * bracket
    if not math.isfinite(value):
        raise OverflowGuardError(f"thin-cell bracket {bracket!r} leaves double range")
    return value


def square_barrier_time(particle: Particle, barrier_height: float, span: float) -> float:
    """Stationary-phase time through a single real square barrier (baseline).

    Analytic E-derivative of arctan(((k^2-q^2)/2kq)*tanh(qL)) with
    q = sqrt(V - E); only the tunneling regime V > E is supported.  Saturates
    at 1/(q*k) for thick barriers and vanishes linearly as L -> 0, with slope

        d(tau)/dL at L = 0  =  (V^2 + k^2 (V - 2E)) / (4 k^3 q^2)

    (5.5 at E = 1, V = 20).  Raises ValueError for V <= E, then for a V > 0
    or an L >= 0 that the input rules reject, and OverflowGuardError where
    (kq)^3 or V^2 leaves double range or (kq)^3 underflows to 0.
    """
    energy = particle.energy
    if barrier_height <= energy:
        raise ValueError("square_barrier_time requires barrier_height > energy")
    _check_real("barrier_height", barrier_height, positive=True)
    _check_real("span", span)
    k = particle.k
    q = math.sqrt(barrier_height - energy)
    kq = k * q
    kq3 = _power(kq, 3)
    if kq3 == 0.0:  # kq itself may not: it is at least sqrt(E*(V - E)) ~ 5e-324
        raise OverflowGuardError(f"denominator 4*(kq)^3 underflows to 0 at E = {energy!r}, V = {barrier_height!r}")
    x = q * span
    if x > _LN_MAX:  # tanh is 1.0 and sech^2 underflows to 0.0 well before
        th = 1.0
        sech2 = 0.0
    else:
        th = math.tanh(x)
        sech = 1.0 / math.cosh(x)
        sech2 = sech * sech
    # V^2 as a product of doubles: pow() may differ from it in the last bit
    if (height2 := float(barrier_height) * barrier_height) == math.inf:
        raise OverflowGuardError(f"{barrier_height:.3e}**2 leaves double range")
    two_e_minus_v = 2.0 * energy - barrier_height
    g = two_e_minus_v * th / (2.0 * kq)
    g_prime = (
        height2 * th / (4.0 * kq3)
        - two_e_minus_v * span * sech2 / (4.0 * k * q * q)
    )
    return g_prime / (1.0 + g * g)
