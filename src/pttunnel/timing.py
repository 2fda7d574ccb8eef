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
values; the exact path refuses beta > BETA_MAX, beyond which the
thick-barrier limit is the only honest answer.

An independent finite-difference time (:func:`tunneling_time_fd`) serves as
the oracle for the analytic expression throughout the tests.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .chebyshev import cheb_T, cheb_U
from .errors import (
    DegeneratePotentialError,
    OverflowGuardError,
    PtTunnelError,
    SpectralSingularityError,
)
from .model import CellSpec, Particle, _Geometry, _geometry, _scaled

__all__ = [
    "BETA_MAX",
    "ClosedForm",
    "HartmanCoeffs",
    "xi_chi",
    "closed_form",
    "transmission_closed",
    "phase_theta",
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

# N^2 |xi^2 - 1| below this switches the time to the band-edge endpoint values.
BAND_EDGE_TOL = 1e-10

# ln of the largest representable double, slightly rounded down.
_LN_MAX = 709.0
# Above this ln|G| the components T_N and chi*U_{N-1} may individually
# overflow even though |G| itself is representable; switch to log-domain.
_LN_DIRECT = 690.0

_NAN = float("nan")


def _wrap_phase(raw: float) -> float:
    """Principal value of a phase in (-pi, pi]; nan for a phase that overflowed."""
    if not math.isfinite(raw):
        return _NAN
    wrapped = math.remainder(raw, math.tau)
    return wrapped if wrapped > -math.pi else math.pi


def _range_error(scaled: tuple[float, float, float, float]) -> OverflowGuardError | None:
    """Why the exact cell expressions cannot be evaluated at these
    (alpha, beta, alpha', beta'), or None where they can."""
    alpha, beta = scaled[0], scaled[1]
    if beta > BETA_MAX:
        return OverflowGuardError(
            f"growth exponent beta = {beta:.3f} exceeds {BETA_MAX:.0f}; "
            "exp(2*beta) leaves double range -- use the thick-barrier limit"
        )
    if not math.isfinite(2.0 * alpha):
        return OverflowGuardError(f"cell phase 2*alpha = 2*{alpha:.3e} leaves double range")
    return None


class _CellScalars(NamedTuple):
    """xi, chi and their k-derivatives, plus the offsets xi -+ 1 in
    cancellation-free form.

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

    xi: float
    xi_minus_1: float
    xi_plus_1: float
    chi: float
    xi_prime: float
    chi_prime: float


def _cell_scalars(geo: _Geometry, scaled: tuple[float, float, float, float]) -> _CellScalars:
    alpha, beta, alpha_prime, beta_prime = scaled
    sin_phi = geo.sin_phi
    cos_phi = geo.cos_phi
    cos_2phi = geo.cos_2phi
    sin_a = math.sin(alpha)
    cos_a = math.cos(alpha)
    sinh_b = math.sinh(beta)
    cosh_b = math.cosh(beta)
    sin_2a = math.sin(2.0 * alpha)
    cos_2a = math.cos(2.0 * alpha)
    sinh_2b = math.sinh(2.0 * beta)
    cosh_2b = math.cosh(2.0 * beta)
    sin_a2 = sin_a * sin_a
    cos_a2 = cos_a * cos_a
    sinh_b2 = sinh_b * sinh_b
    cosh_b2 = cosh_b * cosh_b
    xi_minus_1 = sinh_b2 * (1.0 - cos_2phi * cos_a2) - sin_a2 * (
        1.0 + cos_2phi * cosh_b2
    )
    xi_plus_1 = cos_a2 * (1.0 - cos_2phi * sinh_b2) + cosh_b2 * (
        1.0 - cos_2phi * sin_a2
    )
    chi = 0.5 * (geo.u_plus * cos_phi * sin_2a + geo.u_minus * sin_phi * sinh_2b)
    xi_prime = (
        2.0 * beta_prime * sin_phi * sin_phi * sinh_2b
        - 2.0 * alpha_prime * cos_phi * cos_phi * sin_2a
        + 2.0 * geo.phi_prime * geo.sin_2phi * (sinh_b2 + sin_a2)
    )
    chi_prime = (
        geo.u_plus
        * (alpha_prime * cos_2a * cos_phi - 0.5 * geo.phi_prime * sin_phi * sin_2a)
        + geo.u_minus
        * (beta_prime * cosh_2b * sin_phi + 0.5 * geo.phi_prime * cos_phi * sinh_2b)
        + 0.5 * geo.u_plus_prime * cos_phi * sin_2a
        + 0.5 * geo.u_minus_prime * sin_phi * sinh_2b
    )
    return _CellScalars(
        0.5 * (xi_minus_1 + xi_plus_1), xi_minus_1, xi_plus_1, chi, xi_prime, chi_prime
    )


def _band_sine_angle(scalars: _CellScalars) -> tuple[float, float]:
    """(sin psi, psi) for |xi| <= 1, with psi = arccos(xi) rebuilt from the
    cancellation-free offsets so that sin psi stays consistent with chi."""
    quad = scalars.xi_minus_1 * scalars.xi_plus_1
    sine = math.sqrt(max(-quad, 0.0))
    return sine, math.atan2(sine, scalars.xi)


def _growth_scale(scalars: _CellScalars) -> float:
    """sqrt(xi^2 - 1) for |xi| > 1 without forming xi^2."""
    return math.sqrt(abs(scalars.xi_minus_1)) * math.sqrt(abs(scalars.xi_plus_1))


def _guarded(particle: Particle, cell: CellSpec) -> _CellScalars:
    geo = _geometry(particle, cell.strength)
    scaled = _scaled(geo, cell.width)
    error = _range_error(scaled)
    if error is not None:
        raise error
    return _cell_scalars(geo, scaled)


def xi_chi(particle: Particle, cell: CellSpec) -> tuple[float, float]:
    """Real pair (xi, chi) of the unit cell.

    xi is half the (phase-adjusted) trace of the cell matrix and drives the
    N-cell Chebyshev composition; chi is the matching imaginary part, so that
    the single-cell transmission is exp(-2i*k*b)/(xi - i*chi).

    Raises OverflowGuardError for beta > BETA_MAX, or where the cell phase
    2*alpha leaves double range.
    """
    scalars = _guarded(particle, cell)
    return scalars.xi, scalars.chi


class ClosedForm(NamedTuple):
    """tau, t and theta of the N-cell lattice from one evaluation.

    ``band_edge`` marks the endpoint branch of the time, N^2 |xi^2 - 1| <
    BAND_EDGE_TOL.  ``t`` is None where ``error`` replaces it:
    SpectralSingularityError when |G| vanishes, OverflowGuardError when |G|
    leaves double range.  ``theta`` is the phase of t, the bounded-ratio
    phase where |t| underflows, and nan at a singularity.  Where nothing is
    evaluated, tau and theta are nan and ``error`` (an OverflowGuardError)
    says why: ``handoff`` marks beta > BETA_MAX, otherwise the phase 2*alpha
    or k*L leaves double range, or xi + 1 cancels to 0 outside the band.
    """

    tau: float
    theta: float
    t: complex | None
    error: PtTunnelError | None = None
    xi: float = _NAN
    band_edge: bool = False
    handoff: bool = False


def closed_form(particle: Particle, cell: CellSpec, n_cells: int) -> ClosedForm:
    """Evaluate tau, t and theta at one (E, V, b, N) point in a single pass.

    The time is

        tau = [q*chi' + chi*xi'*(dq/dxi)] / (2k*(1 + (q*chi)^2))

    with dq/dxi = (N - q*xi)/(xi^2 - 1) - N*q^2; its removable 0/0 at
    xi = +-1 takes the endpoint values q = +-N, dq/dxi = -N(2N^2+1)/3,
    which hold while N^2 |xi^2 - 1| < BAND_EDGE_TOL.
    Inside the band q = sin(N*psi)/(sin(psi)*cos(N*psi)) with psi =
    arccos(xi), finite at every double, roots of T_N included.  Outside the
    band (xi > 1) every factor is built from the bounded ratios chi/s, xi'/s,
    chi'/s, xi/s and tanh(N*arccosh(xi)) with s = sqrt(xi^2 - 1),
    so nothing overflows for beta <= BETA_MAX whatever the size of
    exp(2*beta).  Inside the band G is formed directly from T_N and
    U_{N-1}; outside, |G| is pre-sized in the log domain so t is computed
    without ever materializing an overflowing polynomial.  N = 0 gives
    t = 1 and tau = theta = 0.  Raises OverflowGuardError where the cell
    geometry itself leaves double range (see :func:`model._geometry`).
    """
    return _closed_form(_geometry(particle, cell.strength), cell.width, n_cells)


def _closed_form(geo: _Geometry, width: float, n_cells: int) -> ClosedForm:
    """:func:`closed_form` on a (k, V) geometry that many widths share."""
    if n_cells < 0:
        raise ValueError("n_cells must be >= 0")
    if n_cells == 0:
        return ClosedForm(tau=0.0, theta=0.0, t=1.0 + 0.0j)
    scaled = _scaled(geo, width)
    n = n_cells
    k = geo.k
    length = 2.0 * n * width
    error = _range_error(scaled)
    if error is None and not math.isfinite(k * length):
        error = OverflowGuardError(f"lattice phase k*L = {k:.3e}*{length:.3e} leaves double range")
    if error is not None:
        return ClosedForm(_NAN, _NAN, None, error, handoff=scaled[1] > BETA_MAX)
    scalars = _cell_scalars(geo, scaled)
    xi, chi = scalars.xi, scalars.chi
    xi_p, chi_p = scalars.xi_prime, scalars.chi_prime
    quad = scalars.xi_minus_1 * scalars.xi_plus_1  # inf far outside the band is fine
    band_edge = n * n * abs(quad) < BAND_EDGE_TOL
    # xi + 1 >= 2 cos^2(alpha) >= 0 for every cell (0 < cos 2phi <= 1), so
    # outside the band xi > 1 and T_N > 0.  The side is read off xi - 1, whose
    # sign quad shares: just outside the band xi itself can round to 1.0.
    outside = scalars.xi_minus_1 > 0.0
    if outside:
        scale = _growth_scale(scalars)
        if scale == 0.0:  # xi + 1 > 2 here: it lost every digit, as where cos 2phi rounds to 1
            error = OverflowGuardError(f"xi + 1 cancels to 0 at beta = {scaled[1]:.3f}")
            return ClosedForm(_NAN, _NAN, None, error)
        nu = n * math.asinh(scale)
        tt = math.tanh(nu)
    else:
        sine, psi = _band_sine_angle(scalars)
        cos_n = math.cos(n * psi)
        sin_n = math.sin(n * psi)

    if outside and not band_edge:
        cs = chi / scale
        xs = xi_p / scale
        cps = chi_p / scale
        rs = xi / scale
        q_chi = tt * cs
        bracket = tt * cps + cs * xs * (n - tt * rs - n * tt * tt)
        tau = bracket / (2.0 * k * (1.0 + q_chi * q_chi))
    else:
        if band_edge:
            q = math.copysign(float(n), xi)
            dq_dxi = -n * (2.0 * n * n + 1.0) / 3.0
        else:
            # math.cos never returns 0 for a finite double and sine >= 1e-5/N
            # here, so q stays finite at the roots of T_N.
            q = sin_n / (sine * cos_n)
            dq_dxi = (n - q * xi) / quad - n * q * q
        bracket = q * chi_p + chi * xi_p * dq_dxi
        tau = bracket / (2.0 * k * (1.0 + (q * chi) ** 2))

    t = error = None
    theta = _NAN
    if not outside:
        if sine == 0.0:  # exactly on a band edge
            g = complex(cheb_T(n, xi), -chi * cheb_U(n - 1, xi))
        else:
            g = complex(cos_n, -chi * sin_n / sine)
        mag = abs(g)
        if mag < G_SINGULARITY_ABS_TOL:
            error = SpectralSingularityError(mag)
        else:
            t = cmath.exp(-1j * k * length) / g
    else:
        q_chi = chi * (tt / scale)
        ln_t = nu - math.log(2.0) + math.log1p(math.exp(-2.0 * nu))
        ln_g = ln_t + 0.5 * math.log1p(q_chi**2)
        arg_g = math.atan2(-q_chi, 1.0)
        if ln_g > _LN_MAX:
            error = OverflowGuardError(
                f"|G| ~ exp({ln_g:.1f}) exceeds double range; "
                "transmission magnitude underflows"
            )
            # The phase stays well defined through the bounded ratio q*chi.
            theta = _wrap_phase(-k * length - arg_g)
        elif ln_g < _LN_DIRECT:
            g = complex(cheb_T(n, xi), -chi * cheb_U(n - 1, xi))
            t = cmath.exp(-1j * k * length) / g
        else:
            t = cmath.rect(math.exp(-ln_g), -k * length - arg_g)
    if t is not None:
        theta = cmath.phase(t)
    return ClosedForm(tau, theta, t, error, xi, band_edge)


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


def _timed(record: ClosedForm) -> ClosedForm:
    """The record, unless tau and theta are undefined there: where the cell
    was not evaluated (OverflowGuardError: past BETA_MAX, a phase out of
    double range, or xi + 1 cancelled to 0)."""
    if record.error is not None and math.isnan(record.xi):
        raise record.error
    return record


def phase_theta(particle: Particle, cell: CellSpec, n_cells: int) -> float:
    """Transmission phase, principal value in (-pi, pi]; see :class:`ClosedForm`.

    Raises OverflowGuardError past BETA_MAX or where the phase 2*alpha or
    k*L leaves double range.
    """
    return _timed(closed_form(particle, cell, n_cells)).theta


def tunneling_time(particle: Particle, cell: CellSpec, n_cells: int) -> float:
    """Analytic stationary-phase tunneling time; see :func:`closed_form`.

    Raises OverflowGuardError past BETA_MAX or wherever else the time is not
    finite (its k-derivatives leave double range, as at E = 1e300).
    """
    record = _timed(closed_form(particle, cell, n_cells))
    if not math.isfinite(record.tau):
        raise OverflowGuardError(f"tunneling time is {record.tau!r}: its terms leave double range")
    return record.tau


def tunneling_time_fd(
    particle: Particle, cell: CellSpec, n_cells: int, rel_step: float = 1e-6
) -> float:
    """Independent finite-difference tunneling time (the oracle path).

    Central difference of the transmission phase over k*(1 -+ rel_step),
    unwrapped across the stencil by minimal jump, plus the free-passage term:

        tau = (dtheta/dk + L) / (2k).

    This never touches the analytic q/chi machinery, so it checks the entire
    closed-form pipeline end to end.
    """
    if not (1e-9 <= rel_step <= 1e-3):
        raise ValueError("rel_step must lie in [1e-9, 1e-3]")
    if n_cells < 0:
        raise ValueError("n_cells must be >= 0")
    if n_cells == 0:
        return 0.0
    k = particle.k
    dk = rel_step * k
    t_hi = transmission_closed(Particle((k + dk) ** 2), cell, n_cells)
    t_lo = transmission_closed(Particle((k - dk) ** 2), cell, n_cells)
    dtheta = math.remainder(cmath.phase(t_hi) - cmath.phase(t_lo), math.tau)
    length = 2.0 * n_cells * cell.width
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

    Raises OverflowGuardError when rho^3 leaves double range or sin(phi)
    underflows to 0.
    """
    if strength <= 0.0:
        raise DegeneratePotentialError("thick-barrier expansion requires strength > 0")
    geo = _geometry(particle, _finite_strength(strength))
    k = particle.k
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


def _finite_strength(strength: float) -> float:
    """strength, or the ValueError of CellSpec where it is not a finite
    number; each (E, V) entry point rejects negatives its own way first."""
    if isinstance(strength, bool) or not math.isfinite(strength):
        raise ValueError(f"strength must be finite and >= 0, got {strength!r}")
    return strength


def _power(x: float, exponent: int) -> float:
    """x**exponent, or OverflowGuardError where it leaves double range."""
    try:
        return x**exponent
    except OverflowError:
        raise OverflowGuardError(f"{x:.3e}**{exponent} leaves double range") from None


def free_propagation_time(particle: Particle, span: float) -> float:
    """Time L/(2k) for a free particle to traverse a length L."""
    if not (math.isfinite(span) and span >= 0.0):
        raise ValueError(f"span must be finite and >= 0, got {span!r}")
    return span / (2.0 * particle.k)


def n_infinity_bracket(particle: Particle, strength: float, span: float) -> float:
    """Many-thin-cells limit of the time, via the intermediate bracket form.

    Evaluates L/(4k*rho^3) * [rho^3 + ((k^4 - V^2)/k^2)*rho*cos(2phi)
    + 2V*rho*sin(2phi)] literally; the bracket collapses to 2*rho^3, so the
    value equals the free-propagation time L/(2k) identically.  Keeping the
    unsimplified form makes the cancellation itself testable.

    Raises OverflowGuardError where a term of the bracket leaves double range.
    """
    if strength < 0.0:
        raise ValueError("strength must be >= 0")
    if not (math.isfinite(span) and span > 0.0):
        raise ValueError(f"span must be finite and > 0, got {span!r}")
    geo = _geometry(particle, _finite_strength(strength))
    k = particle.k
    rho3 = _power(geo.rho, 3)
    bracket = (
        rho3
        + (_power(k, 4) - strength * strength) / (k * k) * geo.rho * geo.cos_2phi
        + 2.0 * strength * geo.rho * geo.sin_2phi
    )
    value = span / (4.0 * k * rho3) * bracket
    if not math.isfinite(value):
        raise OverflowGuardError(f"thin-cell bracket {bracket!r} leaves double range")
    return value


def square_barrier_time(particle: Particle, barrier_height: float, span: float) -> float:
    """Stationary-phase time through a single real square barrier (baseline).

    Analytic E-derivative of arctan(((k^2-q^2)/2kq)*tanh(qL)) with
    q = sqrt(V - E); only the tunneling regime V > E is supported.  Saturates
    at 1/(q*k) for thick barriers and vanishes linearly as L -> 0, with slope

        d(tau)/dL at L = 0  =  (V^2 + k^2 (V - 2E)) / (4 k^3 q^2)

    (5.5 at E = 1, V = 20).
    """
    energy = particle.energy
    if barrier_height <= energy:
        raise ValueError("square_barrier_time requires barrier_height > energy")
    if not (math.isfinite(span) and span >= 0.0):
        raise ValueError(f"span must be finite and >= 0, got {span!r}")
    k = particle.k
    q = math.sqrt(barrier_height - energy)
    kq = k * q
    x = q * span
    if x > 700.0:
        th = 1.0
        sech2 = 0.0
    else:
        th = math.tanh(x)
        sech = 1.0 / math.cosh(x)
        sech2 = sech * sech
    two_e_minus_v = 2.0 * energy - barrier_height
    g = two_e_minus_v * th / (2.0 * kq)
    g_prime = (
        barrier_height * barrier_height * th / (4.0 * kq**3)
        - two_e_minus_v * span * sech2 / (4.0 * k * q * q)
    )
    return g_prime / (1.0 + g * g)
