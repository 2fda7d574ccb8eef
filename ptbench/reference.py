"""Independent high-precision reference for the +iV/-iV barrier lattice.

Written apart from ``pttunnel``: it shares no code and no formula with the
package.  It multiplies the real-space slab matrices that carry
(psi, psi') across each constant-potential slab,

    [psi(x + w), psi'(x + w)] = [[cos(kw), sin(kw)/k], [-k sin(kw), cos(kw)]]
                                @ [psi(x), psi'(x)],    k = sqrt(E - U),

raises the two-slab cell to the N-th power by repeated squaring, and reads
the transmission from the lattice matrix M without solving for r and t
separately (that route cancels and returns t = 0 at any precision):

    t * exp(ikL) = 2ik / (ik*M11 + k^2*M12 - M21 + ik*M22).

The phase-delay time is tau = (d theta/dk + L) / (2k) with
d theta/dk = Im(t'/t), t' taken by ``mp.diff``.  Natural units: 2m = 1,
hbar = 1, so the free wave vector is k = sqrt(E).
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

DEFAULT_DPS = 50


@dataclass(frozen=True)
class Reference:
    """Transmission amplitude and phase-delay time at one lattice point."""

    t: object  # mpc
    tau: object  # mpf
    length: object  # mpf

    @property
    def t_abs(self) -> float:
        return float(abs(self.t))

    @property
    def log_t_abs(self) -> float:
        return float(mp.log(abs(self.t)))

    @property
    def theta(self) -> float:
        """Principal phase of t in (-pi, pi]."""
        return float(mp.arg(self.t))


def _mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _power(m, n: int):
    result = (mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1))
    while n:
        if n & 1:
            result = _mul(m, result)
        n >>= 1
        if n:
            m = _mul(m, m)
    return result


def _slab(energy, potential, width):
    kappa = mp.sqrt(mp.mpc(energy) - potential)
    if kappa == 0:
        return (mp.mpc(1), mp.mpc(width), mp.mpc(0), mp.mpc(1))
    c = mp.cos(kappa * width)
    s = mp.sin(kappa * width)
    return (c, s / kappa, -kappa * s, c)


def _transmission(k, slabs, n_cells: int):
    """t(k) for N repetitions of the cell made of `slabs` (left to right)."""
    energy = k * k
    cell = (mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1))
    length = mp.mpf(0)
    for potential, width in slabs:
        cell = _mul(_slab(energy, potential, width), cell)
        length += width
    m11, m12, m21, m22 = _power(cell, n_cells)
    ik = mp.mpc(0, 1) * k
    big_t = 2 * ik / (ik * m11 + k * k * m12 - m21 + ik * m22)
    return big_t * mp.exp(-ik * length * n_cells)


def slabs_reference(
    energy: float, slabs, n_cells: int = 1, dps: int = DEFAULT_DPS
) -> Reference:
    """Reference for N repetitions of a cell given as (potential, width) slabs.

    Potentials may be complex; all inputs are taken as exact binary values.
    """
    with mp.workdps(dps):
        k = mp.sqrt(mp.mpf(energy))
        exact = [(mp.mpmathify(u), mp.mpf(w)) for u, w in slabs]
        length = sum(w for _u, w in exact) * n_cells

        def t_of(kk):
            return _transmission(kk, exact, n_cells)

        t = t_of(k)
        dtheta = mp.im(mp.diff(t_of, k) / t)
        tau = (dtheta + length) / (2 * k)
        return Reference(t=+t, tau=+tau, length=+length)


def lattice_phase_third_derivative(
    energy: float, strength: float, width: float, n_cells: int, dps: int = DEFAULT_DPS
) -> float:
    """d^3 theta / dk^3 = Im d^3(log t)/dk^3 at one lattice point.

    A central difference of theta with step h misses d theta/dk by h^2/6
    times this: the truncation error of a finite-difference time.
    """
    with mp.workdps(dps):
        k = mp.sqrt(mp.mpf(energy))
        v = mp.mpf(strength)
        slabs = [(mp.mpc(0, v), mp.mpf(width)), (mp.mpc(0, -v), mp.mpf(width))]
        t0, t1, t2, t3 = mp.diffs(lambda kk: _transmission(kk, slabs, n_cells), k, 3)
        a = t1 / t0
        return float(mp.im(t3 / t0 - 3 * a * t2 / t0 + 2 * a**3))


def lattice_reference(
    energy: float, strength: float, width: float, n_cells: int, dps: int = DEFAULT_DPS
) -> Reference:
    """Reference for N cells of +iV on [0, b] followed by -iV on [b, 2b]."""
    v = mp.mpf(strength)
    return slabs_reference(
        energy, [(mp.mpc(0, v), width), (mp.mpc(0, -v), width)], n_cells, dps
    )
