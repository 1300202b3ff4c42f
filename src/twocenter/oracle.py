"""Independent bispectral solver for the separated channel equations.

The angular problem is solved by expanding the regularized eta factor in
normalized associated Legendre functions, which turns it into a symmetric
tridiagonal eigenproblem (the sign of the p^2 eta^2 term makes it the
oblate-type characteristic value).

The radial problem (xi^2-1) X'' + 2(lam+1) xi X' + (A + b xi - p^2 xi^2) X
= 0, with b = (Z1+Z2) R and kappa = b/(2p), becomes an exact three-term
recurrence under Jaffe's substitution (Z. Phys. 87, 535 (1934))

    X = (xi+1)^(kappa-lam-1) e^(-p xi) sum_k g_k t^k,  t = (xi-1)/(xi+1),
    alpha_k g_{k+1} + (A + c_k) g_k + gamma_k g_{k-1} = 0.

A bound state is a minimal solution that also satisfies the k = 0 row,
i.e. a zero in A of the continued fraction F(A) = A + c_0 + alpha_0 r_1,
r_k = g_k/g_{k-1} = -gamma_k / (A + c_k + alpha_k r_{k+1}), evaluated
backward as in Leaver (J. Math. Phys. 27, 1238 (1986)).  At fixed p the
zeros are the radial eigenvalues A_0(p) < A_1(p) < ..., the n-th one with
n interior nodes: the n-th eigenvalue of a small truncated matrix seeds a
secant polish on F, and the sign changes of sum g_k t^k verify n.

The joint solve is then the single root in p of A_n(p) - A_ang(p), which
increases with p (its p^2-derivative is <xi^2> - <eta^2> > 0).  This
solver shares no code path with the trial-function machinery, so it
serves as the ground truth for the variational results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .model import PhysicalSetup, StateLabel, energy_from_p, p_from_energy


class AngularConvergenceError(RuntimeError):
    def __init__(self, trend):
        self.trend = trend
        super().__init__(f"angular basis not converged; trend {trend}")


class RadialRootError(RuntimeError):
    """No radial root with the requested node count."""


class OracleConvergenceError(RuntimeError):
    """The continued fraction or its secant polish failed to settle."""


@dataclass(frozen=True)
class OracleResult:
    label: StateLabel
    setup: PhysicalSetup
    E_total: float
    A: float
    p: float
    angular_basis_size: int
    radial_mismatch: float
    bracket_iterations: int


# ----------------------------------------------------------------------
# angular channel


def angular_eigenvalue(p: float, lam: int, m: int, parity: int,
                       K0: int = 24, return_size: bool = False):
    """Separation constant A(p) of the eta channel.

    Basis: normalized P_l^lam with l = lam + sigma + 2k; the m-th
    eigenvalue within the parity class is selected.  The basis doubles
    until the eigenvalue stops moving at the eigensolver noise floor.
    """
    sigma = 0 if parity == +1 else 1
    c2 = -p * p
    K = K0 + lam
    prev = None
    trend = []
    while K <= 4096:
        ls = np.arange(lam + sigma, lam + sigma + 2 * K, 2, dtype=float)

        def acoef(l):
            return np.sqrt(((l + 1.0) ** 2 - lam**2)
                           / ((2.0 * l + 1.0) * (2.0 * l + 3.0)))

        a_l = acoef(ls)
        a_lm1 = acoef(ls - 1.0)
        diag = ls * (ls + 1.0) + c2 * (a_l**2
                                       + np.where(ls > lam, a_lm1**2, 0.0))
        off = c2 * acoef(ls[:-1]) * acoef(ls[:-1] + 1.0)
        # finest bisection tolerance; the default eps*||T||_1 is ragged in p
        mu = eigh_tridiagonal(diag, off, select="i", select_range=(m, m),
                              tol=2.0 * np.finfo(float).tiny)[0][0]
        A = lam * (lam + 1.0) - mu
        trend.append((K, A))
        tol = max(1e-13 * max(1.0, abs(A)),
                  8e-16 * float(np.max(np.abs(diag))))
        if prev is not None and abs(A - prev) < tol:
            return (A, K) if return_size else A
        prev = A
        K *= 2
    raise AngularConvergenceError(trend)


# ----------------------------------------------------------------------
# radial channel

_N_ESTIMATE = 48      # truncated recurrence matrix that seeds A_n(p)
_K_MAX = 1 << 16      # longest continued-fraction tail tried


def _recurrence(p: float, b: float, lam: int, K: int):
    """alpha_k, c_k = beta_k - A and gamma_k for k = 0..K."""
    k = np.arange(K + 1, dtype=float)
    kap = b / (2.0 * p)
    alpha = (k + 1.0) * (k + lam + 1.0)
    c = (b * (k + 0.5 * (lam + 1.0)) / p + b - 2.0 * k * k
         - 2.0 * k * lam - 4.0 * k * p - 2.0 * k - (lam + 1.0) ** 2
         - 2.0 * lam * p - p * p - 2.0 * p)
    gamma = (k - kap) * (k + lam - kap)
    return alpha, c, gamma


def _fraction(A: float, p: float, b: float, lam: int, K: int = 64):
    """Scaled F(A) and the ratios r_0..r_K (r_0 = 1), the tail doubled
    from K terms until F settles at the rounding level of its terms."""
    prev = None
    while K <= _K_MAX:
        alpha, c, gamma = (a.tolist() for a in _recurrence(p, b, lam, K))
        r = [1.0] * (K + 1)
        rk = 0.0
        for k in range(K, 0, -1):
            rk = r[k] = -gamma[k] / (A + c[k] + alpha[k] * rk)
        F = A + c[0] + alpha[0] * rk
        scale = abs(A) + abs(c[0]) + abs(alpha[0] * rk)
        if prev is not None and abs(F - prev) <= 1e-15 * scale:
            return F / scale, r
        prev = F
        K *= 2
    raise OracleConvergenceError(
        f"continued fraction unsettled after {_K_MAX} terms (p={p}, A={A})")


def _radial_eigenvalue(p: float, b: float, lam: int, n: int) -> float:
    """A_n(p): n-th eigenvalue of the truncated recurrence, polished by
    secant steps on the continued fraction."""
    alpha, c, gamma = _recurrence(p, b, lam, _N_ESTIMATE - 1)
    M = -(np.diag(c) + np.diag(alpha[:-1], 1) + np.diag(gamma[1:], -1))
    A1 = float(np.sort(np.linalg.eigvals(M).real)[n])
    F1, r = _fraction(A1, p, b, lam)
    K = len(r) - 1
    A0 = A1 + 1e-7 * (1.0 + abs(A1))
    F0 = _fraction(A0, p, b, lam, K)[0]
    for _ in range(50):
        if F1 == 0.0 or F1 == F0:
            return A1
        A0, F0, A1 = A1, F1, A1 - F1 * (A1 - A0) / (F1 - F0)
        if abs(A1 - A0) <= 4e-16 * max(1.0, abs(A1)):
            return A1
        F1 = _fraction(A1, p, b, lam, K)[0]
    raise OracleConvergenceError(f"secant on A_{n}(p={p}) did not settle")


def radial_solution(E_total: float, A: float, setup: PhysicalSetup, lam: int,
                    count_nodes: bool = True):
    """Scaled continued-fraction defect F(A)/(|A|+|c_0|+|alpha_0 r_1|) at
    p(E_total), and the interior node count of the minimal solution."""
    E_prime = E_total - setup.repulsion
    if E_prime >= 0.0:
        raise ValueError("radial solution needs a bound channel (E' < 0)")
    p = math.sqrt(-E_prime) * setup.R / 2.0
    b = (setup.Z1 + setup.Z2) * setup.R
    defect, r = _fraction(A, p, b, lam)
    if not count_nodes:
        return defect, -1
    # no node lies beyond the outer turning point of A + b xi - p^2 xi^2
    xi_far = (b + math.sqrt(b * b + 4.0 * p * p * max(A, 0.0))) \
        / (2.0 * p * p) + 1.0 / p
    t = np.linspace(0.0, 1.0, 1400)[1:] * (xi_far - 1.0) / (xi_far + 1.0)
    g = np.cumprod(r)
    size = np.abs(g) * t[-1] ** np.arange(g.size)
    g = g[:np.flatnonzero(size > 1e-18 * size.max())[-1] + 1]
    s = np.sign(np.polynomial.polynomial.polyval(t, g))
    s = s[s != 0.0]
    return defect, int(np.sum(s[:-1] * s[1:] < 0.0))


def radial_mismatch(E_total: float, A: float, setup: PhysicalSetup, lam: int,
                    n: int) -> float:
    """Continued-fraction defect; raises when the interior node count
    differs from n."""
    mism, nodes = radial_solution(E_total, A, setup, lam)
    if nodes != n:
        raise RadialRootError(
            f"node count {nodes} != {n} at E={E_total} (A={A})")
    return mism


# ----------------------------------------------------------------------
# joint solve


def find_root(label: StateLabel, setup: PhysicalSetup, E_seed: float,
              window: float = 2e-4, max_expand: int = 40) -> tuple[float, int]:
    """Bispectral root of A_n(p) = A_ang(p), and the bracket expansions.

    E_seed and window only place the first p-bracket, p(E_seed +- window);
    the radial node count n selects the root, which is unique because the
    difference increases with p.  The bracket walks toward the sign
    change, doubling its width per expansion.
    """
    b = (setup.Z1 + setup.Z2) * setup.R

    def D(p):
        return (_radial_eigenvalue(p, b, label.lam, label.n)
                - angular_eigenvalue(p, label.lam, label.m, label.parity))

    p0 = p_from_energy(E_seed, setup)
    dp2 = window * setup.R ** 2 / 4.0
    lo = math.sqrt(max(p0 * p0 - dp2, 0.25 * p0 * p0))
    hi = math.sqrt(p0 * p0 + dp2)
    D_lo, D_hi = D(lo), D(hi)
    expansions = 0
    while D_lo > 0.0 or D_hi < 0.0:
        if expansions == max_expand:
            raise RadialRootError(
                f"no bispectral root with n={label.n} near E={E_seed}")
        width = 2.0 * (hi - lo)
        if D_lo > 0.0:
            hi, D_hi = lo, D_lo
            lo = max(lo - width, 0.5 * lo)
            D_lo = D(lo)
        else:
            lo, D_lo = hi, D_hi
            hi += width
            D_hi = D(hi)
        expansions += 1
    p = brentq(D, lo, hi, xtol=1e-16, rtol=8.9e-16)
    return energy_from_p(p, setup), expansions


def hydrogenic_seed(label: StateLabel, setup: PhysicalSetup) -> float:
    """Coalesced-centers estimate: E' of the (Z1+Z2) one-center ion."""
    Z = setup.Z1 + setup.Z2
    return -(Z / label.atomic_n) ** 2 + setup.repulsion


def solve_bispectral(label: StateLabel, setup: PhysicalSetup,
                     E_seed: float | None = None) -> OracleResult:
    """Joint (E, A) solve; E_seed defaults to the one-center estimate.

    The seed and its window (2e-4 Ry, or 5% of |E| for the one-center
    estimate) only place the first p-bracket: the root is the one with
    label.n radial nodes, verified through radial_solution.
    """
    E = E_seed if E_seed is not None else hydrogenic_seed(label, setup)
    window = 2e-4 if E_seed is not None else 0.05 * max(1.0, abs(E))
    E, expansions = find_root(label, setup, E, window=window)
    p = p_from_energy(E, setup)
    A, K = angular_eigenvalue(p, label.lam, label.m, label.parity,
                              return_size=True)
    mism, nodes = radial_solution(E, A, setup, label.lam)
    if nodes != label.n:
        raise RadialRootError(f"converged to wrong node count {nodes}")
    return OracleResult(label, setup, E, A, p, K, mism, expansions + 1)
