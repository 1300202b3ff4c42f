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
n interior nodes: the n-th eigenvalue of a small truncated matrix seeds
Newton steps on F, whose slopes the backward loop carries beside r_k, and
the sign changes of sum g_k t^k verify n.

The joint solve is the root in p of D(p) = A_n(p) - A_ang(p), which
increases with p (its p^2-derivative is <xi^2> - <eta^2> > 0), by Newton
steps on its exact slope.  This solver shares no code path with the
trial functions, so it is the ground truth for the variational results.
At the root, exact_channels evaluates the exact eigenfunctions: the
series above, and the angular eigenvector summed over the Legendre basis.
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
    """The continued fraction or its Newton polish failed to settle."""


@dataclass(frozen=True)
class OracleResult:
    label: StateLabel
    setup: PhysicalSetup
    E_total: float
    A: float
    p: float
    angular_basis_size: int
    radial_mismatch: float
    bracket_iterations: int  # Newton steps in p, one D(p) evaluation each


_K0 = 24              # angular basis starts at _K0 + lam functions
# 6..48 terms give cold solves the same roots to 4 ulp; 24 polishes least
_N_ESTIMATE = 24      # truncated recurrence whose n-th eigenvalue seeds A_n(p)
_K_MAX = 1 << 16      # longest continued-fraction tail tried
_MAX_STEPS = 100      # Newton steps before a polish or find_root gives up
# finest bisection tolerance of the angular eigensolver; LAPACK's default
# eps*||T||_1 is ragged in p
_BISECT_TOL = 2.0 * np.finfo(float).tiny


# ----------------------------------------------------------------------
# angular channel


def _acoef(l, lam: int):
    """a_l of the normalized recurrence x P_l = a_l P_(l+1) + a_(l-1) P_(l-1)
    of the associated Legendre functions P_l^lam."""
    return np.sqrt(((l + 1.0) ** 2 - lam**2)
                   / ((2.0 * l + 1.0) * (2.0 * l + 3.0)))


def _angular_matrix(p: float, lam: int, parity: int, K: int):
    """Degrees l = lam + sigma + 2k (k < K), the symmetric tridiagonal
    (diag, off) of the eta channel in normalized P_l^lam, and the
    tridiagonal (diag, off) of S, the part that multiplies -p^2."""
    sigma = 0 if parity == +1 else 1
    ls = np.arange(lam + sigma, lam + sigma + 2 * K, 2, dtype=float)
    a_l, a_lp1 = _acoef(ls, lam), _acoef(ls[:-1] + 1.0, lam)
    s_diag = a_l**2 + np.where(ls > lam, _acoef(ls - 1.0, lam)**2, 0.0)
    return (ls, ls * (ls + 1.0) - p * p * s_diag, -p * p * a_l[:-1] * a_lp1,
            s_diag, a_l[:-1] * a_lp1)


def _angular(p: float, lam: int, m: int, parity: int):
    """A_ang(p), its slope 2p v.S.v (Hellmann-Feynman, v the eigenvector)
    and the basis size.

    Basis: normalized P_l^lam with l = lam + sigma + 2k; the m-th
    eigenvalue within the parity class is selected.  The basis doubles
    until the eigenvalue stops moving at the eigensolver noise floor.
    """
    K, prev, trend = _K0 + lam, None, []
    while K <= 4096:
        _, diag, off, s_diag, s_off = _angular_matrix(p, lam, parity, K)
        mu, v = eigh_tridiagonal(diag, off, select="i", select_range=(m, m),
                                 tol=_BISECT_TOL)
        A, v = lam * (lam + 1.0) - mu[0], v[:, 0]
        trend.append((K, A))
        tol = max(1e-13 * max(1.0, abs(A)),
                  8e-16 * float(np.max(np.abs(diag))))
        if prev is not None and abs(A - prev) < tol:
            vSv = s_diag @ (v * v) + 2.0 * s_off @ (v[:-1] * v[1:])
            return A, 2.0 * p * float(vSv), K
        prev = A
        K *= 2
    raise AngularConvergenceError(trend)


def angular_eigenvalue(p: float, lam: int, m: int, parity: int) -> float:
    """Separation constant A(p) of the eta channel (see _angular)."""
    return _angular(p, lam, m, parity)[0]


# ----------------------------------------------------------------------
# radial channel


def _recurrence(p: float, b: float, lam: int, K: int):
    """alpha_k, c_k = beta_k - A, gamma_k and the p-slopes dc_k, dgamma_k
    for k = 0..K."""
    k = np.arange(K + 1, dtype=float)
    kap = b / (2.0 * p)
    alpha = (k + 1.0) * (k + lam + 1.0)
    c = (b * (k + 0.5 * (lam + 1.0)) / p + b - 2.0 * k * k
         - 2.0 * k * lam - 4.0 * k * p - 2.0 * k - (lam + 1.0) ** 2
         - 2.0 * lam * p - p * p - 2.0 * p)
    gamma = (k - kap) * (k + lam - kap)
    dc = (-b * (k + 0.5 * (lam + 1.0)) / (p * p) - 4.0 * k - 2.0 * lam
          - 2.0 * p - 2.0)
    dgamma = kap / p * (2.0 * k + lam - 2.0 * kap)
    return alpha, c, gamma, dc, dgamma


def _fraction(A: float, p: float, b: float, lam: int, K: int = 64):
    """Scaled F(A), its slopes (F_A, F_p) on the same scale, and the ratios
    r_0..r_K (r_0 = 1), the tail doubled from K terms until F settles at
    the rounding level of its terms.  The slopes run backward beside r_k:
    dr_k = -(dgamma_k + r_k (dc_k + alpha_k dr_(k+1))) / den_k."""
    prev = None
    while K <= _K_MAX:
        alpha, c, gamma, dc, dgamma = (
            a.tolist() for a in _recurrence(p, b, lam, K))
        r = [1.0] * (K + 1)
        rk = rA = rp = 0.0
        for k in range(K, 0, -1):
            den = A + c[k] + alpha[k] * rk
            rk = r[k] = -gamma[k] / den
            rA = -rk * (1.0 + alpha[k] * rA) / den
            rp = -(dgamma[k] + rk * (dc[k] + alpha[k] * rp)) / den
        F = A + c[0] + alpha[0] * rk
        scale = abs(A) + abs(c[0]) + abs(alpha[0] * rk)
        if prev is not None and abs(F - prev) <= 1e-15 * scale:
            slopes = (1.0 + alpha[0] * rA, dc[0] + alpha[0] * rp)
            return F / scale, tuple(d / scale for d in slopes), r
        prev = F
        K *= 2
    raise OracleConvergenceError(
        f"continued fraction unsettled after {_K_MAX} terms (p={p}, A={A})")


def _settled(step: float, prev: float, x: float) -> bool:
    """A step within 4 ulp of x > 0, or within 1e-12 x and not halving."""
    return (abs(step) <= 4.0 * math.ulp(x)
            or abs(step) <= 1e-12 * x and abs(step) > 0.5 * abs(prev))


def _radial_eigenvalue(p: float, b: float, lam: int, n: int):
    """A_n(p), its slope dA_n/dp = -F_p/F_A and the settled tail length:
    the n-th eigenvalue of the truncated recurrence, polished by Newton
    steps on the continued fraction."""
    alpha, c, gamma = _recurrence(p, b, lam, _N_ESTIMATE - 1)[:3]
    M = -(np.diag(c) + np.diag(alpha[:-1], 1) + np.diag(gamma[1:], -1))
    A = float(np.sort(np.linalg.eigvals(M).real)[n])
    K, step = 128, math.inf
    for _ in range(_MAX_STEPS):
        F, (F_A, F_p), r = _fraction(A, p, b, lam, K // 2)
        if F_A == 0.0:
            break
        K, prev, step = len(r) - 1, step, F / F_A
        A -= step
        if _settled(step, prev, max(1.0, abs(A))):
            return A, -F_p / F_A, K
    raise OracleConvergenceError(f"Newton on A_{n}(p={p}) did not settle")


def _node_grid(A: float, p: float, b: float) -> np.ndarray:
    """t = (xi-1)/(xi+1) on (0, t_far]: no node lies beyond the outer
    turning point of A + b xi - p^2 xi^2."""
    xi_far = (b + math.sqrt(b * b + 4.0 * p * p * max(A, 0.0))) \
        / (2.0 * p * p) + 1.0 / p
    return np.linspace(0.0, 1.0, 1400)[1:] * (xi_far - 1.0) / (xi_far + 1.0)


def radial_solution(E_total: float, A: float, setup: PhysicalSetup, lam: int,
                    K: int = 64):
    """Scaled continued-fraction defect F(A)/(|A|+|c_0|+|alpha_0 r_1|) at
    p(E_total), and the interior node count of the minimal solution: the
    sign changes of Jaffe's series on the node grid, as exact_node finds
    them.  The fraction's tail doubles from K terms."""
    E_prime = E_total - setup.repulsion
    if E_prime >= 0.0:
        raise ValueError("radial solution needs a bound channel (E' < 0)")
    p = math.sqrt(-E_prime) * setup.R / 2.0
    b = (setup.Z1 + setup.Z2) * setup.R
    defect, _, r = _fraction(A, p, b, lam, K)
    return defect, _sign_changes(A, p, b, lam, r)[2].size


def radial_mismatch(E_total: float, A: float, setup: PhysicalSetup, lam: int,
                    n: int, K: int = 64) -> float:
    """Continued-fraction defect; raises when the interior node count
    differs from n."""
    mism, nodes = radial_solution(E_total, A, setup, lam, K)
    if nodes != n:
        raise RadialRootError(
            f"node count {nodes} != {n} at E={E_total} (A={A})")
    return mism


# ----------------------------------------------------------------------
# joint solve


def find_root(label: StateLabel, setup: PhysicalSetup, E_seed: float):
    """Bispectral root of D(p) = A_n(p) - A_ang(p) by safeguarded Newton
    steps on its exact slope dA_n/dp - dA_ang/dp.

    E_seed only places the first p; the radial node count n selects the
    root, which is unique because D increases with p.  The sign of D(p)
    narrows a bracket (lo, hi); a step that leaves it bisects, or doubles
    p while no upper bound is known.  The last p evaluated is the root
    once a step is within 4 ulp of it, or within 1e-12 p and no longer
    halving (the noise floor of D).  Returns E there, A_ang at p(E) with
    its basis size, the radial tail length and the number of p-steps.
    """
    b = (setup.Z1 + setup.Z2) * setup.R
    p = p_from_energy(E_seed, setup)
    lo, hi, step = 0.0, math.inf, math.inf
    for steps in range(1, _MAX_STEPS + 1):
        A_n, dA_n, K_rad = _radial_eigenvalue(p, b, label.lam, label.n)
        A, dA, K = _angular(p, label.lam, label.m, label.parity)
        D, slope = A_n - A, dA_n - dA
        lo, hi = (p, hi) if D < 0.0 else (lo, p)
        new = p - D / slope if slope > 0.0 else math.nan
        if not lo <= new <= hi:  # also a step below half an ulp
            new = 2.0 * p if hi == math.inf else 0.5 * (lo + hi)
        prev, step = step, new - p
        if _settled(step, prev, p):
            E = energy_from_p(p, setup)
            p_E = p_from_energy(E, setup)
            if p_E != p:  # the result's A is taken at E's own p
                A, _, K = _angular(p_E, label.lam, label.m, label.parity)
            return E, A, K, K_rad, steps
        p = new
    raise RadialRootError(
        f"no bispectral root with n={label.n} near E={E_seed}")


def hydrogenic_seed(label: StateLabel, setup: PhysicalSetup) -> float:
    """Coalesced-centers estimate: E' of the (Z1+Z2) one-center ion."""
    Z = setup.Z1 + setup.Z2
    return -(Z / label.atomic_n) ** 2 + setup.repulsion


def solve_bispectral(label: StateLabel, setup: PhysicalSetup,
                     E_seed: float | None = None) -> OracleResult:
    """Joint (E, A) solve; E_seed defaults to the one-center estimate.

    The seed only places find_root's first p: the root is the one with
    label.n radial nodes, verified through radial_mismatch.
    """
    E = E_seed if E_seed is not None else hydrogenic_seed(label, setup)
    E, A, K, K_rad, steps = find_root(label, setup, E)
    mism = radial_mismatch(E, A, setup, label.lam, label.n, K_rad // 2)
    return OracleResult(label, setup, E, A, p_from_energy(E, setup), K,
                        mism, steps)


# ----------------------------------------------------------------------
# exact eigenfunctions


def _series(A: float, p: float, b: float, lam: int, t_max: float, r):
    """Coefficients g_k of the radial series sum g_k t^k, scaled so that
    max |g_k| = 1, and the log of that scale, from the ratios r of a
    settled fraction.  The tail doubles until the terms past its first
    half fall below 1e-18 of the largest on t <= t_max; those are
    dropped."""
    log_t = math.log(max(t_max, 1e-3))
    r = np.array(r)
    while True:
        K = r.size - 1
        with np.errstate(divide="ignore"):
            log_g = np.cumsum(np.log(np.abs(r)))
        size = log_g + log_t * np.arange(K + 1)
        top = size.max()
        if size[K // 2:].max() < top - 41.5:
            keep = np.flatnonzero(size > top - 41.5)[-1] + 1
            scale = log_g[:keep].max()
            return (np.cumprod(np.sign(r[:keep]))
                    * np.exp(log_g[:keep] - scale)), scale
        if K >= _K_MAX:
            raise OracleConvergenceError(
                f"radial series unsettled after {K} terms at t={t_max}")
        r = np.array(_fraction(A, p, b, lam, K)[2])


def _sign_changes(A: float, p: float, b: float, lam: int, r):
    """The node grid t, the series coefficients g on it (from the ratios
    r), and the indices i where sum g_k t^k changes sign between t[i] and
    t[i+1]."""
    t = _node_grid(A, p, b)
    g, _ = _series(A, p, b, lam, t[-1], r)
    s = np.sign(np.polynomial.polynomial.polyval(t, g))
    return t, g, np.flatnonzero(s[:-1] * s[1:] < 0.0)


def _legendre_sum(coef, ls, lam: int, x):
    """sum_k coef_k P_(ls_k)^lam(x) / (1-x^2)^(lam/2), normalized P_l^lam up
    to a common constant, by the three-term recurrence in l."""
    a = _acoef(np.arange(lam - 1, int(ls[-1]) + 1, dtype=float), lam)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    out = np.zeros_like(x)
    for l in range(lam, int(ls[-1]) + 1):
        k, odd = divmod(l - int(ls[0]), 2)
        if k >= 0 and not odd:
            out += coef[k] * cur
        prev, cur = cur, (x * cur - a[l - lam] * prev) / a[l - lam + 1]
    return out


def exact_channels(result: OracleResult, xi, eta):
    """Exact channel functions of an oracle solution, sans the factors
    (xi^2-1)^(lam/2) and (1-eta^2)^(lam/2), as (log|X|, sign X) on xi and
    (log|Y|, sign Y) on eta, each up to a constant factor.

    X is Jaffe's series with g_k the cumulative product of the continued
    fraction's ratios; Y sums normalized P_l^lam over the eigenvector of
    the angular matrix at the oracle's basis size.
    """
    label, setup, p = result.label, result.setup, result.p
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    b = (setup.Z1 + setup.Z2) * setup.R
    kap = b / (2.0 * p)
    t = (xi - 1.0) / (xi + 1.0)
    g, scale = _series(result.A, p, b, label.lam,
                       float(np.max(t, initial=0.0)),
                       _fraction(result.A, p, b, label.lam)[2])
    S = np.polynomial.polynomial.polyval(t, g)
    ls, diag, off = _angular_matrix(p, label.lam, label.parity,
                                    result.angular_basis_size)[:3]
    v = eigh_tridiagonal(diag, off, eigvals_only=False, select="i",
                         select_range=(label.m, label.m),
                         tol=_BISECT_TOL)[1][:, 0]
    Y = _legendre_sum(v, ls, label.lam, eta)
    with np.errstate(divide="ignore"):
        log_x = ((kap - label.lam - 1.0) * np.log(xi + 1.0) - p * xi
                 + np.log(np.abs(S)) + scale)
        log_y = np.log(np.abs(Y))
    return (log_x, np.sign(S)), (log_y, np.sign(Y))


def exact_node(result: OracleResult) -> float:
    """xi of the first interior node of the exact radial function."""
    setup, A, p, lam = result.setup, result.A, result.p, result.label.lam
    b = (setup.Z1 + setup.Z2) * setup.R
    t, g, change = _sign_changes(A, p, b, lam, _fraction(A, p, b, lam)[2])
    if change.size == 0:
        raise RadialRootError(f"no radial node for {result.label}")
    i = change[0]
    tn = brentq(lambda u: np.polynomial.polynomial.polyval(u, g),
                t[i], t[i + 1], xtol=1e-16, rtol=8.9e-16)
    return (1.0 + tn) / (1.0 - tn)
