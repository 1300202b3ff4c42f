"""Independent bispectral solver for the separated channel equations.

Both channels are three-term recurrences solved as continued fractions
(Leaver, J. Math. Phys. 27, 1238 (1986)) by Newton steps on their exact
slopes.

The angular problem expands the regularized eta factor in normalized
associated Legendre functions P_l^lam, l = lam + sigma + 2k, whose
coefficients obey (A + c_k) v_k + e_k v_(k+1) + e_(k-1) v_(k-1) = 0, a
symmetric recurrence (the sign of the p^2 eta^2 term makes A the
oblate-type characteristic value).  Its m-th eigenvalue is a zero of the
fraction twisted at the eigenvector's largest component, seeded by the
eigenvalue of a small truncation, and the count of negative pivots (the
Sturm count) verifies m.

The radial problem (xi^2-1) X'' + 2(lam+1) xi X' + (A + b xi - p^2 xi^2) X
= 0, with b = (Z1+Z2) R and kappa = b/(2p), becomes an exact three-term
recurrence under Jaffe's substitution (Z. Phys. 87, 535 (1934))

    X = (xi+1)^(kappa-lam-1) e^(-p xi) sum_k g_k t^k,  t = (xi-1)/(xi+1),
    alpha_k g_{k+1} + (A + c_k) g_k + gamma_k g_{k-1} = 0.

A bound state is a minimal solution that also satisfies the k = 0 row,
i.e. a zero in A of the continued fraction F(A) = A + c_0 + alpha_0 r_1,
r_k = g_k/g_{k-1} = -gamma_k / (A + c_k + alpha_k r_{k+1}), evaluated
backward.  At fixed p the zeros are the radial eigenvalues A_0(p) <
A_1(p) < ..., the n-th one with n interior nodes, found by Newton steps
on F, whose slopes the backward loop carries beside r_k.  The same loop
counts its negative pivots A + c_k + alpha_k r_{k+1}, k = K..1: at A_n
exactly n of the K are non-negative, an index check as free as the
angular Sturm count.  A polish that settles on a root without that count
runs again from the n-th eigenvalue of a 24-row truncated matrix, the
only dense eigensolve left.  The result is verified by the same count,
on a sweep of its own at p(E).

The joint solve is the root in p of D(p) = A_n(p) - A_ang(p), which
increases with p (its p^2-derivative is <xi^2> - <eta^2> > 0), by Newton
steps on its exact slope.  This solver shares no code path with the
trial functions, so it is the ground truth for the variational results.
At the root, exact_channels evaluates the exact eigenfunctions: the
series above, and the angular eigenvector summed over the Legendre basis.

Each piece of work is done once per p-step, and the dense radial
estimate only where a Newton start lands on another root.  Each p-step
solves the angular channel first; its A_ang starts the first step's
radial Newton, and each later step starts at the last one's tangent
A_n(p_prev) + dA_n/dp (p - p_prev), checked by the pivot count.  The rows
of both recurrences depend on k alone, so each channel keeps one table
per p-step, and the verification one of its own: the radial one is built
once, at the rows of a tail check that doubles once, serves every Newton
polish, every tail and the series, and grows in place; the angular one
is built once per length.  A tail is settled when F over it matches F
over half of it; the half-length sweep only gives that value, so it runs
without slopes, a polish's sweeps keep no ratios, and the angular sweep
from row 0 up to the twist, which no tail changes, runs once per
fraction.  A radial sweep starts from the ratios' large-k expansion where
that holds (_Radial.tail).  find_root starts each p-step's radial polish
at the tail length the previous step settled on, and the result keeps
the angular eigenvector that exact_channels sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import PhysicalSetup, StateLabel, energy_from_p, p_from_energy


class AngularConvergenceError(RuntimeError):
    """The angular continued fraction or its Newton polish failed to
    settle."""


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
    # the angular eigenvector over the normalized P_l^lam at p
    eigenvector: np.ndarray = field(compare=False, repr=False)


_K0 = 24              # angular basis starts at _K0 + lam functions
_K_ANG = 4096         # longest angular tail tried
# 6..48 terms give cold solves the same roots to 4 ulp; 24 polishes least
_N_ESTIMATE = 24      # rows of the dense A_n estimate, run when a start fails
_K_MAX = 1 << 16      # longest continued-fraction tail tried
_K_RADIAL = 16        # first radial tail of a polish; doubling finds the rest
_MAX_STEPS = 100      # Newton steps before a polish or find_root gives up


# ----------------------------------------------------------------------
# continued fractions


def _sweep(A: float, c, outer, inner, dc, douter, dinner, ks, x=0.0):
    """A continued fraction swept over the rows ks of a three-term
    recurrence, toward the row it closes on, from the ratio x past them:
    the pivot den = A + c_k + outer_k x and the ratio x <- -inner_k / den,
    with the A- and p-slopes of x beside it.  Returns the last x with its
    slopes, the count of negative pivots and every x."""
    xA = xp = 0.0
    below, xs = 0, []
    for k in ks:
        den = A + c[k] + outer[k] * x
        below += den < 0.0
        slope = dc[k] + douter[k] * x + outer[k] * xp
        x = -inner[k] / den
        xA = -x * (1.0 + outer[k] * xA) / den
        xp = -(dinner[k] + x * slope) / den
        xs.append(x)
    return x, xA, xp, below, xs


def _ratio(A: float, c, outer, inner, ks, x=0.0) -> float:
    """The last x of _sweep over the same rows, alone: the value a tail
    check compares, to the same bits."""
    for k in ks:
        x = -inner[k] / (A + c[k] + outer[k] * x)
    return x


# ----------------------------------------------------------------------
# angular channel


def _acoef(l, lam: int):
    """a_l of the normalized recurrence x P_l = a_l P_(l+1) + a_(l-1) P_(l-1)
    of the associated Legendre functions P_l^lam."""
    return np.sqrt(((l + 1.0) ** 2 - lam**2)
                   / ((2.0 * l + 1.0) * (2.0 * l + 3.0)))


@functools.lru_cache(maxsize=None)
def _legendre_terms(lam: int, parity: int, K: int):
    """Degrees l = lam + sigma + 2k (k < K), l(l+1) - lam(lam+1) and the
    tridiagonal (diag, off) of eta^2 in normalized P_l^lam, the off
    diagonal padded with a last 0."""
    sigma = 0 if parity == +1 else 1
    ls = np.arange(lam + sigma, lam + sigma + 2 * K, 2, dtype=float)
    a_l = _acoef(ls, lam)
    s_diag = a_l**2 + np.where(ls > lam, _acoef(ls - 1.0, lam)**2, 0.0)
    s_off = np.append(a_l[:-1] * _acoef(ls[:-1] + 1.0, lam), 0.0)
    return ls, ls * (ls + 1.0) - lam * (lam + 1.0), s_diag, s_off


def _angular_matrix(p: float, lam: int, parity: int, K: int):
    """The symmetric tridiagonal (c, e) of the eta channel in normalized
    P_l^lam (k < K), shifted so that its rows read (A + c_k) v_k
    + e_k v_(k+1) + e_(k-1) v_(k-1) = 0, and the p-slopes (dc, de):
    -p^2 multiplies the tridiagonal of eta^2."""
    _, L, s_diag, s_off = _legendre_terms(lam, parity, K)
    return (L - p * p * s_diag, -p * p * s_off,
            -2.0 * p * s_diag, -2.0 * p * s_off)


class _Angular:
    """The angular matrix at one p as lists: c, e, dc, de and the lower
    diagonals [0] + e[:-1], [0] + de[:-1], built again at the length of a
    request that runs past them.  A row depends on k alone, but for the
    padded 0 that ends e; a fraction over the rows k < K reads e_(K-1)
    only times a zero ratio, so a longer table gives it the bits of a
    K-row one."""

    def __init__(self, p: float, lam: int, parity: int):
        self.p, self.lam, self.parity = p, lam, parity
        self.cols = ([],)

    def rows(self, n: int):
        """The columns, holding at least the rows k < n."""
        if len(self.cols[0]) < n:
            c, e, dc, de = (a.tolist() for a in _angular_matrix(
                self.p, self.lam, self.parity, n))
            self.cols = c, e, dc, de, [0.0] + e[:-1], [0.0] + de[:-1]
        return self.cols


def _angular_fraction(A: float, ang: _Angular, j: int, K: int):
    """Scaled F(A) = A + c_j + e_j v_(j+1)/v_j + e_(j-1) v_(j-1)/v_j, the
    angular matrix's fraction twisted at row j (Leaver's inversion), its
    slopes (F_A, F_p) on the same scale, the Sturm count (the pivots of
    both sides below zero: the eigenvalues above A of the matrix without
    row j) and the eigenvector v with v_j = 1.

    The rows come from ang, the table at F's p.  The ratios below row j
    run up from row 0, once, since no tail changes them.  Those above it
    run down from the tail, which doubles from K terms until F settles,
    as _fraction's does; the first tail only gives the value the next
    one is checked against, so it sweeps that value alone."""
    c, e, dc, de, lower, dlower = ang.rows(2 * K)  # both tails of a check
    s, sA, sp, n_s, ss = _sweep(A, c, lower, e, dc, dlower, de, range(j))
    prev = (A + c[j] + e[j] * _ratio(A, c, e, lower, range(K - 1, j, -1))
            + lower[j] * s)
    while (K := 2 * K) <= _K_ANG:
        c, e, dc, de, lower, dlower = ang.rows(K)
        r, rA, rp, n_r, rs = _sweep(A, c, e, lower, dc, de, dlower,
                                    range(K - 1, j, -1))
        F = A + c[j] + e[j] * r + lower[j] * s
        scale = abs(A) + abs(c[j]) + abs(e[j] * r) + abs(lower[j] * s)
        if abs(F - prev) <= 1e-15 * scale:
            slopes = (1.0 + e[j] * rA + lower[j] * sA,
                      dc[j] + de[j] * r + e[j] * rp + dlower[j] * s
                      + lower[j] * sp)
            v = np.concatenate([np.cumprod(ss[::-1])[::-1], [1.0],
                                np.cumprod(rs[::-1])])
            return (F / scale, tuple(d / scale for d in slopes),
                    n_r + n_s, v)
        prev = F
    raise AngularConvergenceError(f"angular fraction unsettled after "
                                  f"{_K_ANG} terms (p={ang.p}, A={A})")


def _angular(p: float, lam: int, m: int, parity: int):
    """A_ang(p), its slope dA/dp = -F_p/F_A, the settled tail length and
    the eigenvector over the normalized P_l^lam.

    The m-th largest eigenvalue of the _K0 + lam truncation, a lower bound
    of A_ang, seeds Newton steps on the angular fraction twisted at the
    largest component of its eigenvector.  The full Sturm count narrows
    a bracket (lo, hi) on A_m, from Gershgorin's bound to p^2, the bound
    of -p^2 eta^2; a step from outside (A_(m+1), A_(m-1)) or out of the
    bracket bisects.  The root is the m-th once the count without row j
    is m.
    """
    ang = _Angular(p, lam, parity)
    c, e = (np.array(a[:_K0 + lam]) for a in ang.rows(_K0 + lam)[:2])
    e[-1] = 0.0  # the truncation ends at its last row
    mu, vecs = np.linalg.eigh(np.diag(c) + np.diag(e[:-1], 1)
                              + np.diag(e[:-1], -1))
    A, j = float(-mu[m]), int(np.argmax(np.abs(vecs[:, m])))
    # Gershgorin's bound on the truncation is below every A_m(K)
    lo = -float(np.max(c + np.abs(e) + np.abs(np.roll(e, 1)))) - 1.0
    K, hi, step = _K0 + lam, p * p + 1.0, math.inf
    for _ in range(_MAX_STEPS):
        F, (F_A, F_p), below, v = _angular_fraction(A, ang, j,
                                                    max(K // 2, j + 1))
        K, count = v.size, below + (F < 0.0)
        lo, hi = (A, hi) if count > m else (lo, A)
        new = A - F / F_A
        # Newton only between A_(m+1) and A_(m-1), where F has no other root
        if count not in (m, m + 1) or not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        prev, step = step, new - A
        A = new
        if below == m and _settled(step, prev, max(1.0, abs(A))):
            return A, -F_p / F_A, K, v
    raise AngularConvergenceError(f"Newton on the angular A_{m}(p={p}) "
                                  "did not settle")


def angular_eigenvalue(p: float, lam: int, m: int, parity: int) -> float:
    """Separation constant A(p) of the eta channel (see _angular)."""
    return _angular(p, lam, m, parity)[0]


# ----------------------------------------------------------------------
# radial channel


def _recurrence(p: float, b: float, lam: int, lo: int, hi: int):
    """alpha_k, c_k = beta_k - A, gamma_k and the p-slopes dc_k, dgamma_k
    for lo <= k < hi."""
    k = np.arange(lo, hi, dtype=float)
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


class _Radial:
    """The radial recurrence at one p as lists: alpha, c, gamma, dc,
    dgamma and the p-slope of alpha, which is zero, extended in place to
    the length of a request that runs past them.  A row depends on k
    alone, so no row is computed twice and the lists hold the floats of
    one long build."""

    def __init__(self, p: float, b: float, lam: int):
        self.p, self.b, self.lam = p, b, lam
        self.cols = ([], [], [], [], [], [])

    def rows(self, n: int):
        """The columns, holding at least the rows k < n."""
        *cols, zero = self.cols
        size = len(zero)
        if size < n:
            for col, a in zip(cols, _recurrence(self.p, self.b, self.lam,
                                                size, n)):
                col.extend(a.tolist())
            zero.extend([0.0] * (n - size))
        return self.cols

    def tail(self, k: int) -> float:
        """Where a sweep over the rows below k starts: the minimal
        solution's ratio r_k = 1 - 2 sqrt(p/k) + (2p - kappa - 3/4)/k, to
        O((max(1, p)/k)^(3/2)), from the recurrence's leading orders in k
        (minimal solutions: Gautschi, SIAM Rev. 9, 24 (1967)).  The
        expansion is in sqrt(p/k), so it is taken from k = 64 p on, where
        it is good to about 1%, and 0 below that."""
        p = self.p
        if k < 64.0 * p:
            return 0.0
        return (1.0 - 2.0 * math.sqrt(p / k)
                + (2.0 * p - 0.5 * self.b / p - 0.75) / k)


def _ratios(A: float, cols, ks, x: float):
    """_sweep over the radial rows ks from x: the last ratio, its A- and
    p-slopes and every ratio."""
    alpha, c, gamma, dc, dgamma, dalpha = cols
    x, xA, xp, _, xs = _sweep(A, c, alpha, gamma, dc, dalpha, dgamma, ks, x)
    return x, xA, xp, xs


def _pivots(A: float, cols, ks, x: float):
    """_sweep over the radial rows ks from x, to its bits, without the
    ratio list and alpha's p-slope, which is zero: the last ratio, its A-
    and p-slopes and the count of negative pivots."""
    alpha, c, gamma, dc, dgamma, _ = cols
    xA = xp = 0.0
    below = 0
    for k in ks:
        den = A + c[k] + alpha[k] * x
        below += den < 0.0
        slope = dc[k] + alpha[k] * xp
        x = -gamma[k] / den
        xA = -x * (1.0 + alpha[k] * xA) / den
        xp = -(dgamma[k] + x * slope) / den
    return x, xA, xp, below


def _settle(A: float, rad: _Radial, K: int, sweep):
    """Scaled F(A), its slopes (F_A, F_p) on the same scale, the settled
    tail length and the last item of sweep (_ratios or _pivots) over it.
    The tail doubles from K terms until F settles at the rounding level of
    its terms, each sweep starting at rad.tail.  The rows come from rad,
    the table at F's p; the first tail only gives the value the next one
    is checked against, so it sweeps that value alone."""
    alpha, c, gamma = rad.rows(2 * K + 1)[:3]  # both tails of a check
    prev = A + c[0] + alpha[0] * _ratio(A, c, alpha, gamma, range(K, 0, -1),
                                        rad.tail(K + 1))
    while (K := 2 * K) <= _K_MAX:
        cols = rad.rows(K + 1)
        alpha, c, _, dc = cols[:4]
        rk, rA, rp, out = sweep(A, cols, range(K, 0, -1), rad.tail(K + 1))
        F = A + c[0] + alpha[0] * rk
        scale = abs(A) + abs(c[0]) + abs(alpha[0] * rk)
        if abs(F - prev) <= 1e-15 * scale:
            slopes = (1.0 + alpha[0] * rA, dc[0] + alpha[0] * rp)
            return F / scale, tuple(d / scale for d in slopes), K, out
        prev = F
    raise OracleConvergenceError(f"continued fraction unsettled after "
                                 f"{_K_MAX} terms (p={rad.p}, A={A})")


def _fraction(A: float, rad: _Radial, K: int = 64):
    """Scaled F(A), its slopes (F_A, F_p) on the same scale, and the ratios
    r_0..r_K (r_0 = 1) of the settled tail (see _settle)."""
    F, slopes, _, rs = _settle(A, rad, K, _ratios)
    return F, slopes, [1.0] + rs[::-1]


def _settled(step: float, prev: float, x: float) -> bool:
    """A step within 4 ulp of x > 0, or within 1e-12 x and not halving."""
    return (abs(step) <= 4.0 * math.ulp(x)
            or abs(step) <= 1e-12 * x and abs(step) > 0.5 * abs(prev))


def _estimate(rad: _Radial, n: int) -> float:
    """The n-th eigenvalue of the recurrence truncated to its first
    _N_ESTIMATE rows."""
    alpha, c, gamma = (np.array(col[:_N_ESTIMATE]) for col in
                       rad.rows(_N_ESTIMATE)[:3])
    M = -(np.diag(c) + np.diag(alpha[:-1], 1) + np.diag(gamma[1:], -1))
    return float(np.sort(np.linalg.eigvals(M).real)[n])


def _radial_eigenvalue(p: float, b: float, lam: int, n: int,
                       K: int = _K_RADIAL, A: float | None = None):
    """A_n(p), its slope dA_n/dp = -F_p/F_A, the settled tail length and
    the table at p: Newton steps on the continued fraction from A, whose
    first tail is K terms.  The settled sweep at A_n has exactly n
    non-negative pivots, so a root without them is another A_m, and the
    polish runs again from _estimate, which also starts it when A is None.
    The table is built once, for a first tail check that doubles once."""
    rad = _Radial(p, b, lam)
    rad.rows(2 * K + 1)
    for start in (A, None) if A is not None else (None,):
        A = _estimate(rad, n) if start is None else start
        K_polish, step = K, math.inf
        for _ in range(_MAX_STEPS):
            F, (F_A, F_p), K_polish, below = _settle(A, rad, K_polish // 2,
                                                     _pivots)
            if F_A == 0.0:
                break
            prev, step = step, F / F_A
            A -= step
            if _settled(step, prev, max(1.0, abs(A))):
                if start is None or K_polish - below == n:
                    return A, -F_p / F_A, K_polish, rad
                break
    raise OracleConvergenceError(f"Newton on A_{n}(p={p}) did not settle")


def radial_solution(E_total: float, A: float, setup: PhysicalSetup, lam: int,
                    K: int = 64):
    """Scaled continued-fraction defect F(A)/(|A|+|c_0|+|alpha_0 r_1|) at
    p(E_total), and the root index: the count of non-negative pivots of the
    settled sweep, n at A_n and on both sides close to it.  The fraction's tail
    doubles from K terms, on a table of its own."""
    b = (setup.Z1 + setup.Z2) * setup.R
    rad = _Radial(p_from_energy(E_total, setup), b, lam)
    defect, _, K, below = _settle(A, rad, K, _pivots)
    return defect, K - below


def radial_mismatch(E_total: float, A: float, setup: PhysicalSetup, lam: int,
                    n: int, K: int = 64) -> float:
    """Continued-fraction defect; raises when the root index of
    radial_solution, the interior node count at a root, differs from n."""
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
    halving (the noise floor of D).  The first p-step's radial polish
    starts at A_ang(p), each later one at the tangent of the last,
    A_n(p_prev) + dA_n/dp (p - p_prev), and from the tail length the
    last one settled on.  Returns E there, A_ang at p(E) with its
    eigenvector, the radial tail length and the number of p-steps.
    """
    b = (setup.Z1 + setup.Z2) * setup.R
    p = p_from_energy(E_seed, setup)
    lo, hi, step, K_rad = 0.0, math.inf, math.inf, _K_RADIAL
    for steps in range(1, _MAX_STEPS + 1):
        A, dA, _, v = _angular(p, label.lam, label.m, label.parity)
        start = A if steps == 1 else A_n + dA_n * (p - rad.p)
        A_n, dA_n, K_rad, rad = _radial_eigenvalue(p, b, label.lam, label.n,
                                                   K_rad, start)
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
                A, _, _, v = _angular(p_E, label.lam, label.m, label.parity)
            return E, A, v, K_rad, steps
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
    label.n radial nodes, verified by radial_mismatch at p(E).
    """
    E = E_seed if E_seed is not None else hydrogenic_seed(label, setup)
    E, A, v, K_rad, steps = find_root(label, setup, E)
    mism = radial_mismatch(E, A, setup, label.lam, label.n, K_rad // 2)
    return OracleResult(label, setup, E, A, p_from_energy(E, setup), v.size,
                        mism, steps, v)


# ----------------------------------------------------------------------
# exact eigenfunctions


def _series(A: float, rad: _Radial, t_max: float, r):
    """Coefficients g_k of the radial series sum g_k t^k, scaled so that
    max |g_k| = 1, and the log of that scale, from the ratios r of a
    settled fraction on the table rad.  The tail doubles until the terms
    past its first half fall below 1e-18 of the largest on t <= t_max;
    those are dropped."""
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
        r = np.array(_fraction(A, rad, K)[2])


def _sign_changes(A: float, rad: _Radial, r):
    """The node grid t = (xi-1)/(xi+1) on (0, t_far], the series
    coefficients g on it (from the ratios r on the table rad), and the
    indices i where sum g_k t^k changes sign between t[i] and t[i+1].  No
    node lies beyond the outer turning point of A + b xi - p^2 xi^2."""
    p, b = rad.p, rad.b
    xi_far = (b + math.sqrt(b * b + 4.0 * p * p * max(A, 0.0))) \
        / (2.0 * p * p) + 1.0 / p
    t = np.linspace(0.0, 1.0, 1400)[1:] * (xi_far - 1.0) / (xi_far + 1.0)
    g, _ = _series(A, rad, t[-1], r)
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
    fraction's ratios; Y sums normalized P_l^lam over the eigenvector that
    _angular's fraction gave at the oracle's p, kept in the result.
    """
    label, setup, p = result.label, result.setup, result.p
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    b = (setup.Z1 + setup.Z2) * setup.R
    kap = b / (2.0 * p)
    t = (xi - 1.0) / (xi + 1.0)
    rad = _Radial(p, b, label.lam)
    g, scale = _series(result.A, rad, float(np.max(t, initial=0.0)),
                       _fraction(result.A, rad)[2])
    S = np.polynomial.polynomial.polyval(t, g)
    v = result.eigenvector
    ls = _legendre_terms(label.lam, label.parity, v.size)[0]
    Y = _legendre_sum(v, ls, label.lam, eta)
    with np.errstate(divide="ignore"):
        log_x = ((kap - label.lam - 1.0) * np.log(xi + 1.0) - p * xi
                 + np.log(np.abs(S)) + scale)
        log_y = np.log(np.abs(Y))
    return (log_x, np.sign(S)), (log_y, np.sign(Y))


def exact_node(result: OracleResult) -> float:
    """xi of the first interior node of the exact radial function: Newton
    steps on Jaffe's series in t, inside the node grid's sign change that
    holds the node; a step that leaves it bisects."""
    setup, A, p, lam = result.setup, result.A, result.p, result.label.lam
    rad = _Radial(p, (setup.Z1 + setup.Z2) * setup.R, lam)
    t, g, change = _sign_changes(A, rad, _fraction(A, rad)[2])
    if change.size == 0:
        raise RadialRootError(f"no radial node for {result.label}")
    i = change[0]
    lo, hi = t[i], t[i + 1]
    dg = np.polynomial.polynomial.polyder(g)
    sign_lo = math.copysign(1.0, np.polynomial.polynomial.polyval(lo, g))
    u, step = 0.5 * (lo + hi), math.inf
    for _ in range(_MAX_STEPS):
        S = np.polynomial.polynomial.polyval(u, g)
        dS = np.polynomial.polynomial.polyval(u, dg)
        lo, hi = (u, hi) if math.copysign(1.0, S) == sign_lo else (lo, u)
        new = u - S / dS if dS != 0.0 else math.nan
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        prev, step = step, new - u
        u = new
        if _settled(step, prev, u):
            return (1.0 + u) / (1.0 - u)
    raise OracleConvergenceError(f"Newton on the radial node of "
                                 f"{result.label} did not settle")
