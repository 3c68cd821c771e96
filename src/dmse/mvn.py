"""Multivariate normal primitives.

This module provides the numerical core used by the likelihood and its
gradients:

- Cholesky factorization with a single-jitter retry for positive
  semidefinite matrices that are numerically rank-deficient; a problem
  keeps the precision matrix the sampler conditions with.
- Orthant probabilities ``Pr(X in rect)`` with a controlled error
  estimate. Every coordinate of a :class:`Rectangle` is a half-line,
  ``(-inf, u]`` or ``[l, inf)``, as presence patterns make them; each
  ``[l, inf)`` is mirrored below the mean, so every integrator layer
  carries one upper bound per variable. Probabilities are computed by the
  sequential-conditioning transform to the unit hypercube and randomized
  lattice integration. There is one integration path,
  :func:`cdf_rectangles`, whose unit of work is a batch of rows sharing
  one covariance: it orders the variables of many rows in each pass, then
  integrates row by row and logs each row that misses its tolerance.
  :func:`cdf_rectangle` is its one-row case. Only the tolerance, up to
  :data:`MAX_SAMPLES`, decides how long an integral runs: each pass after
  the first is sized from the error it must close, and the budget caps a
  row's evaluations; ``tol=math.inf`` is one pass of 61 points a shift.
  Rows of three or more variables that lie outside the bulk are integrated
  under Botev's minimax tilt, found by one batched Newton solve per slice
  of ordered rows. Lattice points are made in fixed-size chunks, and each
  chunk in column blocks of every shift times a run of points, at most
  ``2 * _CHUNK`` columns, in buffers allocated once per pass and filled in
  place; so memory is O(chunk * n) at any point count, and each variable
  costs one ``ndtr`` call. The conditioning sums of each run of 32
  variables are one GEMM over the earlier variables plus a gemv within the
  run. Up to 32 variables that is one gemv a variable, the sums of the
  chunk-wide pass bit for bit, so every estimate with n <= 32 is what the
  chunk-wide pass gave; past 32 the GEMM reorders sums, which moves
  estimates by a few ulps.
- Gibbs sampling of the normal restricted to such a product of
  half-lines, mirrored as the integrator mirrors it, so every conditional
  is drawn below one bound, by the inverse CDF of one uniform per entry.
  A problem's mean and a rectangle's bounds may carry a leading batch axis
  (one covariance, many means), which the sampler advances together. Each
  coordinate update works in place in buffers allocated once per call; the
  random stream and the draws are those of the plainer form in
  ``tests/oracles.py``.

All operations are pure given their inputs plus an explicit seed; values
are immutable, and the precision matrix is computed at construction time
(no interior mutation afterwards).
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import fft, ifft
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .errors import DimMismatch, NotPositiveDefinite, SingularCovariance

log = logging.getLogger(__name__)

__all__ = [
    "Rectangle",
    "MvnProblem",
    "CdfEstimate",
    "SamplerConfig",
    "cholesky",
    "cdf_rectangle",
    "cdf_rectangles",
    "sample_truncated",
]

#: Number of independent lattice randomizations used for error estimation.
N_RANDOMIZATIONS = 12

#: Default relative tolerance for rectangle probabilities.
DEFAULT_CDF_TOL = 1e-6

#: Integrand-evaluation cap per row of a cdf_rectangles call, past the first
#: lattice pass (3,084 evaluations at a finite tolerance), which always runs.
MAX_SAMPLES = 10_000_000

#: Lattice points per chunk of an integrand pass, which bounds its memory;
#: cdf_rectangles orders ``_CHUNK // n`` rows at a time for the same reason.
_CHUNK = 4096

#: Most columns (points times shifts) one block of a lattice pass holds, so
#: a block's per-variable rows stay in cache.
_BLOCK = 2 * _CHUNK

#: Variables whose conditioning sums a lattice block makes with one GEMM.
_COND_BLOCK = 32

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Gibbs chains run per observation (fewer when fewer draws are asked for).
CHAINS = 32


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _checked_mean(mean, n: int) -> np.ndarray:
    """``mean`` as a float ``(n,)`` or ``(B, n)`` array, else DimMismatch;
    ValueError if an entry is NaN or infinite."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if mean.ndim > 2 or mean.shape[-1] != n:
        raise DimMismatch(f"mean of shape {mean.shape} is neither ({n},) nor (B, {n})")
    # Unchecked, a non-finite row would spend its whole integration budget
    # and come back as nan with an error estimate of 0.
    if not np.all(np.isfinite(mean)):
        raise ValueError(f"mean has non-finite entries {mean[~np.isfinite(mean)]}")
    return mean


@dataclass(frozen=True)
class Rectangle:
    """A product of half-lines: coordinate ``j`` is ``(-inf, upper_j]``
    (``lower_j = -inf``) or ``[lower_j, inf)`` (``upper_j = inf``), with a
    finite end. These are the regions presence patterns make.

    Bounds of shape ``(B, n)`` hold one rectangle per row of a batch.
    Any other coordinate (two-sided, the whole line, a NaN bound, or an
    empty ``lower = inf`` or ``upper = -inf``) raises ``ValueError`` naming
    the first one.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape:
            raise DimMismatch(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if lo.ndim not in (1, 2):
            raise DimMismatch(f"bounds of shape {lo.shape} are neither (n,) nor (B, n)")
        half = ((lo == -np.inf) & np.isfinite(hi)) | (np.isfinite(lo) & (hi == np.inf))
        if not np.all(half):
            bad = tuple(np.argwhere(~half)[0])
            row = f" of row {bad[0]}" if lo.ndim == 2 else ""
            raise ValueError(f"coordinate {bad[-1]}{row} is [{lo[bad]}, {hi[bad]}], "
                             "not a half-line (-inf, u] or [l, inf)")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

    @classmethod
    def from_presence(cls, bits) -> "Rectangle":
        """Build the region whose probability is the likelihood of ``bits``.

        Presence (``bits_j = 1``) maps to ``(0, +inf)``; absence to
        ``(-inf, 0)``.
        """
        b = np.asarray(bits)
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("presence bits must be 0 or 1")
        lo = np.where(b == 1, 0.0, -np.inf)
        hi = np.where(b == 1, np.inf, 0.0)
        return cls(lo, hi)


@dataclass(frozen=True)
class MvnProblem:
    """A normal distribution ``N(mean, cov)`` with a cached precision matrix.

    Construction checks that ``cov`` is square and symmetric, factorizes it
    with :func:`cholesky` (one jitter retry; :class:`NotPositiveDefinite`
    if that fails), and keeps the inverse as ``precision``, which cannot be
    passed in. A mean of shape ``(B, n)`` makes a batch of ``B`` problems
    that share the covariance and its factorization; a NaN or infinite
    mean entry raises ``ValueError``.
    """

    mean: np.ndarray
    cov: np.ndarray
    precision: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        n = cov.shape[0] if cov.ndim == 2 else 0
        if cov.shape != (n, n) or n < 1:
            raise DimMismatch(f"cov shape {cov.shape} is not a nonempty square matrix")
        object.__setattr__(self, "mean", _checked_mean(self.mean, n))
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ValueError("covariance must be symmetric within 1e-12 relative")
        object.__setattr__(self, "cov", cov)
        chol, _ = cholesky(cov)
        try:
            inv_l = solve_triangular(chol, np.eye(n), lower=True)
        except Exception as exc:  # pragma: no cover - scipy raises rarely here
            raise SingularCovariance(str(exc)) from exc
        if not np.all(np.isfinite(inv_l)):
            raise SingularCovariance("covariance not invertible after jitter")
        object.__setattr__(self, "precision", inv_l.T @ inv_l)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


@dataclass(frozen=True)
class CdfEstimate:
    """Rectangle-probability estimate with an error bound.

    ``error_estimate`` is three standard errors across the independent
    lattice randomizations, clipped so the uncertainty interval stays
    inside [0, 1], and 0 for the closed form of one variable.
    ``samples_used`` counts integrand evaluations, at most
    ``max(MAX_SAMPLES, 3084)``; ``tolerance_reached`` is False when the
    budget ran out first.
    """

    value: float
    error_estimate: float
    samples_used: int
    tolerance_reached: bool = True


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration of the truncated-normal Gibbs sampler.

    Each observation runs :attr:`chains` chains (``CHAINS``, or fewer when
    ``n_samples`` is smaller), and ``n_samples`` is rounded up to whole
    chains. It must be at least 2, the fewest draws (one per chain) that a
    between-chain standard error needs. Each chain discards
    ``burn_in_sweeps`` sweeps, then keeps one draw every ``thinning``
    sweeps. The random seed is not part of the configuration: each call of
    :func:`sample_truncated` takes its own.
    """

    n_samples: int = 256
    burn_in_sweeps: int = 50
    thinning: int = 2

    def __post_init__(self):
        for key, ok, need in (
            ("n_samples", self.n_samples >= 2, ">= 2"),
            ("burn_in_sweeps", self.burn_in_sweeps >= 0, ">= 0"),
            ("thinning", self.thinning >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {need}, got {getattr(self, key)!r}")

    @property
    def chains(self) -> int:
        return min(CHAINS, self.n_samples)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def cholesky(cov: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower-triangular factor of ``cov``, retrying once with jitter.

    Returns ``(L, jitter_applied)`` with ``L @ L.T == cov`` (of the
    jittered matrix when the retry fired). The jitter is
    ``1e-8 * mean(diag) * I``, enough to rescue Gram matrices that are
    positive semidefinite but numerically rank-deficient.

    Raises
    ------
    NotPositiveDefinite
        If factorization fails even after the jitter pass.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {cov.shape}")
    try:
        return np.linalg.cholesky(cov), False
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-8 * float(np.mean(np.diag(cov)))
    if jitter <= 0:
        jitter = 1e-12
    try:
        return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0])), True
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"matrix not positive definite after jitter {jitter:.3e}"
        ) from exc


def _half_lines(problem: MvnProblem, rect: Rectangle, shape=None):
    """``(mean, sign, t)`` broadcast to ``shape``, by default their common
    shape: coordinate ``j`` is ``sign_j * (x_j - t_j) <= 0``, so ``sign`` is
    -1.0 for ``[l, inf)`` and 1.0 for ``(-inf, u]``, and ``t`` is the finite
    end. DimMismatch if the dimensions differ or the shapes do not broadcast.
    """
    if rect.dim != problem.dim:
        raise DimMismatch(f"rectangle dim {rect.dim} != problem dim {problem.dim}")
    up = rect.upper == np.inf
    sign = np.where(up, -1.0, 1.0)
    t = np.where(up, rect.lower, rect.upper)
    try:
        if shape is None:
            shape = np.broadcast_shapes(problem.mean.shape, t.shape)
        return tuple(np.broadcast_to(a, shape) for a in (problem.mean, sign, t))
    except ValueError:
        to = "" if shape is None else f" to {shape}"
        raise DimMismatch(f"mean {problem.mean.shape} and bounds {t.shape} "
                          f"do not broadcast{to}") from None


# ---------------------------------------------------------------------------
# Rectangle probabilities (sequential conditioning + randomized lattice)
# ---------------------------------------------------------------------------


def _largest_prime_at_most(n: int) -> int:
    while any(n % p == 0 for p in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of ``n``, ascending, by trial division."""
    fs, p = [], 2
    while p * p <= n:
        if n % p == 0:
            fs.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        fs.append(n)
    return fs


def _primitive_root(p: int) -> int:
    pm = p - 1
    fs = _prime_factors(pm)
    r, k = 2, 0
    while k < len(fs):
        if pow(r, pm // fs[k], p) == 1:
            r += 1
            k = 0
        else:
            k += 1
    return r


def _powers_mod(g: int, m: int, n: int) -> np.ndarray:
    """``g**j % n`` for ``j < m``, as int64, for ``n < 2**31``.

    Filled by blocks that double: the entries from ``k`` on are those
    before ``k`` times ``g**k``, so the products stay below ``2**62``.
    """
    out = np.ones(m, dtype=np.int64)
    k = 1
    while k < m:
        step = min(k, m - k)
        out[k : k + step] = out[:step] * pow(g, k, n) % n
        k += step
    return out


@lru_cache(maxsize=64)
def _cbc_lattice(dim: int, n_points: int) -> tuple[tuple[float, ...], int]:
    """Rank-1 lattice generator via the fast component-by-component build.

    ``n_points`` is rounded down to the nearest prime; the returned
    generator must be used with exactly that many points.
    """
    n = _largest_prime_at_most(n_points + 1)
    if dim == 1:
        return (1.0 / n,), n
    gm = np.hstack([1.0, 0.8 ** np.arange(dim - 1)])
    z = np.arange(1, dim + 1, dtype=float)
    m = (n - 1) // 2
    g = _primitive_root(n)
    perm = _powers_mod(g, m, n)
    perm = np.minimum(n - perm, perm)
    pn = perm / n
    c = pn * pn - pn + 1.0 / 6.0
    fc = fft(c)
    q, w = 1.0, 0
    for s in range(1, dim):
        reordered = np.hstack([c[: w + 1][::-1], c[w + 1 : m][::-1]])
        q = q * (1.0 + gm[s - 1] * reordered)
        w = int(ifft(fc * fft(q)).real.argmin())
        z[s] = perm[w]
    return tuple(z / n), n


def _ordered_cholesky(cov, upper, singular_tol=1e-10):
    """Scaled, reordered Cholesky factors for the conditioning transform.

    Takes a batch: ``cov`` of shape ``(B, n, n)`` and finite upper bounds
    of shape ``(B, n)`` of the region ``X <= upper``, ordered together one
    pivot at a time. Within each row, variables are permuted greedily so
    that the most truncating bound (smallest conditional probability mass,
    ties to the last candidate) comes first, and rows are rescaled so every
    conditional standard deviation is 1. Handles positive semidefinite
    covariances by zeroing exhausted pivots.

    Returns ``(cho, hi)`` in the transformed coordinates, where ``cho`` is
    lower triangular. The permutation itself is not kept: the probability
    of the region does not depend on it.
    """
    cho = np.array(cov, dtype=float)
    b, n = cho.shape[:2]
    dc = np.sqrt(np.maximum(np.diagonal(cho, axis1=1, axis2=2), 0.0))
    dc[dc == 0.0] = 1.0
    hi = np.asarray(upper, dtype=float) / dc
    cho /= dc[:, None, :]
    cho /= dc[:, :, None]
    # A symmetric working matrix lets each swap move whole rows and columns;
    # the Schur update keeps it symmetric, since col_i * col_j == col_j * col_i.
    iu = np.triu_indices(n, 1)
    cho[:, iu[0], iu[1]] = cho[:, iu[1], iu[0]]

    rows = np.arange(b)
    y = np.zeros((b, n))
    for k in range(n):
        # Conditional mass of every remaining candidate given y[:, :k]; an
        # exhausted pivot or a NaN mass never wins. Summing each row alike
        # (unlike a BLAS matvec) makes exchangeable candidates tie exactly.
        diag = np.diagonal(cho, axis1=1, axis2=2)[:, k:]
        live = diag > singular_tol
        ci = np.sqrt(np.where(live, diag, 1.0))
        s = (cho[:, k:, :k] * y[:, None, :k]).sum(axis=2)
        hi_c = (hi[:, k:] - s) / ci
        de = ndtr(hi_c)
        ok = live & (de <= 1.0)
        i = n - k - 1 - np.argmin(np.where(ok, de, np.inf)[:, ::-1], axis=1)
        found = ok[rows, i]
        i[~found] = 0
        ck, dem, hi_m, im = ci[rows, i], de[rows, i], hi_c[rows, i], k + i
        # Swap variables k and im of every row (a no-op where im == k).
        cho[rows, k], cho[rows, im] = cho[rows, im], cho[rows, k]
        cho[rows, :, k], cho[rows, :, im] = cho[rows, :, im], cho[rows, :, k]
        hi[rows, k], hi[rows, im] = hi[rows, im], hi[rows, k]
        cho[:, k, k] = ck
        cho[:, k + 1 :, k] /= ck[:, None]
        col = cho[:, k + 1 :, k]
        cho[:, k + 1 :, k + 1 :] -= col[:, :, None] * col[:, None, :]
        # The pivot's conditional mean given X <= h, or h itself where that
        # mass is too small to divide by.
        big = dem > singular_tol
        mass = -np.exp(-0.5 * hi_m * hi_m) / (_SQRT_TWO_PI * np.where(big, dem, 1.0))
        y[:, k] = np.where(found, np.where(big, mass, hi_m), 0.0)
        cho[:, k, : k + 1] /= ck[:, None]
        hi[:, k] /= ck
        # A row with no live pivot left: zero what is left of its factor, so
        # its remaining diagonal stays exhausted at every later step.
        cho[~found, k:, k:] = 0.0
    return np.tril(cho), hi


def _tilts(cho, hi):
    """Botev's minimax tilt of every row of an ordering: the saddle point
    ``(x, mu)``, two ``(B, n-1)`` arrays, of which the pass uses ``mu``, and
    ``(B,)`` values ``psi(x, mu)``, each an upper bound on the log of its
    row's probability.

    In the ordered coordinates (unit-diagonal ``cho``, scaled upper bounds)
    the shifts ``mu`` solve the saddle point ``grad psi = 0`` of
    ``psi(x, mu) = sum_k mu_k^2 / 2 - x_k mu_k + log Phi(u_k)``
    with ``u_k = hi_k - mu_k - sum_{j<k} cho_kj x_j`` and
    ``mu_{n-1} = 0`` (Botev 2017, JRSS-B 79(1)). Newton's method
    starts from 0 with Botev's analytic Jacobian, whose lower-right block
    ``diag(1 + dP)`` is diagonal, so each step is one ``(n-1)``-square
    solve of its Schur complement ``cho'ᵀ W cho' - I`` (``cho'`` the first
    ``n-1`` columns, ``W = diag(dP / (1 + dP))`` with ``dP`` in the last
    place). A row whose ordering exhausted a pivot, or whose solve leaves a
    gradient entry above 1e-10 after 30 steps, gets ``x = mu = 0`` and
    ``psi = 0``, no bound: any finite shift gives an unbiased pass, so that
    costs speed only.
    """
    b, n = hi.shape
    m = n - 1
    x, mu, psi = np.zeros((b, m)), np.zeros((b, m)), np.zeros(b)
    solved = np.zeros(b, dtype=bool)
    todo = np.flatnonzero(np.all(np.diagonal(cho, axis1=1, axis2=2) != 0.0, axis=1))
    # A diverging row may overflow on its way to a non-finite gradient,
    # which drops it from the solve.
    with np.errstate(all="ignore"):
        for _ in range(30):
            lm = cho[todo, :, :m]
            xt, mt = x[todo], mu[todo]
            # u_k - hi_k = x_k - mu_k - (cho x)_k, with x_{n-1} = mu_{n-1} = 0.
            u = hi[todo] + (np.pad(xt - mt, ((0, 0), (0, 1))) - (lm @ xt[:, :, None])[:, :, 0])
            # log Phi(u) without cancellation on either side of 0 (both
            # branches are those of Botev's ``lnNpr`` at l = -inf).
            w = np.where(u < 0, log_ndtr(u), np.log1p(-ndtr(-u)))
            p = -np.exp(-0.5 * u * u - w) / _SQRT_TWO_PI
            # dP_k = d p_k / d mu_k; 1 + dP_k is the variance of the
            # truncated normal, in (0, 1].
            dp = np.where(np.isinf(u), 0.0, u) * p - p * p
            # d psi / d mu = mu - x + p', and d psi / dx + d psi / d mu
            # = cho'ᵀ p - x.
            g_mu = mt - xt + p[:, :m]
            g_sum = (lm.transpose(0, 2, 1) @ p[:, :, None])[:, :, 0] - xt
            g_max = np.maximum(np.abs(g_sum - g_mu), np.abs(g_mu)).max(axis=1)
            done = g_max <= 1e-10
            solved[todo[done]] = True
            psi[todo[done]] = (w.sum(axis=1) + (0.5 * mt * mt - xt * mt).sum(axis=1))[done]
            keep = (g_max > 1e-10) & np.isfinite(g_max)
            todo = todo[keep]
            if not todo.size:
                break
            lm, dp, g_mu, g_sum = lm[keep], dp[keep], g_mu[keep], g_sum[keep]
            lmt = lm.transpose(0, 2, 1)
            t = dp[:, :m] / (1.0 + dp[:, :m])
            schur = lmt @ (np.concatenate([t, dp[:, m:]], axis=1)[:, :, None] * lm)
            schur[:, range(m), range(m)] -= 1.0
            rhs = (lmt[:, :, :m] @ (t * g_mu)[:, :, None])[:, :, 0] - g_sum
            try:  # the complement is negative definite while every dP is finite
                dx = np.linalg.solve(schur, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                break
            x[todo] += dx
            mu[todo] += dx - (g_mu + dp[:, :m] * (lm[:, :m] @ dx[:, :, None])[:, :, 0]) / (
                1.0 + dp[:, :m])
    x[~solved] = mu[~solved] = 0.0
    return x, mu, psi


def _lattice_means(cho, hi, n_points, shifts, mu):
    """Mean integrand value per randomization shift, and the evaluation count.

    ``shifts`` has shape ``(R, n-1)``; returns ``(R,)`` means of the
    conditioned-probability integrand over the tent-transformed lattice,
    whose factor for variable ``i`` is ``ndtr(hi[i] - s_i)`` with ``s_i``
    its conditioning sum.
    Each shift's sum is taken over :data:`_CHUNK` points at a time, and
    each chunk is made in blocks of every shift times at most
    ``_BLOCK // R`` points, in buffers allocated once per call. Within a
    block, the conditioning sums of each run of :data:`_COND_BLOCK`
    variables are one GEMM over the earlier variables plus a gemv over the
    run's own; the first run is a gemv alone.

    A nonzero tilt ``mu`` (``(n-1,)``, from :func:`_tilts`) draws each
    ``y_k`` from the conditional shifted by ``mu_k``: the bounds move by
    ``cho[:, :n-1] @ mu``, and each point's product is multiplied, in log
    space, by the likelihood ratio ``exp(-|mu|^2 / 2 - mu . y)``. A zero
    ``mu`` is the plain pass.
    """
    n = cho.shape[0]
    gen, n_points = _cbc_lattice(n - 1, n_points)
    tilted = mu.any()
    if tilted:
        delta = cho[:, : n - 1] @ mu
        hi = hi - delta
        half = -0.5 * float(mu @ mu)
    r = shifts.shape[0]
    d0 = ndtr(hi[0])
    chunk = min(_CHUNK, n_points)
    width = min(chunk, max(1, _BLOCK // r))
    cols = r * width
    # A block holds every shift of ``width`` points, so its width is a
    # multiple of R: OpenBLAS's gemv takes the last ``width % 4`` columns
    # down another path, and blocks of whole shifts (4,093 points each)
    # would change sums that the chunk-wide gemv made.
    y = np.empty((n - 1) * cols)
    part = np.empty(min(_COND_BLOCK, n - _COND_BLOCK) * cols) if n > _COND_BLOCK else None
    u, s, dc, pv = (np.empty(cols) for _ in range(4))
    frac, past = np.empty(width), np.empty(cols, dtype=bool)
    chunk_pv = np.empty(r * chunk)
    sums = np.zeros(r)
    for start in range(0, n_points, _CHUNK):
        m = min(_CHUNK, n_points - start)
        for p0 in range(0, m, width):
            b = min(width, m - p0)
            w = r * b
            k = np.arange(start + p0 + 1, start + p0 + b + 1, dtype=float)
            yb = y[: (n - 1) * w].reshape(n - 1, w)
            ub, sb, pvb, fb = u[:w], s[:w], pv[:w], frac[:b]
            pvb.fill(d0)
            # The last variable's factor, which scales this one's uniform.
            dcb = d0
            for i in range(1, n):
                # Tent (baker's) transform of coordinate i-1 of the shifted
                # lattice; the sum lies in [0, 2), where subtracting 1 (as
                # True) is exact, so this equals ``% 1.0`` bit for bit.
                np.multiply(k, gen[i - 1], out=fb)
                np.remainder(fb, 1.0, out=fb)
                np.add(fb, shifts[:, i - 1, None], out=ub.reshape(r, b))
                np.greater_equal(ub, 1.0, out=past[:w])
                np.subtract(ub, past[:w], out=ub)
                np.multiply(ub, 2.0, out=ub)
                np.subtract(ub, 1.0, out=ub)
                np.abs(ub, out=ub)
                np.multiply(ub, dcb, out=ub)
                np.maximum(ub, 5e-324, out=ub)
                np.minimum(ub, 1.0 - 1e-16, out=ub)
                ndtri(ub, out=yb[i - 1])
                # sb = cho[i, :i] @ y[:i], by conditioning blocks.
                b0 = i - i % _COND_BLOCK
                if b0 == 0:
                    np.matmul(cho[i, :i], yb[:i], out=sb)
                else:
                    rows = min(_COND_BLOCK, n - b0)
                    earlier = part[: rows * w].reshape(rows, w)
                    if i == b0:
                        np.matmul(cho[b0 : b0 + rows, :b0], yb[:b0], out=earlier)
                        np.copyto(sb, earlier[0])
                    else:
                        np.matmul(cho[i, b0:i], yb[b0:i], out=sb)
                        np.add(sb, earlier[i - b0], out=sb)
                dcb = dc[:w]
                np.subtract(hi[i], sb, out=dcb)
                ndtr(dcb, out=dcb)
                np.multiply(pvb, dcb, out=pvb)
            if tilted:
                # The ratio alone can overflow where the product underflows.
                np.matmul(mu, yb, out=sb)
                np.subtract(half, sb, out=sb)
                with np.errstate(divide="ignore"):
                    np.log(pvb, out=pvb)
                np.add(pvb, sb, out=pvb)
                np.exp(pvb, out=pvb)
            chunk_pv[: r * m].reshape(r, m)[:, p0 : p0 + b] = pvb.reshape(r, b)
        sums += chunk_pv[: r * m].reshape(r, m).sum(axis=1)
    return sums / n_points, r * n_points


def cdf_rectangles(
    problem: MvnProblem,
    rect: Rectangle,
    seeds,
    tol: float = DEFAULT_CDF_TOL,
) -> list[CdfEstimate]:
    """Estimate ``Pr(X in rect)`` for every row of a batch with one covariance.

    Each ``[l, inf)`` coordinate is mirrored to ``(-inf, mean - l]``, so
    every variable is integrated below its (centred) bound, where ``ndtr``
    keeps full relative precision; one variable is the closed form
    ``ndtr(hi / sd)``, reported with ``error_estimate`` 0.
    ``problem.mean`` and the bounds of ``rect`` broadcast to ``(B, n)``
    with ``B = len(seeds)``, so one rectangle may serve a batch of means
    and one mean a batch of rectangles; an empty batch gives ``[]``.

    Every row's integral is transformed to the unit hypercube by sequential
    conditioning on its reordered Cholesky factor (many rows are ordered in
    one pass), then integrated with a randomly shifted rank-1 lattice under
    the tent transform, using :data:`N_RANDOMIZATIONS` independent shifts
    drawn from seed ``seeds[i]``. At ``n >= 3`` the pass is tilted: each
    conditional draw is shifted by Botev's minimax shift (see
    :func:`_tilts`) and each point weighted by its likelihood ratio, which
    keeps the weights bounded far out in a tail. A row whose probability
    bound from the solve is 0.1 or more, whose ordering exhausted a pivot,
    or whose solve does not converge, is integrated untilted. A row runs
    passes until ``error_estimate <= tol * max(value, 1e-300)``. Each pass
    after the first is sized, on the premise that a pass's error falls as
    1/points, to close that gap once combined with the earlier passes,
    growing 1x to 16x on the last; ``tol=0`` grows 16x. :data:`MAX_SAMPLES`
    caps a row's evaluations past its first pass: a pass is clipped to the
    budget left, and a row with less than 256 points a shift left stops,
    is returned with ``tolerance_reached=False`` and is logged as one
    WARNING. A NaN or negative ``tol`` raises ``ValueError``.

    ``tol=math.inf`` is met by any finite first estimate, so it means
    exactly one pass per row, tilted by the same rule, of 12 shifts of 61
    points: 732 evaluations. Out of the bulk, that errs less than a plain
    pass of 257 points a shift; in it, up to about 5x more.
    """
    # A NaN tolerance is never met, so every row would run to the budget.
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    seeds = list(seeds)
    n = problem.dim
    mean, sign, t = _half_lines(problem, rect, (len(seeds), n))
    # Negate every variable whose half-line is [l, inf), so it lies below
    # its bound (1 - ndtr(l) cancels to 0 in a far upper tail).
    hi = sign * (t - mean)
    if n == 1:
        sd = math.sqrt(problem.cov[0, 0])
        return [CdfEstimate(float(v), 0.0, 0, True) for v in ndtr(hi[:, 0] / sd)]

    # Rows are ordered and tilted _CHUNK // n at a time, so the (rows, n, n)
    # arrays of the ordering and of the Newton solve hold about _CHUNK * n
    # floats each, however many rows the batch has.
    step = max(1, _CHUNK // n)
    estimates = []
    for row, seed in enumerate(seeds):
        if row % step == 0:
            part = slice(row, row + step)
            flip = sign[part, :, None] * sign[part, None, :]
            cho, thi = _ordered_cholesky(problem.cov * flip, hi[part])
            if n > 2:
                # The likelihood ratio makes the integrand singular at the
                # lattice's ends, which costs where the plain integrand is
                # smooth and not small: at n = 2, where the lattice is a
                # one-dimensional rule (up to 8x more evaluations for
                # bivariate rows at tol=5e-7), and in the bulk, for a row
                # whose probability bound exp(psi) is 0.1 or more.
                _, mu, psi = _tilts(cho, thi)
                tilt = np.where(psi[:, None] < math.log(0.1), mu, 0.0)
            else:
                tilt = np.zeros((len(thi), n - 1))
        rng = np.random.default_rng(seed)
        n_points = 256 if math.isfinite(tol) else 64
        value, err = 0.0, math.inf
        used = 0
        while True:
            shifts = rng.random((N_RANDOMIZATIONS, n - 1))
            r = row % step
            means, n_eval = _lattice_means(cho[r], thi[r], n_points, shifts, tilt[r])
            used += n_eval
            vi = float(means.mean())
            ei = 3.0 * float(means.std(ddof=1)) / math.sqrt(N_RANDOMIZATIONS)
            if math.isfinite(err) and ei > 0.0:
                # Inverse-variance combination with earlier stages.
                wt = 1.0 / (1.0 + (ei / err) ** 2) if err > 0.0 else 1.0
                value += wt * (vi - value)
                err = math.sqrt(wt) * ei
            else:
                value, err = vi, ei
            target = tol * max(abs(value), 1e-300)
            reached = err <= target
            # The budget is a cap: the next pass gets at most what is left
            # of it, and a row stops once that is under 256 points a shift.
            # _cbc_lattice may round a count up by one, hence ``left - 1``.
            left = (MAX_SAMPLES - used) // N_RANDOMIZATIONS
            if reached or left < 256:
                break
            # A pass's error falls about as 1/points, so N' points, combined
            # with ``err`` as above, meet ``target`` once
            # N' >= n_points * need / target. Growth is kept within 1x..16x:
            # one 16x pass costs 16 times the last, where doubling up to it
            # spends 30 times, and the cap bounds the overshoot on rows whose
            # error falls faster, such as n = 2. ``tol=0`` takes the 16x at
            # once, without dividing by 0.
            need = ei * math.sqrt(1.0 - (target / err) ** 2)
            growth = 16.0 if need >= 16.0 * target else max(1.0, need / target)
            n_points = min(int(n_points * growth), left - 1)
        value = min(max(value, 0.0), 1.0)
        err = max(0.0, min(err, value + 1e-12, 1.0 - value + 1e-12))
        if not reached:
            log.warning("joint probability tolerance %g not reached (error %.2e after %d samples)",
                        tol, err, used)
        estimates.append(CdfEstimate(value, err, used, reached))
    return estimates


def cdf_rectangle(
    problem: MvnProblem,
    rect: Rectangle,
    tol: float = DEFAULT_CDF_TOL,
    seed: int = 0,
) -> CdfEstimate:
    """:func:`cdf_rectangles` for a single problem and rectangle, with ``seed``."""
    if problem.mean.ndim != 1 or rect.lower.ndim != 1:
        raise DimMismatch("rectangle probabilities take a single problem, not a batch")
    return cdf_rectangles(problem, rect, [seed], tol)[0]


# ---------------------------------------------------------------------------
# Truncated Gibbs sampling
# ---------------------------------------------------------------------------


def _trunc_std_normal(u, h, z) -> np.ndarray:
    """One draw per entry of a standard normal conditioned on ``z <= h``,
    written into the buffer ``z``, which is returned.

    Every bound is an upper one: :func:`sample_truncated` mirrors each
    ``[l, inf)``, as the integrator does, so ``ndtr`` works below the bound
    with full relative precision. The draw is the inverse CDF of ``u`` (one
    uniform per entry), ``ndtri(u * ndtr(h))``. Where that product falls
    below the normal float range (from bounds about 37.5 sd out), the same
    inverse CDF is taken in log space, ``ndtri_exp(log(u) + log_ndtr(h))``.
    """
    ndtr(h, out=z)
    np.multiply(z, u, out=z)
    # Products below the smallest normal float (subnormal or zero) take the
    # log form.
    deep = np.flatnonzero(z < sys.float_info.min)
    ndtri(z, out=z)
    if deep.size:
        z[deep] = ndtri_exp(np.log(u[deep]) + log_ndtr(h[deep]))
    return z


def sample_truncated(
    problem: MvnProblem, rect: Rectangle, cfg: SamplerConfig, seed: int
) -> np.ndarray:
    """Draw about ``cfg.n_samples`` from ``problem`` restricted to ``rect``.

    A systematic-scan Gibbs sampler: coordinate ``j`` is redrawn from its
    univariate normal conditional (precision parameterization, with the
    precision matrix computed once from the Cholesky factor), truncated to
    the half-line ``[rect.lower[j], rect.upper[j]]``. Each observation of a batch runs
    ``cfg.chains`` chains from its rectangle-projected mean; all chains of
    all observations advance as one array, looping only over coordinates.
    Returns ``batch + (chains * per_chain, n)`` draws, chain-major, with
    ``per_chain = ceil(n_samples / chains)``; deterministic given ``seed``.

    Each ``[l, inf)`` is mirrored as in :func:`cdf_rectangles`, so every
    conditional is drawn below one bound, by :func:`_trunc_std_normal`'s
    inverse CDF; each sweep takes one uniform per entry from the generator,
    and nothing else.
    """
    mean, sign, t = _half_lines(problem, rect)
    batch = mean.shape[:-1]
    n = problem.dim
    q = problem.precision
    if not np.all(np.isfinite(q)):
        raise SingularCovariance("precision matrix is not finite")
    chains = cfg.chains
    kept = -(-cfg.n_samples // chains)
    rng = np.random.default_rng(seed)
    # (n, rows): coordinate-major so each update touches one contiguous row.
    mu, sign, t = (np.repeat(a.reshape(-1, n), chains, axis=0).T.copy() for a in (mean, sign, t))
    below, above = sign > 0.0, sign < 0.0
    # Open-interval clamp targets so rounding cannot park a draw on a bound.
    inner = np.nextafter(t, -sign * np.inf)
    cond_var = 1.0 / np.diag(q)
    # The conditional sd, negated where the half-line is mirrored.
    sd = sign * np.sqrt(cond_var)[:, None]
    q_off = q - np.diag(np.diag(q))

    # Rectangle-projected mean as the starting state.
    dx = sign * np.minimum(sign * (t - mu), 0.0)
    m = dx.shape[1]
    # Every coordinate update works in these buffers, in place.
    u, x = np.empty((n, m)), np.empty((n, m))
    cm, h, z = np.empty(m), np.empty(m), np.empty(m)
    out = np.empty((kept, n, m))
    burn, thin = cfg.burn_in_sweeps, cfg.thinning
    for sweep in range(1, burn + kept * thin + 1):
        rng.random(out=u)
        for j in range(n):
            # cm = mu[j] - cond_var[j] * (q_off[j] @ dx)
            np.matmul(q_off[j], dx, out=cm)
            np.multiply(cm, cond_var[j], out=cm)
            np.subtract(mu[j], cm, out=cm)
            # h = sign * (t - cm) / |sd|, the mirrored standardized bound.
            np.subtract(t[j], cm, out=h)
            np.divide(h, sd[j], out=h)
            _trunc_std_normal(u[j], h, z)
            np.multiply(z, sd[j], out=z)
            np.add(z, cm, out=z)
            np.minimum(z, inner[j], out=x[j], where=below[j])
            np.maximum(z, inner[j], out=x[j], where=above[j])
            np.subtract(x[j], mu[j], out=dx[j])
        if sweep > burn and (sweep - burn) % thin == 0:
            out[(sweep - burn) // thin - 1] = x
    # (kept, n, batch * chains) -> batch + (chains * kept, n), chain-major.
    out = out.reshape(kept, n, -1, chains).transpose(2, 3, 0, 1)
    return out.reshape(batch + (chains * kept, n))
