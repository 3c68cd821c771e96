"""Multivariate normal primitives.

This module provides the numerical core used by the likelihood and its
gradients:

- Cholesky factorization with a single-jitter retry for positive
  semidefinite matrices that are numerically rank-deficient.
- Density and log-density evaluation.
- Rectangle (orthant) probabilities ``Pr(lower <= X <= upper)`` with a
  controlled error estimate, computed by the sequential-conditioning
  transform to the unit hypercube and randomized lattice integration:
  :func:`cdf_rectangle` for one problem, :func:`cdf_rectangles` for every
  row of a batch that shares one covariance.
- Gibbs sampling of the normal restricted to an axis-aligned rectangle,
  with numerically safe truncated univariate draws. A problem's mean and a
  rectangle's bounds may carry a leading batch axis (one covariance, many
  means), which the sampler advances together.

All operations are pure given their inputs plus an explicit seed; values
are immutable, and the Cholesky factor is computed at construction time
(no interior mutation afterwards).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import fft, ifft
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri

from .errors import DimMismatch, NotPositiveDefinite, SingularCovariance

__all__ = [
    "Rectangle",
    "MvnProblem",
    "CdfEstimate",
    "SamplerConfig",
    "cholesky",
    "mvn_pdf",
    "mvn_logpdf",
    "cdf_rectangle",
    "cdf_rectangles",
    "truncation_bound",
    "clip_rectangle",
    "sample_truncated",
]

#: Number of independent lattice randomizations used for error estimation.
N_RANDOMIZATIONS = 12

#: Default relative tolerance for rectangle probabilities.
DEFAULT_CDF_TOL = 1e-6

#: Default cap on total integrand evaluations per cdf_rectangle call.
DEFAULT_MAX_SAMPLES = 10_000_000

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Conditional-sd multiple beyond which inverse-CDF sampling switches to
# exponential rejection.
_FAR_TAIL = 4.0

#: Gibbs chains run per observation (fewer when fewer draws are asked for).
CHAINS = 32


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _checked_mean(mean, n: int) -> np.ndarray:
    """``mean`` as a float ``(n,)`` or ``(B, n)`` array, else DimMismatch."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if mean.ndim > 2 or mean.shape[-1] != n:
        raise DimMismatch(f"mean of shape {mean.shape} is neither ({n},) nor (B, {n})")
    return mean


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned integration region ``[lower_j, upper_j]`` per coordinate.

    Bounds are IEEE floats; infinite ends are encoded as ``-inf``/``+inf``.
    Bounds of shape ``(B, n)`` hold one rectangle per row of a batch.
    ``widened`` lists the flat indices into the bounds (the coordinates, for
    one rectangle) whose clipping window had to be enlarged to keep the
    rectangle nonempty (see :func:`clip_rectangle`).
    """

    lower: np.ndarray
    upper: np.ndarray
    widened: tuple[int, ...] = ()

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim not in (1, 2) or lo.shape != hi.shape:
            raise DimMismatch(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if not np.all(lo < hi):
            bad = np.unravel_index(np.argmin(hi - lo), lo.shape)
            raise ValueError(
                f"empty rectangle at coordinate {bad[-1]}: [{lo[bad]}, {hi[bad]}]"
            )
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
    """A normal distribution ``N(mean, cov)`` with cached factorization.

    The Cholesky factor and precision matrix are computed at construction
    (one jitter retry, see :func:`cholesky`) and cannot be passed in.
    Problems sharing one covariance reuse the factorization through
    :meth:`with_mean`. A mean of shape ``(B, n)`` makes a batch of ``B``
    problems with one covariance.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    precision: np.ndarray = field(init=False, repr=False)
    jitter_applied: bool = field(init=False)

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
        chol, jit = cholesky(cov)
        try:
            inv_l = solve_triangular(chol, np.eye(n), lower=True)
        except Exception as exc:  # pragma: no cover - scipy raises rarely here
            raise SingularCovariance(str(exc)) from exc
        if not np.all(np.isfinite(inv_l)):
            raise SingularCovariance("covariance not invertible after jitter")
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "precision", inv_l.T @ inv_l)
        object.__setattr__(self, "jitter_applied", jit)

    def with_mean(self, mean) -> "MvnProblem":
        """The same covariance and factorization around another mean."""
        out = copy.copy(self)
        object.__setattr__(out, "mean", _checked_mean(mean, self.dim))
        return out

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def log_det_cov(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


@dataclass(frozen=True)
class CdfEstimate:
    """Rectangle-probability estimate with an error bound.

    ``error_estimate`` is three standard errors across the independent
    lattice randomizations, clipped so the uncertainty interval stays
    inside [0, 1]. ``tolerance_reached`` is False when the sample budget
    ran out first.
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
    chains. Each chain discards ``burn_in_sweeps`` sweeps, then keeps one
    draw every ``thinning`` sweeps.
    """

    n_samples: int = 256
    burn_in_sweeps: int = 50
    thinning: int = 2
    cutoff_k: float = 5.0
    rng_seed: int = 0

    def __post_init__(self):
        for key, ok, need in (
            ("n_samples", self.n_samples >= 1, ">= 1"),
            ("burn_in_sweeps", self.burn_in_sweeps >= 0, ">= 0"),
            ("thinning", self.thinning >= 1, ">= 1"),
            ("cutoff_k", 3 <= self.cutoff_k < math.inf, "finite and >= 3"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {need}, got {getattr(self, key)!r}")

    @property
    def chains(self) -> int:
        return min(CHAINS, self.n_samples)


# ---------------------------------------------------------------------------
# Factorization and densities
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


def _batch_shape(problem: MvnProblem, rect: Rectangle) -> tuple[int, ...]:
    """Common leading batch shape of a problem and a rectangle."""
    if rect.dim != problem.dim:
        raise DimMismatch(f"rectangle dim {rect.dim} != problem dim {problem.dim}")
    try:
        return np.broadcast_shapes(problem.mean.shape, rect.lower.shape)[:-1]
    except ValueError:
        raise DimMismatch(
            f"batch shapes differ: mean {problem.mean.shape}, bounds {rect.lower.shape}"
        ) from None


def mvn_logpdf(problem: MvnProblem, x: np.ndarray) -> float:
    """Log-density of ``problem`` at ``x``."""
    if problem.mean.ndim != 1:
        raise DimMismatch("log-density takes a single problem, not a batch")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != problem.dim:
        raise DimMismatch(f"point has dim {x.shape[0]}, problem has {problem.dim}")
    z = solve_triangular(problem.chol, x - problem.mean, lower=True)
    return float(
        -0.5 * problem.dim * math.log(2.0 * math.pi)
        - 0.5 * problem.log_det_cov
        - 0.5 * (z @ z)
    )


def mvn_pdf(problem: MvnProblem, x: np.ndarray) -> float:
    """Density of ``problem`` at ``x``."""
    return math.exp(mvn_logpdf(problem, x))


# ---------------------------------------------------------------------------
# Rectangle probabilities (sequential conditioning + randomized lattice)
# ---------------------------------------------------------------------------


def _sieve_primes(n: int) -> np.ndarray:
    if n < 2:
        return np.empty(0, dtype=np.int64)
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if s[p]:
            s[p * p :: p] = False
    return np.nonzero(s)[0]


def _prime_factors(n: int) -> list[int]:
    fs = []
    for p in _sieve_primes(int(math.isqrt(n)) + 1):
        p = int(p)
        if n % p == 0:
            fs.append(p)
            while n % p == 0:
                n //= p
        if n == 1:
            break
    if n != 1:
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


@lru_cache(maxsize=64)
def _cbc_lattice(dim: int, n_points: int) -> tuple[tuple[float, ...], int]:
    """Rank-1 lattice generator via the fast component-by-component build.

    ``n_points`` is rounded down to the nearest prime; the returned
    generator must be used with exactly that many points.
    """
    primes = _sieve_primes(n_points + 1)
    n = int(primes[-1])
    if dim == 1:
        return (1.0 / n,), n
    gm = np.hstack([1.0, 0.8 ** np.arange(dim - 1)])
    z = np.arange(1, dim + 1, dtype=float)
    m = (n - 1) // 2
    g = _primitive_root(n)
    perm = np.ones(m, dtype=np.int64)
    for j in range(m - 1):
        perm[j + 1] = (g * perm[j]) % n
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


def _ordered_cholesky(cov, lower, upper, singular_tol=1e-10):
    """Scaled, reordered Cholesky factor for the conditioning transform.

    Variables are permuted greedily so that the most truncating bound
    (smallest conditional probability mass) comes first, and rows are
    rescaled so every conditional standard deviation is 1. Handles
    positive semidefinite covariances by zeroing exhausted pivots.

    Returns ``(cho, lo, hi)`` in the transformed coordinates.
    """
    cho = np.array(cov, dtype=float)
    lo = np.array(lower, dtype=float)
    hi = np.array(upper, dtype=float)
    n = cho.shape[0]
    dc = np.sqrt(np.maximum(np.diag(cho), 0.0))
    dc[dc == 0.0] = 1.0
    lo /= dc
    hi /= dc
    cho /= dc
    cho /= dc[:, None]

    y = np.zeros(n)
    for k in range(n):
        epk = (k + 1) * singular_tol
        im, ck, dem = k, 0.0, 1.0
        lo_m = hi_m = 0.0
        for i in range(k, n):
            if cho[i, i] > singular_tol:
                ci = math.sqrt(cho[i, i])
                s = float(cho[i, :k] @ y[:k]) if k > 0 else 0.0
                lo_i = (lo[i] - s) / ci
                hi_i = (hi[i] - s) / ci
                de = float(ndtr(hi_i) - ndtr(lo_i))
                if de <= dem:
                    ck, dem, lo_m, hi_m, im = ci, de, lo_i, hi_i, i
        if im > k:
            cho[im, im], cho[k, k] = cho[k, k], cho[im, im]
            t = cho[im, :k].copy()
            cho[im, :k] = cho[k, :k]
            cho[k, :k] = t
            t = cho[im + 1 :, im].copy()
            cho[im + 1 :, im] = cho[im + 1 :, k]
            cho[im + 1 :, k] = t
            t = cho[k + 1 : im, k].copy()
            cho[k + 1 : im, k] = cho[im, k + 1 : im]
            cho[im, k + 1 : im] = t
            lo[k], lo[im] = lo[im], lo[k]
            hi[k], hi[im] = hi[im], hi[k]
        if ck > epk:
            cho[k, k] = ck
            cho[k, k + 1 :] = 0.0
            for i in range(k + 1, n):
                cho[i, k] /= ck
                cho[i, k + 1 : i + 1] -= cho[i, k] * cho[k + 1 : i + 1, k]
            if abs(dem) > singular_tol:
                el = math.exp(-0.5 * lo_m * lo_m) if np.isfinite(lo_m) else 0.0
                eh = math.exp(-0.5 * hi_m * hi_m) if np.isfinite(hi_m) else 0.0
                y[k] = (el - eh) / (_SQRT_TWO_PI * dem)
            else:
                y[k] = 0.5 * (lo_m + hi_m)
                if lo_m < -10:
                    y[k] = hi_m
                elif hi_m > 10:
                    y[k] = lo_m
            cho[k, : k + 1] /= ck
            lo[k] /= ck
            hi[k] /= ck
        else:
            cho[k:, k] = 0.0
            y[k] = 0.5 * (lo[k] + hi[k])
    return cho, lo, hi


def _lattice_means(cho, lo, hi, n_points, shifts):
    """Mean integrand value per randomization shift.

    ``shifts`` has shape ``(R, n-1)``; returns ``(R,)`` means of the
    conditioned-probability integrand over the tent-transformed lattice.
    """
    n = cho.shape[0]
    dim = n - 1
    gen, n_points = _cbc_lattice(dim, n_points)
    gen = np.asarray(gen)
    k = np.arange(1, n_points + 1, dtype=float)[:, None]
    base = (k * gen[None, :]) % 1.0  # (n_points, dim)
    r = shifts.shape[0]
    # Tent (baker's) transform of the shifted lattice, all shifts at once.
    w = (base[None, :, :] + shifts[:, None, :]) % 1.0
    x = np.abs(2.0 * w - 1.0).reshape(r * n_points, dim)

    c = np.full(r * n_points, ndtr(lo[0]))
    d = np.full(r * n_points, ndtr(hi[0]))
    pv = d - c
    y = np.empty((dim, r * n_points))
    for i in range(1, n):
        u = c + x[:, i - 1] * (d - c)
        y[i - 1] = ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))
        s = cho[i, :i] @ y[:i]
        c = ndtr(lo[i] - s)
        d = ndtr(hi[i] - s)
        pv = pv * (d - c)
    return pv.reshape(r, n_points).mean(axis=1), r * n_points


def cdf_rectangle(
    problem: MvnProblem,
    rect: Rectangle,
    tol: float = DEFAULT_CDF_TOL,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    seed: int = 0,
) -> CdfEstimate:
    """Estimate ``Pr(X in rect)`` for ``X ~ N(mean, cov)``.

    The integral is transformed to the unit hypercube by sequential
    conditioning on the reordered Cholesky factor, then integrated with a
    randomly shifted rank-1 lattice under the tent transform, using
    :data:`N_RANDOMIZATIONS` independent shifts. The point count doubles
    until ``error_estimate <= tol * max(value, 1e-300)`` or the sample
    budget is exhausted, in which case the estimate is returned with
    ``tolerance_reached=False``.

    Parameters
    ----------
    problem:
        Factorized normal distribution.
    rect:
        Integration region; must match the problem dimension.
    tol:
        Relative tolerance on the probability.
    max_samples:
        Cap on total integrand evaluations.
    seed:
        Seed for the randomization shifts; fixed seed gives a fixed result.
    """
    if problem.mean.ndim != 1 or rect.lower.ndim != 1:
        raise DimMismatch("rectangle probabilities take a single problem, not a batch")
    if rect.dim != problem.dim:
        raise DimMismatch(f"rectangle dim {rect.dim} != problem dim {problem.dim}")
    n = problem.dim
    lo = rect.lower - problem.mean
    hi = rect.upper - problem.mean
    if n == 1:
        sd = math.sqrt(problem.cov[0, 0])
        value = float(ndtr(hi[0] / sd) - ndtr(lo[0] / sd))
        return CdfEstimate(value, 1e-15, 0, True)

    cho, tlo, thi = _ordered_cholesky(problem.cov, lo, hi)
    rng = np.random.default_rng(seed)
    n_points = 256
    value, err = 0.0, math.inf
    used = 0
    while True:
        shifts = rng.random((N_RANDOMIZATIONS, n - 1))
        means, n_eval = _lattice_means(cho, tlo, thi, n_points, shifts)
        used += n_eval
        vi = float(means.mean())
        ei = 3.0 * float(means.std(ddof=1)) / math.sqrt(N_RANDOMIZATIONS)
        if not math.isfinite(err):
            value, err = vi, ei
        elif ei > 0.0:
            # Inverse-variance combination with earlier stages.
            wt = 1.0 / (1.0 + (ei / err) ** 2) if err > 0.0 else 1.0
            value += wt * (vi - value)
            err = math.sqrt(wt) * ei
        else:
            value, err = vi, ei
        reached = err <= tol * max(abs(value), 1e-300)
        if reached or used >= max_samples:
            value = min(max(value, 0.0), 1.0)
            err = max(0.0, min(err, value + 1e-12, 1.0 - value + 1e-12))
            return CdfEstimate(value, err, used, reached)
        n_points *= 2


def cdf_rectangles(
    problem: MvnProblem,
    rect: Rectangle,
    seeds,
    tol: float = DEFAULT_CDF_TOL,
    max_samples: int = DEFAULT_MAX_SAMPLES,
) -> list[CdfEstimate]:
    """:func:`cdf_rectangle` for every row of a batch with one covariance.

    ``problem.mean`` and the bounds of ``rect`` broadcast to ``(B, n)``
    with ``B = len(seeds)``, so one rectangle may serve a batch of means
    and one mean a batch of rectangles. Row ``i`` is integrated with seed
    ``seeds[i]`` on the shared factorization; an empty batch gives ``[]``.
    """
    seeds = list(seeds)
    shape = (len(seeds), problem.dim)
    try:
        rows = [np.broadcast_to(a, shape) for a in (problem.mean, rect.lower, rect.upper)]
    except ValueError:
        raise DimMismatch(f"{problem.mean.shape} and {rect.lower.shape} vs {shape}") from None
    return [
        cdf_rectangle(problem.with_mean(mean), Rectangle(lo, hi), tol, max_samples, seed)
        for mean, lo, hi, seed in zip(*rows, seeds)
    ]


# ---------------------------------------------------------------------------
# Tail cutoff
# ---------------------------------------------------------------------------


def truncation_bound(k: float) -> float:
    """Upper bound ``exp(-k^2/2) / (k sqrt(2 pi))`` on one clipped tail.

    This is the Mills-ratio bound on the normal mass beyond ``k`` standard
    deviations on one side; it bounds the per-coordinate mass discarded
    when an infinite rectangle end is clipped at ``mean +/- k*sd``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    return math.exp(-0.5 * k * k) / (k * _SQRT_TWO_PI)


def clip_rectangle(rect: Rectangle, problem: MvnProblem, k: float) -> Rectangle:
    """Clip infinite rectangle ends at ``mean_j +/- k * sd_j``.

    If clipping would empty a coordinate (mean far outside the rectangle),
    the window for that coordinate is re-centred on the rectangle-projected
    mean, which keeps it nonempty, and its flat index is recorded in
    ``widened``. Batched problems and rectangles clip row by row.
    """
    _batch_shape(problem, rect)
    sd = np.sqrt(np.diag(problem.cov))
    lo = np.maximum(rect.lower, problem.mean - k * sd)
    hi = np.minimum(rect.upper, problem.mean + k * sd)
    empty = lo >= hi
    c = np.clip(problem.mean, rect.lower, rect.upper)
    lo = np.where(empty, np.maximum(rect.lower, c - k * sd), lo)
    hi = np.where(empty, np.minimum(rect.upper, c + k * sd), hi)
    return Rectangle(lo, hi, tuple(int(i) for i in np.flatnonzero(empty)))


# ---------------------------------------------------------------------------
# Truncated Gibbs sampling
# ---------------------------------------------------------------------------


def _trunc_std_normal(rng: np.random.Generator, u, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One draw per entry of a standard normal conditioned on ``[a, b]``.

    Intervals above zero are mirrored below it, where ``ndtr`` keeps full
    relative precision. The inverse CDF of ``u`` (one uniform per entry)
    gives the bulk draws; intervals beyond ``_FAR_TAIL`` standard
    deviations, where the inverse CDF loses precision, use
    translated-exponential rejection (Robert's method) with draws from
    ``rng``, repeated for the entries still pending.
    """
    flip = a > 0
    lo, hi = np.where(flip, -b, a), np.where(flip, -a, b)
    p_lo = ndtr(lo)
    z = ndtri(p_lo + (ndtr(hi) - p_lo) * u)
    tail = np.flatnonzero(hi <= -_FAR_TAIL)
    # Rejection on the upper-tail interval [ta, tb], negated back below zero.
    ta, tb = -hi[tail], -lo[tail]
    lam = 0.5 * (ta + np.sqrt(ta * ta + 4.0))
    cap = -np.expm1(-lam * (tb - ta))
    pending = np.arange(tail.size)
    while pending.size:
        v = rng.random((2, pending.size))
        cand = ta[pending] - np.log1p(-v[0] * cap[pending]) / lam[pending]
        ok = np.log(v[1] + 1e-300) <= -0.5 * (cand - lam[pending]) ** 2
        z[tail[pending[ok]]] = -cand[ok]
        pending = pending[~ok]
    return np.where(flip, -z, z)


def sample_truncated(problem: MvnProblem, rect: Rectangle, cfg: SamplerConfig) -> np.ndarray:
    """Draw about ``cfg.n_samples`` from ``problem`` restricted to ``rect``.

    A systematic-scan Gibbs sampler: coordinate ``j`` is redrawn from its
    univariate normal conditional (precision parameterization, with the
    precision matrix computed once from the Cholesky factor), truncated to
    ``[rect.lower[j], rect.upper[j]]``. Each observation of a batch runs
    ``cfg.chains`` chains from its rectangle-projected mean; all chains of
    all observations advance as one array, looping only over coordinates.
    Returns ``batch + (chains * per_chain, n)`` draws, chain-major, with
    ``per_chain = ceil(n_samples / chains)``; deterministic given
    ``cfg.rng_seed``.

    The rectangle should already be clipped to finite bounds via
    :func:`clip_rectangle`; infinite bounds are accepted but slow the
    far-tail draws.
    """
    batch = _batch_shape(problem, rect)
    n = problem.dim
    q = problem.precision
    if not np.all(np.isfinite(q)):
        raise SingularCovariance("precision matrix is not finite")
    chains = cfg.chains
    kept = -(-cfg.n_samples // chains)
    rng = np.random.default_rng(cfg.rng_seed)

    def per_row(a):
        # (n, rows): coordinate-major so each update touches one contiguous row.
        a = np.broadcast_to(a, batch + (n,)).reshape(-1, n)
        return np.repeat(a, chains, axis=0).T.copy()

    mu, lo, hi = per_row(problem.mean), per_row(rect.lower), per_row(rect.upper)
    # Open-interval clamp targets so rounding cannot park a draw on a bound.
    lo_in = np.nextafter(lo, np.inf)
    hi_in = np.nextafter(hi, -np.inf)
    cond_var = 1.0 / np.diag(q)
    cond_sd = np.sqrt(cond_var)
    q_off = q - np.diag(np.diag(q))

    # Rectangle-projected mean as the starting state.
    x = np.clip(mu, lo, hi)
    dx = x - mu
    out = np.empty((kept, n, x.shape[1]))
    burn, thin = cfg.burn_in_sweeps, cfg.thinning
    for sweep in range(1, burn + kept * thin + 1):
        u = rng.random(x.shape)
        for j in range(n):
            cm = mu[j] - cond_var[j] * (q_off[j] @ dx)
            cs = cond_sd[j]
            z = _trunc_std_normal(rng, u[j], (lo[j] - cm) / cs, (hi[j] - cm) / cs)
            x[j] = np.clip(cm + cs * z, lo_in[j], hi_in[j])
            dx[j] = x[j] - mu[j]
        if sweep > burn and (sweep - burn) % thin == 0:
            out[(sweep - burn) // thin - 1] = x
    # (kept, n, batch * chains) -> batch + (chains * kept, n), chain-major.
    out = out.reshape(kept, n, -1, chains).transpose(2, 3, 0, 1)
    return out.reshape(batch + (chains * kept, n))
