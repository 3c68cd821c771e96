"""Independent oracles used to pin expected values.

Everything here deliberately avoids the package's own integration and
sampling paths: probabilities come from dense tensor-product quadrature of
the closed-form density, from a one-dimensional integral over the common
factor of an equicorrelated normal, or from brute-force rejection sampling,
and gradients come from central finite differences; the gradient of
Botev's tilting objective is taken in 50-digit arithmetic. The oracles are
themselves cross-checked against closed forms in test_oracles.py.

Three are reference copies of earlier, plainer versions of the package's
internals, which pin the optimized ones bit for bit:
:func:`ordered_cholesky_loop` (the per-candidate, per-row loop of the
variable ordering), :func:`lattice_means_dense` (the lattice pass with
every point of every shift materialized at once) and
:func:`sample_truncated_reference` (the Gibbs sampler with a fresh array
for every step of every coordinate update).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr, ndtri

# Common-factor grid of :func:`equicorrelated_log_prob`: wide enough for
# latent means of 20 sd, and a step at which the trapezoid error of the
# Gaussian-decaying integrand is far below 1e-12 relative.
_Z = np.linspace(-40.0, 40.0, 8001)
_LOG_W = -0.5 * _Z * _Z - 0.5 * math.log(2.0 * math.pi) + math.log(0.01)


def bvn_orthant(rho: float) -> float:
    """P(X > 0, Y > 0) for a standard bivariate normal: 1/4 + asin(rho)/(2 pi)."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def equicorrelated_log_prob(mu, bits, rho: float) -> float:
    """``log P(b)`` of presence pattern ``bits`` for a latent ``N(mu, Sigma)``
    with unit variances and every correlation ``rho`` in ``[0, 1)``.

    ``X_j = mu_j + sqrt(rho) Z + sqrt(1 - rho) E_j`` with independent
    standard normals, so given ``Z`` the species are independent and
    ``P(b) = int phi(z) prod_j Phi(s_j (mu_j + sqrt(rho) z) / sqrt(1 - rho)) dz``
    with ``s_j = 2 b_j - 1``. A trapezoid rule in log space keeps ``log P``
    exact far below the float range.
    """
    signs = 2.0 * np.asarray(bits, dtype=float) - 1.0
    mu = np.asarray(mu, dtype=float)
    arg = signs[:, None] * (mu[:, None] + math.sqrt(rho) * _Z) / math.sqrt(1.0 - rho)
    return float(logsumexp(log_ndtr(arg).sum(axis=0) + _LOG_W))


def quadrature_rectangle(mean, cov, lower, upper, nodes: int = 80, clip_sd: float = 9.0) -> float:
    """Dense Gauss-Legendre tensor quadrature of the normal density, n <= 3.

    Infinite bounds are clipped at ``clip_sd`` marginal standard deviations
    (mass beyond 9 sd is ~1e-19 per side, far below the accuracy of
    interest).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = mean.shape[0]
    sd = np.sqrt(np.diag(cov))
    a = np.maximum(lower, mean - clip_sd * sd)
    b = np.minimum(upper, mean + clip_sd * sd)
    if np.any(a >= b):
        return 0.0
    if n == 1:
        s = sd[0]
        return float(ndtr((b[0] - mean[0]) / s) - ndtr((a[0] - mean[0]) / s))

    q = np.linalg.inv(cov)
    norm_const = 1.0 / math.sqrt((2.0 * math.pi) ** n * np.linalg.det(cov))
    pts, wts = [], []
    for j in range(n):
        t, w = np.polynomial.legendre.leggauss(nodes)
        pts.append(0.5 * (b[j] - a[j]) * t + 0.5 * (b[j] + a[j]) - mean[j])
        wts.append(0.5 * (b[j] - a[j]) * w)
    if n == 2:
        x = pts[0][:, None]
        y = pts[1][None, :]
        quad = q[0, 0] * x * x + q[1, 1] * y * y + 2 * q[0, 1] * x * y
        dens = norm_const * np.exp(-0.5 * quad)
        return float(np.einsum("ij,i,j->", dens, wts[0], wts[1]))
    if n == 3:
        x = pts[0][:, None, None]
        y = pts[1][None, :, None]
        z = pts[2][None, None, :]
        quad = (
            q[0, 0] * x * x + q[1, 1] * y * y + q[2, 2] * z * z
            + 2 * q[0, 1] * x * y + 2 * q[0, 2] * x * z + 2 * q[1, 2] * y * z
        )
        dens = norm_const * np.exp(-0.5 * quad)
        return float(np.einsum("ijk,i,j,k->", dens, wts[0], wts[1], wts[2]))
    raise ValueError("quadrature oracle supports n <= 3 only")


def rejection_truncated(mean, cov, lower, upper, n_draws: int, seed: int) -> np.ndarray:
    """Draws from N(mean, cov) conditioned on the rectangle, by rejection."""
    mean = np.asarray(mean, dtype=float)
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    out = []
    total = 0
    while total < n_draws:
        z = rng.standard_normal((100_000, mean.shape[0]))
        draws = mean + z @ chol.T
        keep = draws[np.all((draws > lower) & (draws < upper), axis=1)]
        out.append(keep)
        total += keep.shape[0]
    return np.vstack(out)[:n_draws]


def all_patterns(n: int):
    """All 2^n presence/absence patterns as int arrays."""
    return [np.array(bits, dtype=np.int8) for bits in itertools.product((0, 1), repeat=n)]


def random_correlation(rng: np.random.Generator, n: int, strength: float = 1.0) -> np.ndarray:
    """Random unit-diagonal SPD matrix via a normalized Gram product."""
    a = rng.normal(size=(n + 2, n)) + strength * rng.normal(size=(1, n))
    a /= np.linalg.norm(a, axis=0)
    sigma = a.T @ a
    np.fill_diagonal(sigma, 1.0)
    return sigma


def batch_se(values: np.ndarray, n_batches: int = 32) -> np.ndarray:
    """Batch-means standard error of the mean along axis 0."""
    m = values.shape[0]
    n_batches = min(n_batches, m)
    usable = (m // n_batches) * n_batches
    batches = values[:usable].reshape(n_batches, usable // n_batches, *values.shape[1:])
    means = batches.mean(axis=1)
    return means.std(axis=0, ddof=1) / math.sqrt(n_batches)


def ordered_cholesky_loop(cov, lower, upper, singular_tol=1e-10):
    """Reference ordering: ``(cho, lo, hi)`` by explicit Python loops.

    Greedy Genz ordering with the ``<=`` tie rule (the last candidate of
    smallest conditional mass wins) and a row-by-row Schur update.
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
                y[k] = (el - eh) / (math.sqrt(2.0 * math.pi) * dem)
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


def lattice_means_dense(cho, lo, hi, gen, n_points, shifts, mu=None):
    """Reference lattice pass: ``(R,)`` shift means over all points at once.

    ``gen`` is the lattice generator for exactly ``n_points`` points; every
    bound goes through ``ndtr``, infinite or not. A tilt ``mu`` draws
    coordinate ``k`` shifted by ``mu_k`` and adds
    ``-mu_k^2 / 2 - mu_k y_k`` to each point's log weight, one coordinate
    at a time.
    """
    n = cho.shape[0]
    dim = n - 1
    mu = np.zeros(dim) if mu is None else np.asarray(mu)
    lo = lo - cho[:, :dim] @ mu
    hi = hi - cho[:, :dim] @ mu
    k = np.arange(1, n_points + 1, dtype=float)[:, None]
    base = (k * np.asarray(gen)[None, :]) % 1.0
    r = shifts.shape[0]
    w = (base[None, :, :] + shifts[:, None, :]) % 1.0
    x = np.abs(2.0 * w - 1.0).reshape(r * n_points, dim)
    c = np.full(r * n_points, ndtr(lo[0]))
    d = np.full(r * n_points, ndtr(hi[0]))
    pv = d - c
    y = np.empty((dim, r * n_points))
    for i in range(1, n):
        u = c + x[:, i - 1] * (d - c)
        y[i - 1] = ndtri(np.clip(u, 5e-324, 1.0 - 1e-16))
        s = cho[i, :i] @ y[:i]
        c = ndtr(lo[i] - s)
        d = ndtr(hi[i] - s)
        pv = pv * (d - c)
    if mu.any():
        log_w = np.zeros(r * n_points)
        for k in range(dim):
            log_w -= 0.5 * mu[k] ** 2 + mu[k] * y[k]
        with np.errstate(divide="ignore"):
            pv = np.exp(np.log(pv) + log_w)
    return pv.reshape(r, n_points).mean(axis=1)


def botev_gradient(cho, lo, hi, x, mu):
    """Gradient of Botev's ``psi(x, mu)`` on an ordering, ``(d/dx, d/dmu)``.

    ``psi = sum_k mu_k^2 / 2 - x_k mu_k + log(Phi(u_k) - Phi(l_k))`` with
    ``l_k = lo_k - mu_k - sum_{j<k} cho_kj x_j`` (``u_k`` alike) and
    ``x_{n-1} = mu_{n-1} = 0``. Each ``d/dmu_k log(Phi(u_k) - Phi(l_k))`` is
    taken in 50-digit arithmetic, so no tail cancels.
    """
    import mpmath  # installed with sympy; only this oracle needs it

    n = len(lo)
    xf, muf = np.append(x, 0.0), np.append(mu, 0.0)
    p = np.zeros(n)
    with mpmath.workdps(50):
        for k in range(n):
            s = sum(float(cho[k, j]) * xf[j] for j in range(k))
            a, b = (mpmath.mpf(float(v)) - muf[k] - s for v in (lo[k], hi[k]))
            mass = mpmath.ncdf(b) - mpmath.ncdf(a)
            p[k] = float((mpmath.npdf(a) - mpmath.npdf(b)) / mass)
    m = n - 1
    d_x = np.array([sum(cho[k, j] * p[k] for k in range(j + 1, n)) for j in range(m)]) - mu
    return d_x, mu - x + p[:m]


def _trunc_std_normal_reference(rng, u, a, b):
    """One draw per entry of a standard normal conditioned on ``[a, b]``:
    inverse CDF in the bulk, Robert's rejection past 4 standard deviations.
    Every interval with ``b = inf`` is mirrored to ``[-b, -a]``, so a
    half-line is always drawn below its finite end."""
    flip = b == np.inf
    lo, hi = np.where(flip, -b, a), np.where(flip, -a, b)
    p_lo = ndtr(lo)
    z = ndtri(p_lo + (ndtr(hi) - p_lo) * u)
    tail = np.flatnonzero(hi <= -4.0)
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


def sample_truncated_reference(problem, rect, cfg, seed):
    """Reference Gibbs sampler: ``dmse.mvn.sample_truncated``'s systematic
    scan and random stream, written with a new array for every operation
    and the rejection step run on every coordinate, hits or not."""
    batch = np.broadcast_shapes(problem.mean.shape, rect.lower.shape)[:-1]
    n = problem.dim
    q = problem.precision
    chains = cfg.chains
    kept = -(-cfg.n_samples // chains)
    rng = np.random.default_rng(seed)

    def per_row(a):
        a = np.broadcast_to(a, batch + (n,)).reshape(-1, n)
        return np.repeat(a, chains, axis=0).T.copy()

    mu, lo, hi = per_row(problem.mean), per_row(rect.lower), per_row(rect.upper)
    lo_in = np.nextafter(lo, np.inf)
    hi_in = np.nextafter(hi, -np.inf)
    cond_var = 1.0 / np.diag(q)
    cond_sd = np.sqrt(cond_var)
    q_off = q - np.diag(np.diag(q))
    x = np.clip(mu, lo, hi)
    dx = x - mu
    out = np.empty((kept, n, x.shape[1]))
    burn, thin = cfg.burn_in_sweeps, cfg.thinning
    for sweep in range(1, burn + kept * thin + 1):
        u = rng.random(x.shape)
        for j in range(n):
            cm = mu[j] - cond_var[j] * (q_off[j] @ dx)
            cs = cond_sd[j]
            z = _trunc_std_normal_reference(rng, u[j], (lo[j] - cm) / cs, (hi[j] - cm) / cs)
            x[j] = np.clip(cm + cs * z, lo_in[j], hi_in[j])
            dx[j] = x[j] - mu[j]
        if sweep > burn and (sweep - burn) % thin == 0:
            out[(sweep - burn) // thin - 1] = x
    out = out.reshape(kept, n, -1, chains).transpose(2, 3, 0, 1)
    return out.reshape(batch + (chains * kept, n))
