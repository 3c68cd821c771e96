"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure). Expected values come from closed forms, dense quadrature,
finite differences, or ground-truth synthetic generators; Monte-Carlo
comparisons use three standard errors plus the oracle's own noise floor.
"""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import ndtr

from dmse.cli import main as cli_main
from dmse.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from dmse.dataio import (
    SynthSpec,
    apply_standardization,
    synth_from_truth,
    synth_generate,
)
from dmse.evaluation import evaluate
from dmse.gradients import assemble_bundle, grad_mu_sigma
from dmse.mlp import mlp_backward, mlp_forward, mlp_init
from dmse.model import (
    FeatureStandardization,
    ModelParams,
    log_likelihood,
    mu_forward,
    sigma_from_lambda,
)
from dmse.mvn import MvnProblem, Rectangle, SamplerConfig, cdf_rectangle
from dmse.training import TrainConfig, train
from oracles import all_patterns, bvn_orthant, quadrature_rectangle, random_correlation


def report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def fd_allowance(h: float, tol: float) -> float:
    """Central-difference oracle noise: integration error plus truncation."""
    return 2.0 * tol / h + 10.0 * h * h


# ---------------------------------------------------------------------------
# 1. Rectangle-probability oracle agreement
# ---------------------------------------------------------------------------


def test_01_mvn_cdf_oracle():
    rng = np.random.default_rng(101)
    worst2 = 0.0
    for k in range(25):
        mean = rng.uniform(-1.0, 1.0, 2)
        sds = rng.uniform(0.5, 2.0, 2)
        rho = rng.uniform(-0.95, 0.95)
        cov = np.array([
            [sds[0] ** 2, rho * sds[0] * sds[1]],
            [rho * sds[0] * sds[1], sds[1] ** 2],
        ])
        problem = MvnProblem(mean, cov)
        # Orthant anchored at the mean: exactly the centered orthant mass.
        rect = Rectangle(mean, np.array([np.inf, np.inf]))
        est = cdf_rectangle(problem, rect, tol=1e-6, seed=k)
        worst2 = max(worst2, abs(est.value - bvn_orthant(rho)))
    ok2 = worst2 <= 1e-5

    worst3 = 0.0
    for k in range(10):
        cov = random_correlation(rng, 3)
        sds = rng.uniform(0.6, 1.8, 3)
        cov = cov * np.outer(sds, sds)
        mean = rng.normal(size=3) * 0.5
        bits = rng.integers(0, 2, 3)
        rect = Rectangle.from_presence(bits)
        problem = MvnProblem(mean, cov)
        est = cdf_rectangle(problem, rect, tol=1e-6, seed=100 + k)
        oracle = quadrature_rectangle(mean, cov, rect.lower, rect.upper, nodes=96)
        worst3 = max(worst3, abs(est.value - oracle))
    ok3 = worst3 <= 1e-5
    report(
        1,
        "rectangle probabilities match closed form (n=2) and quadrature (n=3) within 1e-5",
        ok2 and ok3,
        f"max dev n=2 {worst2:.2e}, n=3 {worst3:.2e}",
    )


# ---------------------------------------------------------------------------
# 2. Monte-Carlo gradients of log Pr match finite differences
# ---------------------------------------------------------------------------


def _fd_mu(mean, cov, rect, h, tol, seed0):
    out = np.empty(len(mean))
    for j in range(len(mean)):
        e = np.zeros(len(mean))
        e[j] = h
        up = cdf_rectangle(MvnProblem(mean + e, cov), rect, tol=tol, seed=seed0 + 2 * j)
        dn = cdf_rectangle(MvnProblem(mean - e, cov), rect, tol=tol, seed=seed0 + 2 * j + 1)
        out[j] = (math.log(up.value) - math.log(dn.value)) / (2 * h)
    return out


def _fd_sigma(mean, cov, rect, h, tol, seed0):
    n = len(mean)
    out = np.empty((n, n))
    s = seed0
    for j in range(n):
        for t in range(j, n):
            pert = np.zeros((n, n))
            pert[j, t] = h
            pert[t, j] = h
            up = cdf_rectangle(MvnProblem(mean, cov + pert), rect, tol=tol, seed=s)
            dn = cdf_rectangle(MvnProblem(mean, cov - pert), rect, tol=tol, seed=s + 1)
            fd = (math.log(up.value) - math.log(dn.value)) / (2 * h)
            out[j, t] = out[t, j] = fd if j == t else fd / 2.0
            s += 2
    return out


def test_02_gradient_estimators_match_finite_differences():
    rng = np.random.default_rng(202)
    # The oracle noise floor 2*tol/h ~ 1e-3 stays an order of magnitude
    # below the 3-SE tolerances at M = 1e5.
    h, tol = 1e-3, 5e-7
    allowance = fd_allowance(h, tol)
    failures = []
    worst = 0.0

    # Univariate cases against the analytic derivative phi(mu)/Phi(mu).
    for case, (mu0, bit) in enumerate([(0.0, 1), (-0.4, 0)]):
        problem = MvnProblem([mu0], [[1.0]])
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1,
                            rng_seed=1000 + case)
        out = grad_mu_sigma(problem, Rectangle.from_presence([bit]), cfg)
        sign = 1.0 if bit == 1 else -1.0
        z = sign * mu0
        exact = sign * math.exp(-0.5 * mu0 * mu0) / math.sqrt(2 * math.pi) / ndtr(z)
        dev = abs(out.d_mu[0] - exact)
        worst = max(worst, dev / (3 * out.se_mu[0] + 1e-12))
        if dev > 3 * out.se_mu[0]:
            failures.append(f"n=1 case {case}")

    # Multivariate cases against finite differences of the integrator.
    cases = [2, 2, 2, 2, 3, 3, 3, 3]
    for case, n in enumerate(cases):
        cov = random_correlation(rng, n)
        mean = rng.normal(size=n) * 0.4
        bits = rng.integers(0, 2, n)
        rect = Rectangle.from_presence(bits)
        problem = MvnProblem(mean, cov)
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1,
                            rng_seed=2000 + case)
        out = grad_mu_sigma(problem, rect, cfg)
        fd_mu = _fd_mu(mean, cov, rect, h, tol, seed0=3000 + 100 * case)
        fd_sig = _fd_sigma(mean, cov, rect, h, tol, seed0=5000 + 100 * case)
        dev_mu = np.abs(out.d_mu - fd_mu) - (3 * out.se_mu + allowance)
        dev_sig = np.abs(out.d_sigma - fd_sig) - (3 * out.se_sigma + allowance)
        worst = max(
            worst,
            float(np.max(np.abs(out.d_mu - fd_mu) / (3 * out.se_mu + allowance))),
            float(np.max(np.abs(out.d_sigma - fd_sig) / (3 * out.se_sigma + allowance))),
        )
        if np.any(dev_mu > 0) or np.any(dev_sig > 0):
            failures.append(f"n={n} case {case}")

    report(
        2,
        "mean/covariance gradients match FD oracles within 3 MC standard errors",
        not failures,
        f"worst normalized deviation {worst:.2f}" + (f"; failed: {failures}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 3. End-to-end parameter gradients on a tiny model
# ---------------------------------------------------------------------------


def test_03_end_to_end_parameter_gradients():
    params = ModelParams(
        species_names=["a", "b"],
        feature_names=["x", "y", "z"],
        S=np.random.default_rng(31).normal(size=(4, 2)) * 0.5,
        Lambda_raw=np.random.default_rng(32).normal(size=(4, 2)),
        W=np.random.default_rng(33).normal(size=(4, 3)) * 0.5,
        mlp=mlp_init((3, 5, 5, 3), seed=34),
        standardization=FeatureStandardization.identity(3),
    )
    params.validate()
    b, l = np.array([1, 0]), np.array([0.4, -0.2, 0.8])
    h, tol = 1e-3, 1e-7
    allowance = fd_allowance(h, tol)

    mu, tape, hvec = mu_forward(params, l)
    sigma = sigma_from_lambda(params.Lambda_raw)
    problem = MvnProblem(mu, sigma)
    rect = Rectangle.from_presence(b)

    def flatten(bundle):
        parts = [bundle.d_S.ravel(), bundle.d_Lambda_raw.ravel(), bundle.d_W.ravel()]
        parts += [g.ravel() for g in bundle.d_mlp.weights]
        parts += [g.ravel() for g in bundle.d_mlp.biases]
        return np.concatenate(parts)

    reps = []
    for r in range(12):
        cfg = SamplerConfig(n_samples=10_000, burn_in_sweeps=40, thinning=1,
                            rng_seed=4000 + r)
        musig = grad_mu_sigma(problem, rect, cfg)
        reps.append(flatten(assemble_bundle(params, l, musig, tape, hvec)))
    flat = np.array(reps)
    est = flat.mean(axis=0)
    se = flat.std(axis=0, ddof=1) / math.sqrt(len(reps))

    tensors = [params.S, params.Lambda_raw, params.W]
    tensors += params.mlp.weights + params.mlp.biases
    fd = []
    eval_idx = 0
    for tensor in tensors:
        view = tensor.reshape(-1)
        for i in range(view.shape[0]):
            orig = view[i]
            view[i] = orig + h
            up = log_likelihood(params, [b], [l], tol=tol, seed=6000 + eval_idx)
            view[i] = orig - h
            dn = log_likelihood(params, [b], [l], tol=tol, seed=7000 + eval_idx)
            view[i] = orig
            fd.append((up - dn) / (2 * h))
            eval_idx += 1
    fd = np.array(fd)
    dev = np.abs(est - fd)
    bound = 3 * se + allowance
    ok = bool(np.all(dev <= bound))
    report(
        3,
        "every parameter gradient matches FD of the log-likelihood within 3 MC standard errors",
        ok,
        f"{fd.size} parameters, worst normalized deviation {float(np.max(dev / bound)):.2f}",
    )


# ---------------------------------------------------------------------------
# 4. Network gradient check
# ---------------------------------------------------------------------------


def test_04_mlp_gradient_check():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(20):
        params = mlp_init([4, 8, 8, 3], seed=trial)
        for b in params.biases:
            b[:] = rng.normal(size=b.shape) * 0.1
        x = rng.normal(size=4)
        grad_output = rng.normal(size=3)
        _, tape = mlp_forward(params, x)
        grads, _ = mlp_backward(params, tape, grad_output)
        h = 1e-5
        for store, gstore in ((params.weights, grads.weights), (params.biases, grads.biases)):
            for tensor, g in zip(store, gstore):
                view = tensor.reshape(-1)
                gview = g.reshape(-1)
                for i in range(view.shape[0]):
                    orig = view[i]
                    view[i] = orig + h
                    up, _ = mlp_forward(params, x)
                    view[i] = orig - h
                    dn, _ = mlp_forward(params, x)
                    view[i] = orig
                    fd = float(grad_output @ (up - dn)) / (2 * h)
                    worst = max(worst, abs(gview[i] - fd) / max(abs(fd), 1e-6))
    report(4, "network gradients match central differences to relative 1e-6",
           worst <= 1e-6, f"max relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Marginal invariance under correlations
# ---------------------------------------------------------------------------


def test_05_marginal_invariance():
    rng = np.random.default_rng(505)
    worst = 0.0
    sizes = [2, 2, 2, 3, 3, 3, 4, 4, 4, 4]
    for case, n in enumerate(sizes):
        sigma = random_correlation(rng, n)
        mu = rng.normal(size=n) * 0.7
        problem = MvnProblem(mu, sigma)
        probs = {}
        for k, pattern in enumerate(all_patterns(n)):
            probs[tuple(pattern)] = cdf_rectangle(
                problem, Rectangle.from_presence(pattern), tol=1e-5,
                seed=1000 * case + k,
            ).value
        for j in range(n):
            brute = sum(p for bits, p in probs.items() if bits[j] == 1)
            worst = max(worst, abs(brute - ndtr(mu[j])))
    report(
        5,
        "pattern-summed marginals equal probit marginals within 1e-4 for random correlations",
        worst <= 1e-4,
        f"max dev {worst:.2e} over {len(sizes)} matrices",
    )


# ---------------------------------------------------------------------------
# 6 & 7. Training recovers correlations; correlations pay off on held-out data
# ---------------------------------------------------------------------------


RECOVERY_CFG = dict(
    learning_rate=0.1,
    minibatch_size=64,
    epochs=5,
    cdf_tol=1e-2,
    eval_every=10_000,
    d1=8,
    d2=8,
    hidden_dims=(16, 16, 8),
)


def _train_rho(rho: float):
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    spec = SynthSpec(n_species=2, m_features=3, n_obs=5000, mu_map="linear",
                     true_sigma=sigma, mu_scale=1.5, seed=11)
    dataset, truth = synth_generate(spec)
    cfg = TrainConfig(
        sampler=SamplerConfig(n_samples=48, burn_in_sweeps=16, thinning=1),
        seed=123,
        **RECOVERY_CFG,
    )
    params, _ = train(dataset, cfg, init_seed=7)
    return params, truth


@pytest.fixture(scope="module")
def trained_by_rho():
    return {rho: _train_rho(rho) for rho in (0.7, 0.0, -0.7)}


def test_06_correlation_recovery(trained_by_rho):
    devs = {}
    for rho, (params, _) in trained_by_rho.items():
        learned = sigma_from_lambda(params.Lambda_raw)[0, 1]
        devs[rho] = abs(learned - rho)
    ok = all(d <= 0.15 for d in devs.values())
    report(
        6,
        "learned correlation within 0.15 of truth for rho in {-0.7, 0, 0.7}",
        ok,
        ", ".join(f"rho={r:+.1f}: dev {d:.3f}" for r, d in devs.items()),
    )


def test_07_joint_beats_independent_on_heldout(trained_by_rho):
    params, truth = trained_by_rho[0.7]
    heldout = synth_from_truth(truth, 2000, seed=9090)
    std = apply_standardization(heldout, params.standardization)
    sigma = sigma_from_lambda(params.Lambda_raw)
    shared = MvnProblem(np.zeros(2), sigma)
    diffs = np.empty(len(std))
    from scipy.special import log_ndtr

    for i, (b, l) in enumerate(zip(std.presence, std.features)):
        joint = log_likelihood(params, [b], [l], tol=1e-4, seed=i)
        mu, _, _ = mu_forward(params, l)
        indep = float(np.sum(log_ndtr((2.0 * b - 1.0) * mu)))
        diffs[i] = joint - indep
    mean_gap = float(diffs.mean())
    test = scipy_stats.ttest_1samp(diffs, 0.0, alternative="greater")
    ok = mean_gap > 0.01 and test.pvalue < 0.01
    report(
        7,
        "held-out joint log-likelihood beats the independent baseline by > 0.01 nats (paired p < 0.01)",
        ok,
        f"gap {mean_gap:.4f} nats/obs, p {test.pvalue:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. The network beats the linear embedding on a non-linear signal
# ---------------------------------------------------------------------------


def test_08_deep_beats_linear_on_radial_signal():
    spec = SynthSpec(n_species=1, m_features=2, n_obs=4000, mu_map="radial",
                     true_sigma=np.eye(1), mu_scale=2.5, seed=21)
    train_ds, truth = synth_generate(spec)
    heldout = synth_from_truth(truth, 2000, seed=9999)
    base = dict(
        learning_rate=0.1, minibatch_size=64, epochs=6,
        sampler=SamplerConfig(n_samples=32, burn_in_sweeps=12, thinning=1),
        cdf_tol=1e-2, seed=55, eval_every=10_000, d1=8, d2=4,
    )
    aucs = {}
    for name, hidden in (("network", (16, 16, 8)), ("linear", ())):
        cfg = TrainConfig(hidden_dims=hidden, **base)
        params, _ = train(train_ds, cfg, init_seed=3)
        aucs[name] = evaluate(params, heldout, cdf_tol=1e-3, seed=1).mean_auc
    gap = aucs["network"] - aucs["linear"]
    report(
        8,
        "held-out AUC of the network model exceeds the linear embedding by >= 0.05",
        gap >= 0.05,
        f"network {aucs['network']:.3f} vs linear {aucs['linear']:.3f}",
    )


# ---------------------------------------------------------------------------
# 9. Bit-level determinism
# ---------------------------------------------------------------------------


def test_09_determinism(tmp_path):
    data = tmp_path / "data.csv"
    spec_cfg = tmp_path / "synth.cfg"
    spec_cfg.write_text(
        "n_species = 2\nm_features = 2\nn_obs = 64\nrho = 0.4\nseed = 5\n",
        encoding="utf-8",
    )
    assert cli_main(["synth", "--spec-config", str(spec_cfg), "--out", str(data)]) == 0
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        "epochs = 1\nminibatch_size = 16\ncdf_tol = 1e-2\nd1 = 3\nd2 = 3\n"
        "hidden_dims = 4\nn_samples = 12\nburn_in_sweeps = 6\nthinning = 1\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "m1.dmse", tmp_path / "m2.dmse"
    for out in (out1, out2):
        assert cli_main(["train", "--data", str(data), "--config", str(train_cfg),
                         "--out", str(out), "--seed", "99"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    loaded = load_checkpoint(out1)
    roundtrip = checkpoint_bytes(loaded) == out1.read_bytes()
    resaved = tmp_path / "resaved.dmse"
    save_checkpoint(loaded, resaved)
    roundtrip = roundtrip and resaved.read_bytes() == out1.read_bytes()
    report(
        9,
        "repeated training and checkpoint round-trips are byte-identical",
        identical and roundtrip,
        f"train twice identical: {identical}, save-load-save identical: {roundtrip}",
    )


# ---------------------------------------------------------------------------
# 10. Joint distribution normalizes
# ---------------------------------------------------------------------------


def test_10_pattern_probabilities_normalize():
    rng = np.random.default_rng(1010)
    worst_ratio = 0.0
    for n in (2, 3, 4):
        sigma = random_correlation(rng, n)
        mu = rng.normal(size=n) * 0.6
        problem = MvnProblem(mu, sigma)
        tol = 1e-6 if n <= 3 else 1e-5
        total = sum(
            cdf_rectangle(problem, Rectangle.from_presence(p), tol=tol, seed=k).value
            for k, p in enumerate(all_patterns(n))
        )
        bound = 4 * tol * 2**n
        worst_ratio = max(worst_ratio, abs(total - 1.0) / bound)
    report(
        10,
        "probabilities over all presence patterns sum to 1 within 4*tol*2^n",
        worst_ratio <= 1.0,
        f"worst |sum-1| at {worst_ratio:.2f} of the bound",
    )
