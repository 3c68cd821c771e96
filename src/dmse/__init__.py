"""Joint presence-absence modeling of many species.

A latent multivariate-probit model whose per-species means come from a
learned embedding of environmental features (optionally through a small
tanh network) and whose inter-species correlation matrix comes from
normalized interaction embeddings. Training maximizes the exact joint
likelihood with Monte-Carlo gradient estimates.
"""

from .dataio import (
    Dataset,
    GroundTruth,
    SynthSpec,
    apply_standardization,
    filter_top_species,
    load_csv,
    load_features_csv,
    save_csv,
    standardize,
    synth_from_truth,
    synth_generate,
)
from .evaluation import EvalReport, auc, evaluate
from .gradients import GradientBundle, MuSigmaGrad, assemble_bundle, grad_mu_sigma, score_F, score_G
from .checkpoint import load_checkpoint, save_checkpoint
from .mlp import MlpParams, MlpTape, mlp_backward, mlp_forward, mlp_init
from .model import (
    FeatureStandardization,
    ModelParams,
    init_model_params,
    log_likelihood,
    mu_forward,
    predict_marginal,
    sigma_from_lambda,
)
from .mvn import (
    CdfEstimate,
    MvnProblem,
    Rectangle,
    SamplerConfig,
    cdf_rectangle,
    cdf_rectangles,
    cholesky,
    clip_rectangle,
    mvn_logpdf,
    mvn_pdf,
    sample_truncated,
    truncation_bound,
)
from .training import AdagradState, TrainConfig, TrainingLog, adagrad_step, kfold_split, train

__version__ = "0.1.0"
