"""tailspin: two-stage learning under class imbalance and label noise.

Self-supervised pretraining (SimSiam, SimCLR, BYOL, Barlow Twins) over a
small autodiff core, followed by fine-tuning a projection head with a
logit-adjusted loss wrapped in SuperLoss, plus the corruption simulators
and evaluation metrics needed to verify the approach at desk scale.
"""

from .data import (
    AugmentationSpec,
    Dataset,
    ImbalanceSpec,
    NoiseSpec,
    apply_exponential_imbalance,
    augment,
    estimate_priors,
    exponential_profile,
    generate_synthetic,
    inject_symmetric_noise,
)
from .errors import (
    ConfigError,
    ContractError,
    NumericError,
    OracleError,
    ShapeError,
    TailspinError,
    TapeError,
    ValidationError,
)
from .evaluation import (
    AccuracyReport,
    KNNConfig,
    MetricsRecord,
    accuracy_suite,
    embed,
    export_embeddings,
    knn_classify,
)
from .losses import (
    ConfidenceReport,
    Priors,
    SuperLossParams,
    batch_loss,
    lambert_w0,
    superloss_sigma,
)
from .nn import Linear, Mlp, Model, build_model, ema_update
from .optim import Adam, OptimizerConfig, ScheduleConfig, Sgd, lr_at, make_optimizer, scaled_lr
from .pipeline import (
    FinetuneSettings,
    PretrainSettings,
    build_finetune_head,
    finetune,
    make_datasets,
    pretrain,
    run_single_stage,
    select_freeze_policy,
)
from .ssl import SSLMethod, barlow_twins_loss, nt_xent_loss, pretrain_epoch, simsiam_loss
from .tensor import Tape, Tensor, finite_diff_check, l2_normalize, log_sum_exp

__version__ = "0.1.0"
