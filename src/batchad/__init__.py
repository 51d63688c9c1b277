"""Zero-shot batch-level anomaly detection.

Detectors are meta-trained across a set of related data distributions with
batch-normalized networks; at test time a batch from an unseen distribution is
scored as-is, the normalization statistics of the batch itself doing the
adaptation work.
"""

__version__ = "0.1.0"

from .data import (
    GaussianMetaSpec,
    TabularSource,
    augment_with_permutations,
    generate_gaussian_metaset,
    load_tabular,
    one_vs_rest_split,
    save_metaset_csv,
)
from .evaluation import (
    EvalReport,
    auroc,
    collect_latents,
    evaluate,
    tv_distance_diagnostic,
)
from .model import Architecture, DetectorModel, load_checkpoint, save_checkpoint
from .scores import (
    ScoreVector,
    bce_scores,
    dsvdd_scores,
    meta_oe_loss,
    naive_bn_score,
    one_class_loss,
)
from .tasks import (
    MetaDataset,
    MixtureConfig,
    TaskBatch,
    build_contaminated_task,
    hoeffding_violation_bound,
    permute_attributes,
    sample_iteration_tasks,
)
from .training import TrainConfig, TrainReport, no_bn_trivial_loss_value, train

__all__ = [
    "Architecture",
    "DetectorModel",
    "EvalReport",
    "GaussianMetaSpec",
    "MetaDataset",
    "MixtureConfig",
    "ScoreVector",
    "TabularSource",
    "TaskBatch",
    "TrainConfig",
    "TrainReport",
    "auroc",
    "augment_with_permutations",
    "bce_scores",
    "build_contaminated_task",
    "collect_latents",
    "dsvdd_scores",
    "evaluate",
    "generate_gaussian_metaset",
    "hoeffding_violation_bound",
    "load_checkpoint",
    "load_tabular",
    "meta_oe_loss",
    "naive_bn_score",
    "no_bn_trivial_loss_value",
    "one_class_loss",
    "one_vs_rest_split",
    "permute_attributes",
    "sample_iteration_tasks",
    "save_checkpoint",
    "save_metaset_csv",
    "train",
    "tv_distance_diagnostic",
]
