"""Memory-efficient label-smoothed cross-entropy with oracles, calibration
metrics, and softmax entropy-floor analysis."""

from .tensors import (
    DenseMatrix,
    TokenSequence,
    BlockPlan,
    load_matrix,
    save_matrix,
    load_tokens,
    save_tokens,
    random_instance,
    plan_blocks,
)
from .reductions import softmax, logit_distance, kl_uniform
from .reference import (
    LossOutput,
    Gradients,
    naive_forward,
    naive_backward,
    finite_diff_grad,
)
from .blocked import (
    blocked_forward,
    blocked_backward,
    loss_and_grad,
)
from .memtrack import MemoryStats
from .calibration import (
    CalibrationSet,
    BinStats,
    ingest_records,
    bin_records,
    ece,
    rms_ce,
    sce,
    ace,
    reliability_data,
)
from .entropy import (
    BoundParams,
    norm_bound,
    entropy_lower_bound,
    minimizer_logits,
    numeric_min_entropy,
    normalized_gap,
    effective_params,
)

__version__ = "0.1.0"
