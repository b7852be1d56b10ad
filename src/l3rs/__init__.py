"""Layer-wise learned optimizer: per-component blending of normalized base
optimizer directions with learned step magnitudes, meta-trained by natural
evolution strategies over distributions of fine-tuning tasks."""

from .controller import (
    ControllerContext,
    EmaTracker,
    MetaParams,
    PsiLayout,
    Variant,
    compose_update,
    controller_forward_batch,
    flatten,
    init_meta_params,
    load_psi,
    save_psi,
    time_features,
    unflatten,
)
from .meta import (
    NesConfig,
    NesState,
    Task,
    TaskDistributionSpec,
    inner_loop_batch,
    inner_loop_eval,
    make_task,
    meta_train,
    nes_generation,
    pretrain_checkpoint,
    shaped_utilities,
)
from .nnlite import (
    Batch,
    DivergenceError,
    NetworkSpec,
    accuracy,
    forward,
    init_params,
    loss_and_grad,
)
from .optdir import DirectionBank, OptimizerKind, segment_norms

__version__ = "0.1.0"
