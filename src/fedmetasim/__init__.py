"""Deterministic federated averaging / meta-learning simulator.

Implements federated averaging with pluggable server optimizers, step-counted
first-order meta-learning updates, a two-stage train-then-fine-tune driver,
per-client personalization evaluation, and exact numerical checks of how the
averaged round update decomposes into single-step and adapted-gradient terms.
"""

from .analysis import (
    decompose_round,
    fomaml_maml_gap,
    maml_gradient_oracle,
    replica_rows,
    rounds_to_threshold,
)
from .data import (
    ClientDataset,
    FederatedDataset,
    dataset_manifest,
    generate_synthetic,
    load_csv_dataset,
    split_train_eval,
)
from .errors import (
    CapacityError,
    CheckpointError,
    ConfigError,
    ContractViolation,
    DivergenceError,
    NumericError,
    ParseError,
    SchemaError,
)
from .federation import (
    EvalConfig,
    RoundConfig,
    RoundTrace,
    StageConfig,
    run_personalized_fedavg,
    run_round,
    run_stage,
    sample_clients,
)
from .model import (
    Batch,
    ModelSpec,
    forward_logits,
    forward_loss,
    gradient,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_trajectory,
    unflatten_params,
)
from .optimizers import (
    ClientOptimizerConfig,
    ServerOptimizerState,
    make_client_batches,
    server_apply,
)
from .personalization import (
    EvalSnapshot,
    PersonalizationConfig,
    epochs_sweep,
    eval_population,
    evaluate_accuracy,
    personalize,
)
from .rng import substream

__version__ = "0.1.0"
