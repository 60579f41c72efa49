"""regionkit: region features, region tokens, retrieval detection, and a synthetic benchmark world."""

from .roialign import Box, RoiConfig
from .regionenc import Connector, connector_backward, connector_forward, positional_embedding_matrix
from .tokenproto import (
    BareRegionRef,
    GroundedResponse,
    GroundedSpan,
    ParseError,
    Text,
    parse_grounded,
    serialize_grounded,
)
from .retrieval import (
    Detection,
    decode_detections,
    detect_then_count,
    grounded_to_detections,
    score_matrix,
)
from .simworld import (
    EncoderConfig,
    ProposalSimConfig,
    Scene,
    SceneConfig,
    generate_scene,
    make_training_set,
    simulate_opn,
    vocabulary,
)
from .metrics import EvalReport, box_recall, coco_map, counting_accuracy, iou
from .config import ExperimentConfig
from .training import ModelParams, TrainingDivergence, grad_check, train
from .baseline import regression_baseline_eval, train_baseline
from .experiments import run_ablations, run_benchmark

__version__ = "0.1.0"
