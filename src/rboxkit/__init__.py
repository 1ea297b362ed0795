"""Library for rotated-box text-detection tooling.

Geometry primitives, anchor target generation and decoding, the multi-task
loss suite, polygon NMS and detection/proposal evaluation, plus annotation
file parsers and a CLI (``rboxkit --help``).
"""

from .decode import (
    AnchorStats,
    PredictionMaps,
    anchor_statistics,
    decode_anchors,
    ideal_predictions,
    load_prediction_maps,
    polygon_nms,
    save_prediction_maps,
)
from .evalkit import (
    EvalReport,
    RecallReport,
    match_detections,
    proposal_recall,
    sweep_report,
)
from .geom import (
    AugmentTransform,
    Detections,
    GroundTruthItem,
    Point2,
    Proposal,
    Quad,
    RotatedBox,
    angle_distance,
    angle_to_unit,
    apply_rotation,
    box_corners,
    canonicalize_angle,
    quad_to_rotated_box,
    rotate_box,
    rotated_box_to_quad,
    unit_to_angle,
)
from .losses import (
    LossValue,
    LossWeights,
    MapLosses,
    angle_loss,
    conf_loss,
    focal_loss,
    map_losses,
    shape_loss,
    smooth_l1,
    total_loss,
)
from .polyiou import box_array, iou, iou_matrix, iou_oracle
from .targets import (
    LevelSpec,
    ShapeCandidateSet,
    ShrinkParams,
    TargetMaps,
    assign_level,
    cell_center,
    enumerate_candidates,
    generate_targets,
    load_target_maps,
    make_levels,
    save_target_maps,
    shape_decode,
    shape_encode,
)

__version__ = "0.1.0"
