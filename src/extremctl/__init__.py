"""extremctl: low-latency humanoid teleoperation toolkit.

Cartesian pose retargeting, oscillation-based impedance calibration,
PD control with velocity feedforward and analytic delay prediction,
signal/video latency estimation, and a deterministic streaming pipeline
harness tying them together.
"""

from .errors import ExtremControlError
from .se3 import ZeroVector, align_axis
from .mapping import (
    LINKS,
    CalibrationProfile,
    DegenerateHeadset,
    DegenerateNeutral,
    LinkSet,
    RobotModel,
    calibrate,
    heading_anchor,
    map_frame,
    map_frames,
    torso_from_headset,
)
from .plant import (
    DecoupledLinear,
    EpisodeRecord,
    GainSchedule,
    Infeasible,
    NumericalBlowup,
    PlanarChain,
    actuator_torque,
    equivalent_delay,
    frequency_response,
    held_joint_q,
    make_sinusoid,
    max_feedforward_ratio,
    plant_from_dict,
    run_episode,
    simulate_delay_curve,
    step,
    zoh_interval_overshoot,
)
from .impedance import (
    CalibrationConfig,
    ChainCalibration,
    ImpedanceEstimate,
    NoOscillation,
    calibrate_chain,
    estimate_meff,
    measure_period,
)
from .latency import (
    ConstantSignal,
    DimensionMismatch,
    FlowField,
    InsufficientOverlap,
    LagEstimate,
    LatencyReport,
    MotionSignal,
    OutOfBounds,
    RegionSpec,
    analyze_pair,
    block_match_flow,
    estimate_lag,
    project_region,
    standardize,
)
from .wire import (
    BadMagic,
    BadVersion,
    FRAME_SIZE,
    LatestValueMailbox,
    NonUnitQuaternion,
    PoseFrame,
    ShortRead,
    decode_frame,
    encode_frame,
)
from .pipeline import (
    ConfigInvalid,
    InsufficientPoints,
    LatencyBudget,
    LatencyFit,
    MotionSpec,
    PipelineConfig,
    PipelineRecord,
    fit_latency_line,
    latency_budget,
    run_pipeline,
    run_pipeline_sweep,
)

__version__ = "0.1.0"
