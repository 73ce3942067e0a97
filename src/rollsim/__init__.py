"""rollsim: hot-mill drive sizing, loop simulation, PID tuning, fault detection.

A numpy-based toolkit for an automated two-roll sheet mill: mechanical
sizing of the roll drive train, linear plant models for the speed and
roll-gap control paths, PID closed-loop simulation with stability
analysis, deterministic gain tuning, and sensor fault injection and
detection.  Scenario-driven runs are available through the ``rollsim``
command-line tool.
"""

__version__ = "0.1.0"

from .faults import (
    DetectorConfig,
    FaultEvent,
    FaultKind,
    FaultSpec,
    SensorModel,
    apply_sensor,
    detect_faults,
    sensor_terms,
)
from .loops import (
    LoopResult,
    LoopSpec,
    MULTIBODY_REFERENCE_GAINS,
    MultibodyDemo,
    Segment,
    SetpointProfile,
    StabilityVerdict,
    classify_polynomial_stability,
    multibody_demo,
    series_is_bounded,
    simulate_loop,
    speed_loop,
    thickness_loop,
)
from .lti import (
    Integrator,
    ResponseMetrics,
    RouthVerdict,
    SimConfig,
    SimulationDiverged,
    StateSpaceModel,
    TimeSeries,
    TransferFunction,
    dc_gain,
    poles,
    polynomial_roots,
    response_metrics,
    routh_classification,
    simulate_lti,
    step_response,
    tf_new,
    tf_to_state_space,
)
from .pid import (
    PidGains,
    PidState,
    characteristic_polynomial,
    closed_loop_tf,
    pid_rational_terms,
    pid_step,
    pid_tf,
)
from .plants import (
    KinematicsMode,
    MULTIBODY_DEN,
    PowerScrewParams,
    RollDriveParams,
    multibody_tf,
    power_screw_tf,
    roll_drive_tf,
)
from .scenario import Scenario, ScenarioError, parse_scenario, parse_scenario_file
from .sizing import (
    ContactModel,
    SizingInputs,
    SizingReport,
    compression_force,
    contact_length,
    gear_ratio,
    motor_power,
    roll_angular_velocity,
    roll_torque,
    size_report,
    vfd_frequency,
)
from .tuning import (
    CostKind,
    DIVERGENCE_PENALTY,
    TuneMethod,
    TuneResult,
    TuneSpec,
    loop_cost,
    tune_pid,
)
