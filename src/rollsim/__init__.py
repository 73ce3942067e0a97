"""rollsim: hot-mill drive sizing, loop simulation, PID tuning, fault detection.

A numpy-based toolkit for an automated two-roll sheet mill: mechanical
sizing of the roll drive train, linear plant models for the speed and
roll-gap control paths, PID closed-loop simulation with stability
analysis, deterministic gain tuning, and sensor fault injection and
detection.  Scenario-driven runs are available through the ``rollsim``
command-line tool.

What is promised is the command line, the scenario format and the names
in ``__all__`` (with ``__version__``): the entry points that the command
line's four scenario kinds run, and the types they take and return.
This list alone decides what is public; any other name, in this package
or in a module, may change without notice.
"""

__version__ = "0.1.0"

from .faults import DetectorConfig, FaultEvent, detect_faults
from .loops import LoopResult, LoopSpec, MultibodyDemo, SetpointProfile, multibody_demo, simulate_loop
from .lti import SimConfig, dc_gain, poles, routh_classification, tf_new
from .pid import PidGains
from .scenario import Scenario, ScenarioError, parse_scenario, parse_scenario_file
from .sizing import ContactModel, SizingInputs, SizingReport, size_report
from .tuning import TuneResult, TuneSpec, tune_pid

__all__ = [
    "ContactModel", "DetectorConfig", "FaultEvent", "LoopResult", "LoopSpec", "MultibodyDemo", "PidGains",
    "Scenario", "ScenarioError", "SetpointProfile", "SimConfig", "SizingInputs", "SizingReport",
    "TuneResult", "TuneSpec", "dc_gain", "detect_faults", "multibody_demo", "parse_scenario",
    "parse_scenario_file", "poles", "routh_classification", "simulate_loop", "size_report", "tf_new",
    "tune_pid",
]
