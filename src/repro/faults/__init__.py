"""First-class fault injection: plans, injectors, and chaos soaks."""

from .plan import DEFAULT_KINDS, FaultEvent, FaultInjector, FaultPlan
from .soak import SCENARIOS, Scenario, SoakConfig, SoakReport, run_soak

__all__ = [
    "DEFAULT_KINDS", "FaultEvent", "FaultInjector", "FaultPlan",
    "SCENARIOS", "Scenario", "SoakConfig", "SoakReport", "run_soak",
]
