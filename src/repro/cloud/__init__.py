"""Cloud platform substrate: deployments, elasticity, detection."""

from .autoscaling import AutoScalingPolicy, ScalingEvent
from .defense import MigrationEvent, MillibottleneckDefense
from .dial import DialBalancer
from .detection import (
    CpiDetector,
    DetectionReport,
    PeriodicitySpikeDetector,
    RateAnomalyDetector,
    ThresholdDetector,
    cpi_series,
)
from .placement import (
    CampaignResult,
    CausalCoResidencyProbe,
    CloudZone,
    CoLocationCampaign,
    ZoneFullError,
)
from .platform import CloudDeployment, DeploymentConfig, TierConfig, rubbos_3tier
from .topology import LinkSpec, RackTopology

__all__ = [
    "AutoScalingPolicy",
    "CampaignResult",
    "CausalCoResidencyProbe",
    "CloudDeployment",
    "CloudZone",
    "CoLocationCampaign",
    "CpiDetector",
    "DeploymentConfig",
    "DetectionReport",
    "DialBalancer",
    "LinkSpec",
    "MigrationEvent",
    "MillibottleneckDefense",
    "PeriodicitySpikeDetector",
    "RackTopology",
    "RateAnomalyDetector",
    "ScalingEvent",
    "ThresholdDetector",
    "TierConfig",
    "ZoneFullError",
    "cpi_series",
    "rubbos_3tier",
]
