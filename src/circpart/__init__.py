"""Circulant (di)graph edge partitions and the automorphisms that respect them.

Build Circ(n; S), partition its arcs by generator (kind "B") or by
monochromatic cycle (kind "C"), compute the group of automorphisms fixing
vertex 0 that respect a partition, and verify computationally that for
connected circulants these are exactly the multiplier maps v -> j*v for
units j stabilizing S.
"""

from .circulant import (
    DIRECTED,
    UNDIRECTED,
    ArcPartition,
    ConnectionSet,
    InvalidInstanceError,
    ResourceLimitError,
    arc_partition,
    build,
    instance_key,
    is_connected,
    parse_instance,
    partition_by_cycle,
    partition_by_generator,
)
from .harness import (
    InstanceResult,
    SweepFailure,
    SweepSpec,
    VerificationReport,
    export_report,
    generate_instances,
    load_report,
    report_to_csv,
    report_to_json,
    verify_theorem,
)
from .perm import (
    Perm,
    format_perm,
    is_automorphism,
    multiplier_perm,
    parse_perm,
    respects,
)
from .solver import (
    DEFAULT_MAX_SOLUTIONS,
    DEFAULT_ORACLE_LIMIT,
    DEFAULT_SEARCH_CAP,
    PropagationStage,
    PropagationTrace,
    RespectingGroup,
    brute_oracle,
    coset_image_check,
    enumerate_respecting,
    normalize_to_multiplier,
    propagation_certifier,
    respecting_group,
)
from .zmod import (
    MultiplierWitness,
    crt_combine,
    factorize,
    multipliers,
)

__version__ = "0.1.0"

__all__ = [
    "DIRECTED",
    "UNDIRECTED",
    "DEFAULT_MAX_SOLUTIONS",
    "DEFAULT_ORACLE_LIMIT",
    "DEFAULT_SEARCH_CAP",
    "ArcPartition",
    "ConnectionSet",
    "InstanceResult",
    "InvalidInstanceError",
    "MultiplierWitness",
    "Perm",
    "PropagationStage",
    "PropagationTrace",
    "RespectingGroup",
    "ResourceLimitError",
    "SweepFailure",
    "SweepSpec",
    "VerificationReport",
    "arc_partition",
    "brute_oracle",
    "build",
    "coset_image_check",
    "crt_combine",
    "enumerate_respecting",
    "export_report",
    "factorize",
    "format_perm",
    "generate_instances",
    "instance_key",
    "is_automorphism",
    "is_connected",
    "load_report",
    "multiplier_perm",
    "multipliers",
    "normalize_to_multiplier",
    "parse_instance",
    "parse_perm",
    "partition_by_cycle",
    "partition_by_generator",
    "propagation_certifier",
    "report_to_csv",
    "report_to_json",
    "respecting_group",
    "respects",
    "verify_theorem",
]
