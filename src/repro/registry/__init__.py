"""Component registry + declarative StackSpec: the construction API.

One vocabulary builds every stack in the repository, for both the
discrete-event simulator and the live asyncio runtime:

* :mod:`repro.registry.base` — typed registries with per-component
  parameter schemas and did-you-mean errors;
* :mod:`repro.registry.specs` — :class:`StackSpec` and its nested component
  specs, with the nested dict round-trip and dotted-path access;
* :mod:`repro.registry.builtins` — registrations for every built-in system,
  membership view, interest model, workload, and fairness policy, plus
  :func:`build_stack`.
"""

from .base import ComponentEntry, Param, Registry, RegistryError
from .builtins import (
    INTEREST,
    MEMBERSHIP,
    POLICIES,
    SYSTEMS,
    WORKLOADS,
    BuildContext,
    all_registries,
    build_interest_model,
    build_popularity,
    build_stack,
    build_workload,
    resolve_policy_kind,
    workload_kind,
)
from .specs import (
    FLAT_TO_PATH,
    PATH_TO_FLAT,
    STRUCTURED_PATHS,
    FaultChurnSpec,
    FaultPartitionSpec,
    FaultPerturbSpec,
    FaultsSpec,
    InterestSpec,
    MembershipSpec,
    PolicySpec,
    StackSpec,
    SystemSpec,
    TelemetrySpec,
    TopologySpec,
    WorkloadSpec,
    parse_scalar,
    parse_spec_overrides,
    resolve_spec_path,
    spec_paths,
)

__all__ = [
    "Registry",
    "RegistryError",
    "ComponentEntry",
    "Param",
    "SYSTEMS",
    "MEMBERSHIP",
    "INTEREST",
    "WORKLOADS",
    "POLICIES",
    "BuildContext",
    "build_stack",
    "build_popularity",
    "build_interest_model",
    "build_workload",
    "workload_kind",
    "resolve_policy_kind",
    "all_registries",
    "StackSpec",
    "SystemSpec",
    "MembershipSpec",
    "InterestSpec",
    "WorkloadSpec",
    "PolicySpec",
    "FaultChurnSpec",
    "FaultPartitionSpec",
    "FaultPerturbSpec",
    "FaultsSpec",
    "TelemetrySpec",
    "TopologySpec",
    "FLAT_TO_PATH",
    "PATH_TO_FLAT",
    "STRUCTURED_PATHS",
    "spec_paths",
    "resolve_spec_path",
    "parse_scalar",
    "parse_spec_overrides",
]
