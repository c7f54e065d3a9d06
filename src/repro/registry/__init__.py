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

from .._exports import lazy_exports

_EXPORTS = {
    "Registry": ".base",
    "RegistryError": ".base",
    "ComponentEntry": ".base",
    "Param": ".base",
    "SYSTEMS": ".builtins",
    "MEMBERSHIP": ".builtins",
    "INTEREST": ".builtins",
    "WORKLOADS": ".builtins",
    "POLICIES": ".builtins",
    "BuildContext": ".builtins",
    "build_stack": ".builtins",
    "build_popularity": ".builtins",
    "build_interest_model": ".builtins",
    "build_workload": ".builtins",
    "workload_kind": ".builtins",
    "resolve_policy_kind": ".builtins",
    "all_registries": ".builtins",
    "StackSpec": ".specs",
    "SystemSpec": ".specs",
    "MembershipSpec": ".specs",
    "InterestSpec": ".specs",
    "WorkloadSpec": ".specs",
    "PolicySpec": ".specs",
    "FaultChurnSpec": ".specs",
    "FaultPartitionSpec": ".specs",
    "FaultPerturbSpec": ".specs",
    "FaultsSpec": ".specs",
    "TelemetrySpec": ".specs",
    "TopologySpec": ".specs",
    "FLAT_TO_PATH": ".specs",
    "PATH_TO_FLAT": ".specs",
    "STRUCTURED_PATHS": ".specs",
    "spec_paths": ".specs",
    "resolve_spec_path": ".specs",
    "parse_scalar": ".specs",
    "parse_spec_overrides": ".specs",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
