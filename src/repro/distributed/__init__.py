"""Distributed-database simulation: metered sites, protocol, workloads,
and the fault-tolerant remote link (faults, retries, circuit breaker) —
generalized from two sites to an N-site federation with per-site links
and fan-out escalation."""

from repro.distributed.faults import FaultModel, UnreliableRemote, parse_outage
from repro.distributed.rebalance import (
    RebalancePlan,
    RebalancePolicy,
    ShardLoadTracker,
)
from repro.distributed.remote import (
    BreakerState,
    FederationLink,
    FetchPolicy,
    LinkStats,
    RemoteLink,
    resolve_escalation_link,
)
from repro.distributed.sharded import (
    KeyRangePartitioner,
    PredicatePartitioner,
    ShardedChecker,
)
from repro.distributed.site import AccessStats, FederatedDatabase, Site
from repro.distributed.stats import ProtocolStats
from repro.distributed.workload import (
    Workload,
    employee_workload,
    federated_workload,
    interval_workload,
)

__all__ = [
    "AccessStats",
    "BreakerState",
    "FaultModel",
    "FederatedDatabase",
    "FederationLink",
    "FetchPolicy",
    "KeyRangePartitioner",
    "LinkStats",
    "PredicatePartitioner",
    "ProtocolStats",
    "RebalancePlan",
    "RebalancePolicy",
    "RemoteLink",
    "ShardLoadTracker",
    "ShardedChecker",
    "Site",
    "UnreliableRemote",
    "Workload",
    "employee_workload",
    "federated_workload",
    "interval_workload",
    "parse_outage",
    "resolve_escalation_link",
]
