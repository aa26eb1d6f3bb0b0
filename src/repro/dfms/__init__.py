"""The Datagridflow Management System (DfMS).

Server, admission-controlled gateway + cache tier, flow-interpreter
engine, execution control (pause / resume / cancel / checkpoint /
restore), infrastructure description + scheduling, virtual data, and the
peer-to-peer server network.
"""

from repro.dfms.bindings import bind_default_operations
from repro.dfms.cache import DgmsCache, attach_cache
from repro.dfms.checkpoint import (
    checkpoint_execution,
    checkpoint_from_json,
    checkpoint_to_json,
    restore_execution,
)
from repro.dfms.compute import ComputeResource
from repro.dfms.context import ExecutionContext
from repro.dfms.engine import ON_ERROR, FlowCancelled, FlowEngine
from repro.dfms.gateway import DfMSGateway, TokenBucket, VOPolicy
from repro.dfms.execution import FlowExecution, JournalEntry
from repro.dfms.idl import (
    SLA,
    DomainDescription,
    InfrastructureDescription,
    StorageOffer,
)
from repro.dfms.monitoring import EngineEvent, ExecutionMonitor
from repro.dfms.p2p import DfMSNetwork, LookupServer
from repro.dfms.procedures import (
    ProcedureParameter,
    ProcedureRegistry,
    StoredProcedure,
)
from repro.dfms.server import DfMSServer
from repro.dfms.virtualdata import Derivation, VirtualDataCatalog

__all__ = [
    "DfMSServer", "DfMSGateway", "TokenBucket", "VOPolicy",
    "DgmsCache", "attach_cache",
    "FlowEngine", "FlowExecution", "ExecutionContext",
    "FlowCancelled", "ON_ERROR", "JournalEntry",
    "bind_default_operations",
    "ComputeResource", "InfrastructureDescription", "DomainDescription",
    "StorageOffer", "SLA",
    "VirtualDataCatalog", "Derivation",
    "checkpoint_execution", "restore_execution",
    "checkpoint_to_json", "checkpoint_from_json",
    "DfMSNetwork", "LookupServer",
    "StoredProcedure", "ProcedureParameter", "ProcedureRegistry",
    "ExecutionMonitor", "EngineEvent",
]
