"""Shared deployment builders and pin checks for the benchmark suite."""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.dfms import (
    SLA,
    ComputeResource,
    DfMSServer,
    DomainDescription,
    InfrastructureDescription,
    StorageOffer,
)
from repro.dgl import DataGridRequest
from repro.grid import DataGridManagementSystem, Permission
from repro.network import Topology
from repro.sim import Environment
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass
from repro.workloads.chaos import sweep_fingerprint

#: The pinned sweep fingerprints, by file, and the seeds each covers.
PINNED_SEEDS = {
    "chaos_sweep_baseline.sha256": list(range(20)),
    "federation_chaos_baseline.sha256": list(range(10)),
}


def check_pin(reports: Sequence, pin: str,
              what: str) -> Tuple[str, Optional[bool]]:
    """Fingerprint a sweep and, when it ran exactly the pinned seeds,
    assert it equals ``pin``.

    Returns ``(fingerprint, matched)``; ``matched`` is ``None`` when the
    sweep's seeds differ from the pin's, since then the two hashes are
    not comparable.
    """
    fingerprint = sweep_fingerprint(reports)
    if [report.seed for report in reports] != PINNED_SEEDS[pin]:
        return fingerprint, None
    recorded = Path(__file__).with_name(pin).read_text().strip()
    assert fingerprint == recorded, (
        f"{what} drifted from {pin} ({fingerprint[:12]} vs "
        f"{recorded[:12]})")
    return fingerprint, True


class BenchGrid:
    """A parameterizable multi-domain datagrid with compute and a DfMS.

    ``n_domains`` domains named ``d0..dN`` in a full mesh; each domain has
    one disk (plus tape at ``d0``) and one compute resource. User ``admin``
    at ``d0`` owns ``/data``.
    """

    def __init__(self, n_domains: int = 2, cores_per_domain: int = 4,
                 wan_bandwidth: float = 50 * MB,
                 heterogeneous: bool = False,
                 placement_policy: str = "greedy",
                 placement_streams=None) -> None:
        self.env = Environment()
        domains = [f"d{index}" for index in range(n_domains)]
        topology = (Topology.full_mesh(domains, 0.01, wan_bandwidth)
                    if n_domains > 1 else Topology())
        if n_domains == 1:
            topology.add_domain("d0")
        self.dgms = DataGridManagementSystem(self.env, topology)
        infrastructure = InfrastructureDescription()
        self.disks: List[PhysicalStorageResource] = []
        self.computes: List[ComputeResource] = []
        for index, domain in enumerate(domains):
            self.dgms.register_domain(domain)
            disk = PhysicalStorageResource(f"{domain}-disk-1",
                                           StorageClass.DISK, 1000 * GB)
            self.disks.append(disk)
            self.dgms.register_resource(f"{domain}-disk", domain, disk)
            speed = 1.0 + index if heterogeneous else 1.0
            compute = ComputeResource(f"{domain}-compute", domain,
                                      cores=cores_per_domain,
                                      speed_factor=speed)
            self.computes.append(compute)
            infrastructure.add_domain(DomainDescription(
                name=domain, compute=[compute],
                storage=[StorageOffer(f"{domain}-disk", "disk")],
                sla=SLA()))
        tape = PhysicalStorageResource("d0-tape-1", StorageClass.ARCHIVE,
                                       100_000 * GB)
        self.tape = tape
        self.dgms.register_resource("d0-tape", "d0", tape)
        self.admin = self.dgms.register_user("admin", "d0")
        self.dgms.create_collection(self.admin, "/data", parents=True)
        self.infrastructure = infrastructure
        self.server = DfMSServer(self.env, self.dgms,
                                 infrastructure=infrastructure,
                                 placement_policy=placement_policy,
                                 streams=placement_streams)

    def run(self, generator):
        return self.env.run_process(generator)

    def request(self, flow, asynchronous=False) -> DataGridRequest:
        return DataGridRequest(user=self.admin.qualified_name,
                               virtual_organization="bench", body=flow,
                               asynchronous=asynchronous)

    def submit_sync(self, flow):
        """Run a flow to completion; returns the final response."""

        def go():
            response = yield self.env.process(
                self.server.submit_sync(self.request(flow)))
            return response

        response = self.run(go())
        if hasattr(response.body, "state"):
            assert response.body.state.value == "completed", (
                getattr(response.body, "error", None))
        return response

    def populate(self, count: int, size: float = MB,
                 collection: str = "/data", resource: str = "d0-disk",
                 prefix: str = "obj") -> List[str]:
        """Ingest ``count`` objects synchronously; returns their paths."""
        paths = []

        def go():
            for index in range(count):
                path = f"{collection}/{prefix}-{index:05d}.dat"
                yield self.dgms.put(self.admin, path, size, resource)
                paths.append(path)

        self.run(go())
        return paths
