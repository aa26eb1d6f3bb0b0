"""The paper's named deployment scenarios, as synthetic builders.

Each builder assembles a complete simulated deployment — topology, domains,
storage, users, a DfMS server, provenance — shaped like one of the
production datagrids the paper cites:

* :func:`bbsrc_scenario` — the BBSRC-CCLRC *imploding star*: UK hospitals
  producing data that an archiver site (RAL) pulls in (§2.1).
* :func:`cms_scenario` — the CERN CMS *exploding star*: a producer pushing
  data down a tier hierarchy (§2.1).
* :func:`scec_scenario` — the SCEC ingestion run, one of the two reported
  DGL prototype executions (§4).
* :func:`ucsd_library_scenario` — the UCSD Libraries MD5 data-integrity
  run, the other reported prototype (§4).

The traces themselves are proprietary/defunct; these generators reproduce
the *structural* properties the paper relies on (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dfms.server import DfMSServer
from repro.grid.acl import Permission
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.domains import DomainRole
from repro.grid.users import User
from repro.network.topology import Topology
from repro.provenance import ProvenanceStore, attach_to_dgms, attach_to_server
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.storage import GB, MB, PhysicalStorageResource, StorageClass
from repro.workloads.generators import populate_collection, uniform_sizes

__all__ = ["Scenario", "bbsrc_scenario", "cms_scenario", "scec_scenario",
           "ucsd_library_scenario"]


@dataclass
class Scenario:
    """A ready-to-run simulated deployment."""

    name: str
    env: Environment
    dgms: DataGridManagementSystem
    server: DfMSServer
    provenance: ProvenanceStore
    users: Dict[str, User] = field(default_factory=dict)
    collections: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def run(self, generator):
        """Run a sim process to completion and return its value."""
        return self.env.run_process(generator)


def _base(name: str, topology: Topology) -> Scenario:
    env = Environment()
    dgms = DataGridManagementSystem(env, topology, name=name)
    server = DfMSServer(env, dgms, name=f"{name}-matrix")
    provenance = ProvenanceStore()
    attach_to_dgms(provenance, dgms)
    attach_to_server(provenance, server)
    return Scenario(name=name, env=env, dgms=dgms, server=server,
                    provenance=provenance)


def _disk(name, capacity=500 * GB):
    return PhysicalStorageResource(name, StorageClass.DISK, capacity)


def _tape(name, capacity=100_000 * GB):
    return PhysicalStorageResource(name, StorageClass.ARCHIVE, capacity)


# --------------------------------------------------------------------------
# BBSRC imploding star
# --------------------------------------------------------------------------


def bbsrc_scenario(n_hospitals: int = 4, files_per_hospital: int = 10,
                   seed: int = 0,
                   wan_bandwidth: float = 20 * MB) -> Scenario:
    """UK hospitals around the RAL archiver (imploding star)."""
    hospitals = [f"hospital-{index}" for index in range(n_hospitals)]
    topology = Topology.star("ral", hospitals, latency_s=0.02,
                             bandwidth_bps=wan_bandwidth)
    scenario = _base("bbsrc", topology)
    dgms = scenario.dgms
    dgms.register_domain("ral", DomainRole.ARCHIVER)
    dgms.register_resource("ral-tape", "ral", _tape("ral-tape-1"))
    archivist = dgms.register_user("archivist", "ral")
    scenario.users["archivist"] = archivist
    streams = RandomStreams(seed)
    dgms.create_collection(archivist, "/bbsrc", parents=True)
    # /bbsrc is the shared collection: every hospital creates its own
    # sub-collection under it.
    dgms.namespace.resolve("/bbsrc").acl.grant("*", Permission.WRITE)

    def _populate():
        for hospital in hospitals:
            dgms.register_domain(hospital, DomainRole.PRODUCER)
            dgms.register_resource(f"{hospital}-disk", hospital,
                                   _disk(f"{hospital}-disk-1"))
            clinician = dgms.register_user("clinician", hospital)
            scenario.users[hospital] = clinician
            collection = f"/bbsrc/{hospital}"
            scenario.collections.append(collection)
            dgms.create_collection(clinician, collection)
            paths = yield from populate_collection(
                dgms, clinician, collection, files_per_hospital,
                f"{hospital}-disk",
                size=uniform_sizes(streams.stream(hospital),
                                   low=5 * MB, high=50 * MB),
                metadata=lambda i: {"study": f"study-{i % 3}"})
            # The archiver must be able to read, replicate, and trim.
            for path in paths:
                dgms.grant(clinician, path, archivist.qualified_name,
                           Permission.OWN)

    scenario.run(_populate())
    scenario.extras["hospitals"] = hospitals
    return scenario


# --------------------------------------------------------------------------
# CMS exploding star
# --------------------------------------------------------------------------


def cms_scenario(n_tier1: int = 2, n_tier2_per_t1: int = 2,
                 n_events: int = 8, event_size: float = 50 * MB,
                 seed: int = 0) -> Scenario:
    """CERN pushing event data down a tier hierarchy (exploding star).

    The link shape matters: the CERN → tier-1 uplinks are long and thin
    (10 MB/s, the mid-2000s transatlantic reality), while tier-1 → tier-2
    links are short regional fat pipes (100 MB/s). That asymmetry is why
    the paper's *staged* replication wins — tier-2 copies should cross the
    regional links, not the contended uplinks.
    """
    topology = Topology()
    tier1 = [f"t1-{index}" for index in range(n_tier1)]
    tier2: List[str] = []
    for t1 in tier1:
        topology.connect("cern", t1, latency_s=0.05,
                         bandwidth_bps=10 * MB)
        for index in range(n_tier2_per_t1):
            t2 = f"{t1}-t2-{index}"
            tier2.append(t2)
            topology.connect(t1, t2, latency_s=0.02,
                             bandwidth_bps=100 * MB)
    scenario = _base("cms", topology)
    dgms = scenario.dgms
    dgms.register_domain("cern", DomainRole.PRODUCER)
    dgms.register_resource("cern-disk", "cern", _disk("cern-disk-1",
                                                      capacity=5000 * GB))
    physicist = dgms.register_user("physicist", "cern")
    scenario.users["physicist"] = physicist
    for domain in tier1 + tier2:
        dgms.register_domain(domain)
        dgms.register_resource(f"{domain}-disk", domain,
                               _disk(f"{domain}-disk-1", capacity=5000 * GB))
    dgms.create_collection(physicist, "/cms/run1", parents=True)
    scenario.collections.append("/cms/run1")

    def _populate():
        yield from populate_collection(
            dgms, physicist, "/cms/run1", n_events, "cern-disk",
            size=lambda: event_size, name_prefix="events",
            metadata=lambda i: {"run": 1, "stream": f"s{i % 2}"})

    scenario.run(_populate())
    scenario.extras.update({
        "tier1": tier1,
        "tier2": tier2,
        "tier1_resources": [f"{d}-disk" for d in tier1],
        "tier2_resources": [f"{d}-disk" for d in tier2],
    })
    return scenario


# --------------------------------------------------------------------------
# SCEC ingestion
# --------------------------------------------------------------------------


def scec_scenario(n_files: int = 20, seed: int = 0) -> Scenario:
    """SCEC simulation outputs ingested into the SRB datagrid (§4)."""
    topology = Topology()
    topology.connect("scec", "sdsc", latency_s=0.01, bandwidth_bps=50 * MB)
    scenario = _base("scec", topology)
    dgms = scenario.dgms
    dgms.register_domain("scec", DomainRole.PRODUCER)
    dgms.register_domain("sdsc", DomainRole.CURATOR)
    dgms.register_resource("sdsc-gpfs", "sdsc",
                           PhysicalStorageResource(
                               "sdsc-gpfs-1", StorageClass.PARALLEL_FS,
                               2000 * GB))
    dgms.register_resource("sdsc-tape", "sdsc", _tape("sdsc-tape-1"))
    scientist = dgms.register_user("scientist", "scec")
    scenario.users["scientist"] = scientist
    dgms.create_collection(scientist, "/scec/runs", parents=True)
    scenario.collections.append("/scec/runs")
    rng = RandomStreams(seed).stream("scec")
    manifest = [{"name": f"wave-{index:04d}.dat",
                 "size": rng.uniform(10 * MB, 200 * MB)}
                for index in range(n_files)]
    scenario.extras["manifest"] = manifest
    return scenario


# --------------------------------------------------------------------------
# UCSD Libraries data integrity
# --------------------------------------------------------------------------


def ucsd_library_scenario(n_files: int = 20, seed: int = 0) -> Scenario:
    """UCSD Libraries MD5 data-integrity datagridflow (§4)."""
    topology = Topology()
    topology.connect("ucsd-lib", "sdsc", latency_s=0.005,
                     bandwidth_bps=100 * MB)
    scenario = _base("ucsd-library", topology)
    dgms = scenario.dgms
    dgms.register_domain("ucsd-lib", DomainRole.CURATOR)
    dgms.register_domain("sdsc")
    dgms.register_resource("library-disk", "ucsd-lib",
                           _disk("library-disk-1"))
    dgms.register_resource("library-tape", "sdsc", _tape("library-tape-1"))
    librarian = dgms.register_user("librarian", "ucsd-lib")
    scenario.users["librarian"] = librarian
    dgms.create_collection(librarian, "/library/ingest", parents=True)
    scenario.collections.append("/library/ingest")
    streams = RandomStreams(seed)

    def _populate():
        yield from populate_collection(
            dgms, librarian, "/library/ingest", n_files, "library-disk",
            size=uniform_sizes(streams.stream("library"),
                               low=MB, high=20 * MB),
            name_prefix="scan",
            metadata=lambda i: {"format": "tiff" if i % 2 else "pdf"})

    scenario.run(_populate())
    return scenario
