"""The hard-wired workflow baseline.

"There are many ways to hard-wire workflows … Any change in the execution
logic or the infrastructure logic would require modification of the whole
system." (§3)

:class:`HardwiredIntegrityPipeline` is the UCSD-Libraries data-integrity
job written the pre-DfMS way: resource names, collection paths, and
ordering baked into code. Experiment E16 contrasts it with the equivalent
DGL document from :func:`dgl_integrity_flow`: re-targeting the DGL version
to new infrastructure is a parameter change in a *document*; re-targeting
the hard-wired version is a code change (here, constructing a whole new
object — and until someone does, it simply breaks).
"""

from __future__ import annotations


from repro.dgl.builder import flow_builder
from repro.dgl.model import Flow
from repro.grid.dgms import DataGridManagementSystem
from repro.grid.users import User
from repro.sim.kernel import Environment

__all__ = ["HardwiredIntegrityPipeline", "dgl_integrity_flow"]


class HardwiredIntegrityPipeline:
    """MD5 + archive pipeline with everything baked in.

    The constants below are the "hard-wiring": the collection scanned, the
    archive resource written, and the metadata attribute set. Pointing this
    pipeline at different infrastructure means editing this class.
    """

    #: Hard-wired configuration (the point of the baseline).
    COLLECTION = "/library/ingest"
    ARCHIVE_RESOURCE = "library-tape"
    CHECKSUM_ATTRIBUTE = "md5"

    def __init__(self, env: Environment, dgms: DataGridManagementSystem,
                 user: User) -> None:
        self.env = env
        self.dgms = dgms
        self.user = user
        self.objects_processed = 0

    def run(self):
        """Generator: checksum, tag, and archive every ingested object."""
        paths = [obj.path for obj in
                 self.dgms.namespace.iter_objects(self.COLLECTION)]
        for path in paths:
            digest = yield self.dgms.checksum(self.user, path)
            self.dgms.set_metadata(self.user, path,
                                   self.CHECKSUM_ATTRIBUTE, digest)
            yield self.dgms.replicate(self.user, path, self.ARCHIVE_RESOURCE)
            self.objects_processed += 1


def dgl_integrity_flow(collection: str, archive_resource: str) -> Flow:
    """The same pipeline as a DGL document.

    The collection and archive the hard-wired class bakes in are
    parameters here; the document can be regenerated (or edited as XML)
    for new infrastructure without touching code.
    """
    return (flow_builder("integrity-pipeline")
            .for_each("f", collection=collection)
            .step("checksum", "srb.checksum", assign_to="digest",
                  path="${f}")
            .step("tag", "srb.set_metadata", path="${f}",
                  attribute=HardwiredIntegrityPipeline.CHECKSUM_ATTRIBUTE,
                  value="${digest}")
            .step("archive", "srb.replicate", path="${f}",
                  resource=archive_resource)
            .build())
