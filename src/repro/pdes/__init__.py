"""PDES-lite: partitioned discrete-event execution inside a single run.

The sweep engine (:mod:`repro.parallel`) parallelizes *across* runs;
this package parallelizes *within* one. It exploits the structure the
hardware model already encodes: the server is a distributed machine
whose islands — host complex, NI complex, cluster nodes — interact only
through buses and networks with known **minimum** latencies (PCI bridge,
Ethernet switch, SAN). Those minimums are conservative lookahead, so a
coordinator can advance every partition through synchronized time
windows and deliver cross-partition interactions as timestamped
messages, with no rollback and no speculation.

Layers:

* :mod:`repro.pdes.boundary` — seam declarations read off the hardware
  models (PCI / Ethernet / SAN lookahead).
* :mod:`repro.pdes.partition` — :class:`PartitionSpec`,
  :class:`PartitionHarness`, :class:`CrossMessage`.
* :mod:`repro.pdes.coordinator` — the window protocol plus the serial
  reference executor and the multi-process executor (persistent spawn
  workers, canonical-dict IPC, error envelopes).
* :mod:`repro.pdes.cluster` — the ``pdescluster`` experiment: a
  front-door partition plus N node partitions coupled by admission
  waves across the SAN seam.

``pdescluster`` is the only experiment that runs partitioned; every
other runner is one serial function, and ``sweep --jobs N`` fans its
cells across processes.

The correctness oracle is the same one every kernel optimisation here
answers to: golden digests. A partitioned run must produce *the byte-
identical result* of the serial run — for every worker count.
"""

from .boundary import Seam, describe_seams, ethernet_seam, pci_seam, san_seam
from .cluster import pdescluster_specs, run_pdescluster
from .coordinator import (
    CausalityError,
    Coordinator,
    ProcessExecutor,
    SerialExecutor,
    WorkerError,
    run_partitioned,
)
from .partition import CrossMessage, PartitionHarness, PartitionSpec

__all__ = [
    "Seam",
    "describe_seams",
    "pci_seam",
    "ethernet_seam",
    "san_seam",
    "CrossMessage",
    "PartitionHarness",
    "PartitionSpec",
    "CausalityError",
    "WorkerError",
    "Coordinator",
    "SerialExecutor",
    "ProcessExecutor",
    "run_partitioned",
    "pdescluster_specs",
    "run_pdescluster",
]
