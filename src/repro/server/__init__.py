"""Encode-as-a-service: the asyncio front end over the NOVA pipeline.

The package splits the server into one module per robustness concern
(DESIGN §6.10):

``singleflight``  one computation per in-flight fingerprint
``admission``     bounded queue, prompt 429s, Retry-After model
``pool``          reusable workers with a hard wall-clock kill
``service``       the request core tying the three together
``stats``         the ``/stats`` counters
``app``           stdlib HTTP transport, slow-client guard, shutdown

Everything is standard library; ``nova serve`` (:mod:`repro.cli`) is
the entry point.
"""

from repro.server.admission import AdmissionController
from repro.server.app import ServerApp, run_server
from repro.server.pool import WorkerPool
from repro.server.service import EncodeResponse, EncodeService
from repro.server.singleflight import SingleFlight
from repro.server.stats import ServerStats

__all__ = [
    "AdmissionController",
    "EncodeResponse",
    "EncodeService",
    "ServerApp",
    "ServerStats",
    "SingleFlight",
    "WorkerPool",
    "run_server",
]
