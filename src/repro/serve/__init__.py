"""repro.serve: zero-copy transport and the asyncio serving tier.

Two layers (``docs/serving.md``):

- the **transport** (:mod:`repro.serve.transport`,
  :mod:`repro.serve.ring`, :mod:`repro.serve.layout`,
  :mod:`repro.serve.workers`): shared-memory job/result rings with
  persistent warm workers, selected through the engine's :class:`~repro.serve.transport.TransportConfig` seam;
- the **front-end** (:mod:`repro.serve.server`,
  :mod:`repro.serve.admission`, :mod:`repro.serve.quota`,
  :mod:`repro.serve.client`): the asyncio ``gendp-serve`` service with
  admission control, backpressure, priority classes and per-tenant
  quotas.
"""

from repro.serve.admission import (
    PRIORITY_CLASSES,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.client import ReconnectPolicy, ServeClient
from repro.serve.quota import TenantQuotas, TokenBucket
from repro.serve.server import SERVE_COUNTERS, GendpServer, ServeConfig
from repro.serve.transport import BACKENDS, ShmExecutor, TransportConfig

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BACKENDS",
    "GendpServer",
    "PRIORITY_CLASSES",
    "ReconnectPolicy",
    "SERVE_COUNTERS",
    "ServeClient",
    "ServeConfig",
    "ShmExecutor",
    "TenantQuotas",
    "TokenBucket",
    "TransportConfig",
]
