"""Reconfiguration control plane.

The paper's selling point is that lamb reconfiguration is cheap enough
— O(k d^3 f^3 + |Λ|), independent of mesh size — to rerun on every
fault event.  This package turns that in-process call into a control
plane with a slow control path and a fast data path:

- :mod:`repro.service.store` — canonical config identity (blake2
  content addressing) and the compile cache (an LRU of live artifacts);
- :mod:`repro.service.compiler` — compile-once semantics over the lamb
  pipeline with the degradation ladder and an optional CDG
  deadlock-freedom cross-check before publication;
- :mod:`repro.service.wire` — the length-prefixed binary framing
  every connection speaks;
- :mod:`repro.service.server` / :mod:`repro.service.client` — an
  asyncio TCP service (binary frames, batching, per-request timeouts,
  graceful drain) serving route queries at high QPS;
- :mod:`repro.service.metrics` — cache/compile/query observability
  behind the ``stats`` RPC;
- :mod:`repro.service.errors` — typed wire errors under the
  :class:`repro.wormhole.SimulationError` taxonomy.

See ``docs/service.md`` for the protocols and artifact schema, and
``repro serve`` / ``repro query`` for the CLI front ends.
"""

from .compiler import CompiledArtifact, ReconfigurationCompiler
from .errors import (
    CompileError,
    MalformedRequestError,
    RequestTimeoutError,
    ServiceError,
    ServiceUnavailableError,
    StaleEpochError,
    UnknownOperationError,
    WireProtocolError,
)
from .metrics import ServiceMetrics
from .store import ArtifactStore, canonical_config, config_digest

__all__ = [
    "ArtifactStore",
    "canonical_config",
    "config_digest",
    "CompiledArtifact",
    "ReconfigurationCompiler",
    "ServiceMetrics",
    "ServiceError",
    "MalformedRequestError",
    "UnknownOperationError",
    "StaleEpochError",
    "CompileError",
    "RequestTimeoutError",
    "ServiceUnavailableError",
    "WireProtocolError",
    "RouteQueryClient",
    "RouteQueryServer",
]


def __getattr__(name: str):
    # Server/client pull in asyncio; import lazily so the core package
    # stays light for library users.
    if name == "RouteQueryServer":
        from .server import RouteQueryServer

        return RouteQueryServer
    if name == "RouteQueryClient":
        from .client import RouteQueryClient

        return RouteQueryClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
