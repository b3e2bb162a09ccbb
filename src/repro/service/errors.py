"""Typed control-plane failures, wired into the existing
:class:`repro.wormhole.SimulationError` taxonomy.

Every error the route-query service can send over the wire has (1) a
Python exception class raised client-side, (2) a stable wire ``code``,
and (3) a structured ``data`` payload.  ``to_wire`` / ``from_wire``
round-trip between the two so a server-side raise becomes the *same*
typed exception in the client process.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from ..wormhole.deadlock import SimulationError

__all__ = [
    "ServiceError",
    "MalformedRequestError",
    "UnknownOperationError",
    "StaleEpochError",
    "CompileError",
    "RequestTimeoutError",
    "ServiceUnavailableError",
    "WireProtocolError",
    "ERROR_CODES",
    "to_wire",
    "from_wire",
]


class ServiceError(SimulationError):
    """Base class for typed control-plane failures."""

    code: str = "service-error"

    def __init__(self, message: str, data: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.data: Dict[str, Any] = dict(data or {})


class MalformedRequestError(ServiceError):
    """The request line was not valid JSON or missed required fields."""

    code = "malformed-request"


class UnknownOperationError(ServiceError):
    """The request named an ``op`` the server does not implement."""

    code = "unknown-operation"


class StaleEpochError(ServiceError):
    """A query referenced a reconfiguration epoch that has since been
    superseded by a fault delta — the routes it would have answered
    with may run through hardware that is now dead."""

    code = "stale-epoch"

    def __init__(self, requested: int, current: int):
        super().__init__(
            f"epoch {requested} is stale; the machine reconfigured to "
            f"epoch {current} (recompile or re-query without an epoch pin)",
            {"requested": int(requested), "current": int(current)},
        )
        self.requested = int(requested)
        self.current = int(current)


class CompileError(ServiceError):
    """The compiler could not produce a publishable artifact (every
    rung of the degradation ladder failed, or the CDG cross-check
    refuted the configuration)."""

    code = "compile-failed"


class RequestTimeoutError(ServiceError):
    """A request did not complete within its deadline."""

    code = "request-timeout"


class ServiceUnavailableError(ServiceError):
    """The server is draining and no longer accepts new work, or the
    requested artifact/endpoint does not exist."""

    code = "service-unavailable"


class WireProtocolError(ServiceError):
    """The byte stream itself violated the wire protocol: a frame with
    a bad magic/version header, or a frame body larger than the
    receiver's maximum.

    ``data["recoverable"]`` tells the peer whether the connection is
    still usable: an oversized frame is fully consumed before the
    reply (the stream stays in sync), while a corrupt header leaves no
    way to find the next message boundary."""

    code = "wire-protocol"


ERROR_CODES: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (
        ServiceError,
        MalformedRequestError,
        UnknownOperationError,
        StaleEpochError,
        CompileError,
        RequestTimeoutError,
        ServiceUnavailableError,
        WireProtocolError,
    )
}


def to_wire(err: Exception) -> Dict[str, Any]:
    """The ``error`` object of a typed error reply."""
    if isinstance(err, ServiceError):
        return {
            "code": err.code,
            "message": str(err),
            "data": err.data,
        }
    return {
        "code": ServiceError.code,
        "message": f"{type(err).__name__}: {err}",
        "data": {},
    }


def from_wire(error: Dict[str, Any]) -> ServiceError:
    """Rebuild the typed exception a server-side error reply encodes."""
    code = str(error.get("code", ServiceError.code))
    message = str(error.get("message", "unknown service error"))
    data = error.get("data") or {}
    cls = ERROR_CODES.get(code, ServiceError)
    if cls is StaleEpochError:
        return StaleEpochError(
            int(data.get("requested", -1)), int(data.get("current", -1))
        )
    err = cls(message, dict(data))
    return err
