"""Serving layer: asyncio multi-tenant session service over propose/observe.

See :mod:`repro.serve.service` for the service itself (admission control,
worker pool, checkpoint policies, eager pipelining) and
:mod:`repro.serve.http` for the optional stdlib-only HTTP front.
"""

from repro.serve.http import HttpFrontend
from repro.serve.service import (
    PIPELINE_MODES,
    AdmissionError,
    AsyncSessionClient,
    ProtocolError,
    ServeConfig,
    ServeError,
    SessionExistsError,
    SessionManager,
    SessionNotFoundError,
    SessionSpec,
)

__all__ = [
    "SessionManager",
    "AsyncSessionClient",
    "ServeConfig",
    "SessionSpec",
    "PIPELINE_MODES",
    "HttpFrontend",
    "ServeError",
    "AdmissionError",
    "ProtocolError",
    "SessionExistsError",
    "SessionNotFoundError",
]
