"""Why-not-as-a-service: the fault-tolerant HTTP facade.

The service layer turns the library's robustness machinery -- budgets,
load shedding, the crash-safe batch journal -- into a long-lived
process with an HTTP/JSON API:

* :mod:`repro.service.state` -- the application core (socket-free,
  fully unit-testable): database registry, engine cache, admission
  gate, request journaling and recovery;
* :mod:`repro.service.server` -- the stdlib HTTP layer and the
  :func:`~repro.service.server.serve` lifecycle;
* :mod:`repro.service.client` -- a thin stdlib client used by the
  tests and the CI smoke driver;
* :mod:`repro.service.smoke` -- the end-to-end smoke scenario CI runs
  against a real subprocess server.
"""

from .server import (
    SERVE_EXIT_ERROR,
    SERVE_EXIT_FORCED,
    SERVE_EXIT_OK,
    ReproServiceServer,
    ServiceHandler,
    serve,
)
from .state import AdmissionGate, ServiceConfig, ServiceState

__all__ = [
    "AdmissionGate",
    "ReproServiceServer",
    "SERVE_EXIT_ERROR",
    "SERVE_EXIT_FORCED",
    "SERVE_EXIT_OK",
    "ServiceConfig",
    "ServiceHandler",
    "ServiceState",
    "serve",
]
