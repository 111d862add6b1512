"""``repro serve``: simulation-as-a-service on the experiment store.

A dependency-free (stdlib ``asyncio`` + ``http``) HTTP front end over
the experiment layer:

* ``POST /v1/jobs`` — submit a plan file body, get a job id back.
  Identical *in-flight* plans coalesce single-flight on their
  store-key set: duplicate submissions share one running simulation.
* ``GET /v1/jobs/<id>/events`` — stream per-cell progress as NDJSON
  (``cached`` / ``simulated`` / ``deduplicated`` / ``failed``,
  mirroring :class:`~repro.experiments.result.ExperimentResult`
  sources), terminated by one ``done`` / ``failed`` job event.
* ``GET /v1/jobs/<id>/result`` — the tidy result records.
* ``GET /v1/jobs/<id>`` — job status; ``GET /v1/healthz`` — liveness.

``repro serve`` runs jobs on a persistent :class:`ProcessBackend` pool
(``--jobs 1`` runs them in-process) whose workers keep their
prepared-kernel / generated-code caches warm across jobs, and every
completed cell persists to the content-addressed
:class:`ResultStore` the moment it finishes — so a re-submitted plan
(from any client, ever) costs zero simulations.

* :mod:`repro.service.jobs` — :class:`JobManager`: job lifecycle,
  single-flight coalescing, per-cell event buffers;
* :mod:`repro.service.server` — the asyncio HTTP server;
* :mod:`repro.service.client` — the stdlib client ``repro submit``
  drives.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager, plan_fingerprint
from repro.service.server import ServiceHandle, start_in_thread

__all__ = [
    "Job",
    "JobManager",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "plan_fingerprint",
    "start_in_thread",
]
