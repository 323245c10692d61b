"""Campaign-as-a-service: executor backends + job API.

The service layer turns campaigns from a function call into a substrate:

* :mod:`repro.service.executors` — the :class:`Executor` interface
  (``submit``/``poll``/``cancel``/``drain``) with inline, crash-isolated
  fork-pool and file-queue worker backends, plus the backend-agnostic
  supervision loop :func:`execute_tasks`;
* :mod:`repro.service.queue` — the on-disk queue protocol behind
  ``python -m repro worker --queue DIR``;
* :mod:`repro.service.jobs` — the :class:`Execution` settings every
  sweep runs with, and :class:`JobSpec`/:class:`JobState` shared by the
  CLI and the HTTP service;
* :mod:`repro.service.server` — ``python -m repro serve``, a stdlib
  HTTP/JSON job service memoised through the content-addressed store;
* :mod:`repro.service.client` — the ``repro submit/status/fetch/cancel``
  client commands.

Every backend runs the same trial functions and flows results through the
same :class:`~repro.campaign.store.ResultStore`, so serial, fork and
multi-process queue runs of one campaign produce byte-identical merged
manifests (see ``manifest_fingerprint``).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "BACKENDS": "repro.service.jobs",
    "ExecMessage": "repro.service.executors",
    "Executor": "repro.service.executors",
    "ForkExecutor": "repro.service.executors",
    "InlineExecutor": "repro.service.executors",
    "execute_tasks": "repro.service.executors",
    "make_executor": "repro.service.executors",
    "Execution": "repro.service.jobs",
    "JobSpec": "repro.service.jobs",
    "JobState": "repro.service.jobs",
    "JOB_STATES": "repro.service.jobs",
    "JobJournal": "repro.service.journal",
    "ReplayResult": "repro.service.journal",
    "FileQueueExecutor": "repro.service.queue",
    "run_worker": "repro.service.queue",
})

__all__ = [
    "BACKENDS",
    "ExecMessage",
    "Execution",
    "Executor",
    "FileQueueExecutor",
    "ForkExecutor",
    "InlineExecutor",
    "JOB_STATES",
    "JobJournal",
    "JobSpec",
    "JobState",
    "ReplayResult",
    "execute_tasks",
    "make_executor",
    "run_worker",
]
