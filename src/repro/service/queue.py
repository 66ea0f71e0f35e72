"""Bounded job queue + worker pool for the annealing service.

Submissions land in a bounded :class:`queue.Queue` and are drained by a
fixed pool of worker threads, each executing jobs through the service's
executor callable.  Threads (not processes) are the right grain here:
every job shares the service's in-process compile and embedding
caches.

Shutdown is a first-class contract (the test suite asserts it): with
``drain=True`` every queued and in-flight job completes before the
workers exit; without it, queued jobs are failed out as
``shutdown_pending`` and only the in-flight ones finish.  Either way
:meth:`WorkerPool.shutdown` joins every worker under a wall-clock bound
and reports whether the pool wound down cleanly -- callers never guess
about orphaned threads.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Callable, List, Optional

from repro.service.jobs import Job, JobState

logger = logging.getLogger(__name__)


class WorkerPool:
    """Fixed thread pool draining a bounded job queue.

    Args:
        execute: callable invoked with each :class:`Job`; it must set
            the job's terminal state itself (the pool adds a
            last-resort catch so an executor bug can never kill a
            worker thread).
        workers: thread count.
        queue_size: bound on queued (not yet running) jobs; a full
            queue rejects submissions (HTTP 503 upstream).
        name: thread-name prefix (visible in stack dumps).
    """

    def __init__(
        self,
        execute: Callable[[Job], None],
        workers: int = 2,
        queue_size: int = 64,
        name: str = "repro-service",
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self._execute = execute
        self.workers = workers
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(maxsize=queue_size)
        self._threads: List[threading.Thread] = []
        self._accepting = False
        self._closed = False
        self._lock = threading.Lock()
        self._name = name

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._threads:
                return
            self._accepting = True
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"{self._name}-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def submit(self, job: Job) -> bool:
        """Enqueue a job; False when the pool is full or shut down."""
        with self._lock:
            if not self._accepting:
                return False
        try:
            self._queue.put_nowait(job)
            return True
        except queue.Full:
            return False

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def alive_workers(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                try:
                    self._execute(item)
                except Exception:
                    # The executor is responsible for terminal states;
                    # this is the belt-and-braces path so a bug there
                    # cannot take a worker thread down with it.
                    logger.exception("job %s crashed the executor", item.id)
                    if not item.is_terminal():
                        item.finish(
                            JobState.ERROR,
                            error={
                                "error": "internal",
                                "message": "executor crashed; see server log",
                                "status": 500,
                            },
                        )
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    def _wait_drained(self, deadline_s: float) -> bool:
        """``queue.join()`` with a wall-clock bound."""
        with self._queue.all_tasks_done:
            while self._queue.unfinished_tasks:
                remaining = deadline_s - time.monotonic()
                if remaining <= 0:
                    return False
                self._queue.all_tasks_done.wait(remaining)
        return True

    def shutdown(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop the pool; returns True iff it wound down cleanly.

        ``drain=True`` waits (bounded) for every queued and in-flight
        job to reach a terminal state first; ``drain=False`` fails
        queued jobs out immediately and only waits for the in-flight
        ones.  Idempotent: repeated calls return the (settled) verdict
        of whether all workers are gone.
        """
        deadline_s = time.monotonic() + timeout_s
        with self._lock:
            self._accepting = False
            already_closed = self._closed
            self._closed = True
        clean = True
        if not already_closed:
            if drain:
                clean = self._wait_drained(deadline_s)
            else:
                while True:
                    try:
                        pending = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    try:
                        if pending is not None and not pending.is_terminal():
                            pending.finish(
                                JobState.ERROR,
                                error={
                                    "error": "shutdown_pending",
                                    "message": "server shut down before "
                                    "this job started",
                                    "status": 503,
                                },
                            )
                    finally:
                        self._queue.task_done()
            for _ in self._threads:
                try:
                    self._queue.put(
                        None, timeout=max(0.0, deadline_s - time.monotonic())
                    )
                except queue.Full:
                    clean = False
        for thread in self._threads:
            thread.join(max(0.0, deadline_s - time.monotonic()))
            if thread.is_alive():
                clean = False
        return clean
