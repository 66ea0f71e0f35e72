"""Monotonic deadlines and budgets for deadline-aware execution.

A hung or merely slow solver stage can stall a run forever; serving
fleets answer with wall-clock budgets enforced *cooperatively*, so that
work stops at a safe point and partial results survive.  This module is
that mechanism:

* :class:`Deadline` -- a monotonic-clock deadline with cheap
  :meth:`~Deadline.expired` polling and a raising :meth:`~Deadline.check`.
  Threaded through :class:`~repro.core.pipeline.PassManager` (checked at
  every stage boundary) and through every sampler's sweep loop (checked
  at sweep-batch granularity), so a run never overshoots its budget by
  more than one sweep batch.
* :class:`Budget` -- a plain remaining-seconds snapshot, picklable, for
  handing per-task timeouts to process-pool workers; each worker
  rearms it into a local :class:`Deadline` when the task starts, so
  workers tear themselves down cleanly instead of being killed.
* :class:`DeadlineExceeded` -- the structured error raised when time
  runs out *between* stages: it names the stage that could not start
  and carries whatever partial artifact the pipeline had produced.

Samplers never raise on expiry: they stop sweeping, flag
``info["deadline_interrupted"]``, and return the states they reached --
an interrupted anneal is still a valid (if hotter) sample set.  Only
the pipeline raises, and only when a required stage cannot run at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


class DeadlineExceeded(RuntimeError):
    """A deadline expired before a required pipeline stage could run.

    Attributes:
        stage: fully-qualified name of the stage that could not start
            (``"run.find_embedding"``), or None when raised outside a
            pipeline.
        elapsed_s: seconds elapsed when the deadline tripped.
        budget_s: the original budget in seconds.
        partial: whatever partial artifact existed when time ran out
            (for a run, the partly filled
            :class:`~repro.qmasm.runner.RunResult`, with no solutions
            yet); None if nothing was produced.
    """

    def __init__(
        self,
        message: str,
        stage: Optional[str] = None,
        elapsed_s: Optional[float] = None,
        budget_s: Optional[float] = None,
        partial: Any = None,
    ):
        super().__init__(message)
        self.stage = stage
        self.elapsed_s = elapsed_s
        self.budget_s = budget_s
        self.partial = partial


class Deadline:
    """A wall-clock budget measured on a monotonic clock.

    Args:
        seconds: the budget; must be positive.
        clock: the time source (monotonic by default; injectable for
            tests).

    The clock is read at construction; :meth:`remaining` /
    :meth:`expired` / :meth:`check` are all O(1) clock reads, cheap
    enough to poll once per sweep batch.
    """

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        self.budget_s = float(seconds)
        self._clock = clock
        self._start = clock()

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_s

    def check(self, stage: Optional[str] = None, partial: Any = None) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed()
        if elapsed >= self.budget_s:
            where = f" before stage {stage!r}" if stage else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:g}s exceeded after "
                f"{elapsed:.3f}s{where}",
                stage=stage,
                elapsed_s=elapsed,
                budget_s=self.budget_s,
                partial=partial,
            )

    def budget(self) -> "Budget":
        """Snapshot the remaining time as a picklable :class:`Budget`."""
        return Budget(self.remaining())

    def __repr__(self) -> str:
        return (
            f"Deadline({self.budget_s:g}s, {self.remaining():.3f}s remaining)"
        )


@dataclass(frozen=True)
class Budget:
    """A remaining-time snapshot, safe to pickle into pool workers.

    Monotonic-clock *readings* must not cross process boundaries; a
    plain seconds count can.  The worker calls :meth:`start` when its
    task actually begins, getting a local :class:`Deadline` that bounds
    just that task.
    """

    seconds: float

    def start(self, clock: Callable[[], float] = time.monotonic) -> Optional[Deadline]:
        """Arm the budget into a live deadline (None if already spent).

        A spent budget returns an already-expired deadline substitute:
        callers treat ``None`` as "no deadline", so an exhausted budget
        instead yields a deadline with the smallest representable
        positive allowance -- every subsequent ``expired()`` is True.
        """
        if self.seconds <= 0.0:
            deadline = Deadline(1e-9, clock=clock)
            return deadline
        return Deadline(self.seconds, clock=clock)
