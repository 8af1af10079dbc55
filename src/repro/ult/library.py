"""Per-core user-level threading library (Sec. IV-D).

`ThreadLibrary` owns the bounded pool of worker-thread contexts for one
core and the scheduler.  It is the software half of the switch-on-miss
co-design; the core loop in :mod:`repro.core.runner` drives it.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.config.system import UltConfig
from repro.errors import ConfigurationError
from repro.ult.scheduler import UltScheduler, make_scheduler
from repro.ult.thread import ThreadState, UserThread


class ThreadLibrary:
    """Thread pool + scheduler for one physical core."""

    def __init__(self, core_id: int, config: UltConfig) -> None:
        self.core_id = core_id
        self.config = config
        self.scheduler: UltScheduler = make_scheduler(config)
        self._threads: List[UserThread] = [
            UserThread(tid, core_id) for tid in range(config.threads_per_core)
        ]
        self._free: List[UserThread] = list(self._threads)

    # -- job admission -------------------------------------------------------------

    def can_admit(self) -> bool:
        return bool(self._free)

    def admit(self, job: Any, now: float) -> UserThread:
        """Bind a job from the global queue to a free context."""
        if not self._free:
            raise ConfigurationError("no free thread contexts")
        thread = self._free.pop()
        thread.bind(job, now)
        self.scheduler.add_new(thread)
        return thread

    # -- lifecycle events -------------------------------------------------------------

    def on_miss(self, thread: UserThread, page: int, now: float) -> None:
        """Running thread halted by a miss signal: park it pending."""
        thread.halt_on_miss(page, now)
        self.scheduler.add_pending(thread)
        self.scheduler.note_miss()

    def on_data_ready(self, thread: UserThread, now: float) -> None:
        """Queue-pair notification: the thread's page arrived."""
        if thread.state is ThreadState.PENDING:
            thread.data_arrived(now)

    def on_finish(self, thread: UserThread) -> Any:
        """Job ran to completion: recycle the context."""
        job = thread.finish()
        self._free.append(thread)
        return job

    # -- dispatch -------------------------------------------------------------

    def pick_next(self, now: float, avg_flash_response_ns: float
                  ) -> Optional[UserThread]:
        return self.scheduler.pick_next(now, avg_flash_response_ns)

    @property
    def switch_latency_ns(self) -> float:
        return self.config.switch_latency_ns
