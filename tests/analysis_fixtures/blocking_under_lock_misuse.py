"""Fixture: blocking while holding a lock (BLK001/BLK002).

The held-lock set is dataflow state: a wait *after* the ``with`` block
released the lock is clean, the same wait inside it is the deadlock
shape.
"""


class Scheduler:
    def wait_for_future_under_lock(self, fut):
        with self._lock:
            return fut.result()  # BLK001

    def cond_wait_with_second_lock(self):
        with self._lock:
            with self._cond:
                self._cond.wait()  # BLK001 (releases only _cond, not _lock)

    def sole_cond_wait(self):
        # the sanctioned shape: Condition.wait atomically releases the
        # one lock it is waiting on
        with self._cond:
            while not self.ready:
                self._cond.wait()

    def admission_under_stats_lock(self, task):
        with self._stats_lock:
            return self.tracker.acquire(task.nbytes, timeout=5.0)  # BLK001

    def submit_under_lock(self, task):
        with self._lock:
            return self.pool.submit(task.fn)  # BLK002

    def submit_after_release(self, task):
        with self._lock:
            fn = task.fn
        return self.pool.submit(fn)  # clean: lock already released

    def nonblocking_probe(self):
        with self._lock:
            return self.gate.acquire(blocking=False)  # clean
