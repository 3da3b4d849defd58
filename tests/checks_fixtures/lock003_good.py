"""LOCK003 negative: every post-init write of a locked attribute holds the lock."""
import threading


class Tally:
    def __init__(self):
        self._lock = threading.Lock()
        self.pending = 0
        self.total = 0
        self.label = "tally"  # never written under a lock: no guard to break

    def start(self, worker):
        threading.Thread(target=self.add).start()

    def add(self):
        with self._lock:
            self.pending += 1
            self.total += 1

    def flush(self):
        with self._lock:
            self.total += self.pending
            self.pending = 0

    def rename(self, label):
        self.label = label  # consistently unguarded attribute: silent
