"""DET002 positive: wall-clock, entropy and environment reads (8 findings)."""

import os
import time
from datetime import datetime
from os import environ
from uuid import uuid4


def stamp():
    started = time.time()
    today = datetime.now()
    run_id = uuid4()
    token = os.urandom(8)
    return started, today, run_id, token


def tuned_threshold(default):
    # the cache key never sees these: a hit replays the old environment
    fast = os.environ.get("EPC_FAST_PATH", "")
    home = os.getenv("EPC_HOME")
    os.putenv("EPC_WORKER_MODE", "fork")
    mode = environ["EPC_MODE"]
    return default if not (fast or home or mode) else default / 2
