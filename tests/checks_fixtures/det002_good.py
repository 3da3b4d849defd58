"""DET002 negative: monotonic timing counters and explicit inputs."""

import time


def timed(work):
    start = time.perf_counter()
    result = work()
    return result, time.perf_counter() - start


def tuned_threshold(default, config):
    # the setting arrives through the (fingerprinted) config, and a
    # local that happens to be called `environ` is not the process's
    environ = {"EPC_FAST_PATH": config.fast_path}
    return default / 2 if environ["EPC_FAST_PATH"] else default
