"""The memory available to the process, and the check each operator makes
against it before allocating, so a size that does not fit fails early
with a clear message instead of swapping."""

from __future__ import annotations

import os

from .errors import ConfigError


def available_memory() -> int | None:
    """Bytes the process can still allocate: MemAvailable, lowered by the
    cgroup v2 memory.max when that is readable; None when neither is."""
    limits = []
    try:
        with open("/proc/meminfo") as fh:
            limits += [int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:")]
    except (OSError, ValueError):
        pass
    try:
        with open("/proc/self/cgroup") as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(os.path.join("/sys/fs/cgroup", path.lstrip("/"), "memory.max")) as fh:
            limits.append(int(fh.read()))  # "max" (no limit) is skipped
    except (OSError, ValueError, StopIteration):
        pass
    return min(limits) if limits else None


def require(what: str, need: int, available: int | None):
    """Raise ConfigError naming both sizes when ``what`` needs more than
    ``available`` bytes; None means unknown and passes."""
    if available is not None and need > available:
        raise ConfigError(f"{what} needs {need / 1e6:.1f} MB, more than the {available / 1e6:.1f} MB available")
