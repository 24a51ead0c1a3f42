"""Resident memory of the current process.

``ru_maxrss`` survives ``exec`` on Linux, so a process started by a large
parent reports the parent's peak.  ``VmHWM`` in ``/proc/self/status``
belongs to the process's own address space and starts afresh.
"""

import resource


def rss_mb(field: str = "VmHWM") -> float:
    """``VmHWM`` (peak) or ``VmRSS`` (current) in MB; ``ru_maxrss`` off Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
