"""TrueTime: a globally-consistent coordinated clock (simulated).

CliqueMap's VersionNumbers put TrueTime in the uppermost bits so that
retried mutations from a client eventually nominate the highest version
(§5.2). The simulation models a clock skew bounded by an epsilon (one
offset every client shares), which is all the version scheme relies on:
roughly-synchronized, and monotone per client.
"""

from __future__ import annotations

from ..sim import RandomStream, Simulator


#: Bound on a process's clock skew (seconds).
EPSILON = 1e-3
#: The clock's offset from simulated time, within [-EPSILON, +EPSILON];
#: one seeded draw that every process shares.
_OFFSET = RandomStream(0, "truetime").uniform(-EPSILON, EPSILON)


class TrueTime:
    """Per-process clock view with bounded uncertainty."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._last_micros = 0

    def now_micros(self) -> int:
        """Current TrueTime in microseconds; monotone for this process."""
        micros = int((self.sim.now + _OFFSET) * 1e6)
        # Never step backwards even if the offset would allow it at t~0.
        micros = max(micros, self._last_micros + 1)
        self._last_micros = micros
        return micros
