"""TrueTime: a globally-consistent coordinated clock (simulated).

CliqueMap's VersionNumbers put TrueTime in the uppermost bits so that
retried mutations from a client eventually nominate the highest version
(§5.2). The simulation models per-client clock skew bounded by an epsilon,
which is all the version scheme relies on: roughly-synchronized, and
monotone per client.
"""

from __future__ import annotations

from ..sim import RandomStream, Simulator


class TrueTime:
    """Per-process clock view with bounded uncertainty."""

    def __init__(self, sim: Simulator, epsilon: float = 1e-3,
                 stream: RandomStream = None):
        self.sim = sim
        self.epsilon = epsilon
        stream = stream or RandomStream(0, "truetime")
        # A fixed per-process offset within [-eps, +eps].
        self._offset = stream.uniform(-epsilon, epsilon)
        self._last_micros = 0

    def now_micros(self) -> int:
        """Current TrueTime in microseconds; monotone for this process."""
        micros = int((self.sim.now + self._offset) * 1e6)
        # Never step backwards even if the offset would allow it at t~0.
        micros = max(micros, self._last_micros + 1)
        self._last_micros = micros
        return micros
