"""Client-side degradation policy: backoff, retry budgets, quarantine.

Under overload or gray failure, a fleet of clients retrying on a fixed
short interval is a metastable amplifier: every failed attempt adds load
to the component least able to absorb it. This module holds the three
production-shaped reactions the client composes instead (§4.1, §9):

* :class:`BackoffPolicy` — exponential backoff with *decorrelated
  jitter*: each delay is drawn uniformly from ``[base, prev * 3]`` and
  capped, which de-synchronizes retrying clients without the lockstep
  ramps of plain exponential backoff.
* :class:`RetryBudget` — a token bucket over simulated time shared by
  all of one client's operations. First attempts are free; each retry
  spends a token. When the bucket is dry the retry is *shed* and the
  operation fails fast with a ``budget-exhausted`` reason, so retry
  volume is capped at the refill rate rather than multiplying with
  ``max_retries``.
* :class:`BackendHealth` — a per-backend scoreboard replacing the old
  binary ``healthy`` flag. Consecutive failures past a threshold put
  the backend in *quarantine* for an escalating cooldown; a single
  success after the cooldown clears it. Quarantine keeps a flapping
  (gray) replica out of the read cohort without forgetting that its
  RPC channel still works.

All randomness comes from a seeded :class:`~repro.sim.RandomStream`, so
two runs with the same seed schedule identical retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import RandomStream
from .errors import CliqueMapError


class BackoffPolicy:
    """Exponential backoff with decorrelated jitter.

    ``next_delay()`` draws uniformly from ``[base, max(base, prev * 3)]``
    and caps the result at ``cap``. With ``base == 0`` the policy is
    disabled: it returns ``0.0`` without consuming randomness, so
    no-backoff configurations leave the random stream untouched.
    """

    def __init__(self, base: float, cap: float, rand: RandomStream):
        self.base = base
        self.cap = cap
        self.rand = rand
        self._prev = base

    def next_delay(self) -> float:
        if self.base <= 0:
            return 0.0
        delay = min(self.cap,
                    self.rand.uniform(self.base,
                                      max(self.base, self._prev * 3)))
        self._prev = delay
        return delay

    def reset(self) -> None:
        self._prev = self.base


class RetryBudget:
    """A token bucket over simulated time; one token per retry.

    ``capacity <= 0`` disables the budget (every spend succeeds), which
    keeps unit tests and micro-benchmarks free to hammer retries.
    """

    def __init__(self, clock: Callable[[], float], capacity: float,
                 fill_rate: float):
        self.clock = clock
        self.capacity = float(capacity)
        self.fill_rate = float(fill_rate)
        self._tokens = max(0.0, self.capacity)
        self._last = clock()
        self.spent = 0
        self.shed = 0

    @property
    def unlimited(self) -> bool:
        return self.capacity <= 0

    def _refill(self) -> None:
        now = self.clock()
        if now > self._last and self.fill_rate > 0:
            self._tokens = min(self.capacity,
                               self._tokens +
                               (now - self._last) * self.fill_rate)
        self._last = now

    def tokens(self) -> float:
        if self.unlimited:
            return float("inf")
        self._refill()
        return self._tokens

    def try_spend(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens; False (and counted shed) when dry."""
        if self.unlimited:
            self.spent += 1
            return True
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            self.spent += 1
            return True
        self.shed += 1
        return False


@dataclass
class HealthPolicy:
    """Knobs for the per-backend health scoreboard."""

    failure_threshold: int = 3        # consecutive failures -> quarantine
    quarantine_base: float = 25e-3    # first cooldown
    quarantine_max: float = 0.5       # cooldown ceiling
    quarantine_backoff: float = 2.0   # cooldown escalation per re-entry

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise CliqueMapError(
                f"HealthPolicy.failure_threshold must be >= 1, "
                f"got {self.failure_threshold}")
        if self.quarantine_base <= 0:
            raise CliqueMapError(
                f"HealthPolicy.quarantine_base must be > 0, "
                f"got {self.quarantine_base}")
        if self.quarantine_max < self.quarantine_base:
            raise CliqueMapError(
                "HealthPolicy.quarantine_max must be >= quarantine_base, "
                f"got {self.quarantine_max} < {self.quarantine_base}")
        if self.quarantine_backoff < 1.0:
            raise CliqueMapError(
                f"HealthPolicy.quarantine_backoff must be >= 1, "
                f"got {self.quarantine_backoff}")


class BackendHealth:
    """Failure/success scoreboard for one backend, with quarantine.

    Two orthogonal facts are tracked:

    * ``connected`` — the last handshake (Info RPC) succeeded and the
      view's region metadata is current. Cleared by :meth:`mark_down`;
      set by :meth:`mark_connected`. A successful handshake does *not*
      clear quarantine — a gray link can handshake fine and still fail
      data ops, and re-admitting it on handshake would flap forever.
    * quarantine — entered after ``failure_threshold`` consecutive op
      failures, for a cooldown that escalates on re-entry. Exited
      lazily when the cooldown expires (checked on the next
      :meth:`available` call) or immediately on an op success.

    ``on_event(task, event)`` fires with ``"enter"``/``"exit"`` so the
    owner can count quarantine transitions in its metrics registry.
    """

    def __init__(self, task: str, clock: Callable[[], float],
                 policy: Optional[HealthPolicy] = None,
                 on_event: Optional[Callable[[str, str], None]] = None):
        self.task = task
        self.clock = clock
        self.policy = policy or HealthPolicy()
        self.on_event = on_event
        self.connected = False
        self.consecutive_failures = 0
        self.quarantines = 0
        self._quarantined_until: Optional[float] = None
        self._cooldown = self.policy.quarantine_base

    # -- state queries ------------------------------------------------------

    @property
    def quarantined(self) -> bool:
        if self._quarantined_until is not None and \
                self.clock() >= self._quarantined_until:
            self._exit_quarantine()
        return self._quarantined_until is not None

    def available(self) -> bool:
        """Eligible for the op path: connected and not quarantined."""
        return self.connected and not self.quarantined

    # -- transitions --------------------------------------------------------

    def mark_connected(self) -> None:
        self.connected = True

    def mark_down(self) -> None:
        """Handshake or op found the backend unreachable."""
        self.connected = False
        self.record_failure()

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._cooldown = self.policy.quarantine_base
        if self._quarantined_until is not None:
            self._exit_quarantine()

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.policy.failure_threshold and \
                not self.quarantined:
            self.quarantines += 1
            self._quarantined_until = self.clock() + self._cooldown
            self._cooldown = min(self.policy.quarantine_max,
                                 self._cooldown *
                                 self.policy.quarantine_backoff)
            if self.on_event is not None:
                self.on_event(self.task, "enter")

    def reset_for_new_incarnation(self) -> None:
        """The task restarted: drop the dead process's failure history.

        Quarantine guards against the *same* incarnation flapping (a gray
        link that handshakes fine but fails data ops). Pinning a freshly
        restarted process to its predecessor's record turns one tolerated
        failure into two: the client shuns a healthy replica while a
        second, real fault is live — exactly the double-failure R=3.2
        cannot mask.
        """
        self.consecutive_failures = 0
        self._cooldown = self.policy.quarantine_base
        if self._quarantined_until is not None:
            self._exit_quarantine()

    def _exit_quarantine(self) -> None:
        self._quarantined_until = None
        if self.on_event is not None:
            self.on_event(self.task, "exit")
