"""Unit tests for the client degradation policy primitives."""

import pytest

from repro.core import (BackendHealth, BackoffPolicy, CliqueMapError,
                        ClientConfig, HealthPolicy, RepairConfig, RetryBudget)
from repro.sim import RandomStream


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# BackoffPolicy
# ----------------------------------------------------------------------

def test_backoff_delays_grow_and_cap():
    policy = BackoffPolicy(base=10e-6, cap=1e-3,
                           rand=RandomStream(1, "backoff"))
    delays = [policy.next_delay() for _ in range(50)]
    assert all(10e-6 <= d <= 1e-3 for d in delays)
    assert max(delays) > 10e-6          # it actually escalated
    assert len(set(delays)) > 1         # and jittered


def test_backoff_zero_base_is_disabled_and_draws_no_randomness():
    rand = RandomStream(1, "backoff")
    before = rand.uniform(0, 1)
    rand = RandomStream(1, "backoff")
    policy = BackoffPolicy(base=0.0, cap=1e-3, rand=rand)
    assert policy.next_delay() == 0.0
    assert policy.next_delay() == 0.0
    # The stream was left untouched: same next draw as a fresh stream.
    assert rand.uniform(0, 1) == before


def test_backoff_reset_restarts_escalation():
    rand = RandomStream(3, "backoff")
    policy = BackoffPolicy(base=10e-6, cap=1e-3, rand=rand)
    for _ in range(20):
        policy.next_delay()
    policy.reset()
    assert policy.next_delay() <= 3 * 10e-6


def test_backoff_same_seed_same_delays():
    a = BackoffPolicy(10e-6, 1e-3, RandomStream(9, "b"))
    b = BackoffPolicy(10e-6, 1e-3, RandomStream(9, "b"))
    assert [a.next_delay() for _ in range(10)] == \
        [b.next_delay() for _ in range(10)]


# ----------------------------------------------------------------------
# RetryBudget
# ----------------------------------------------------------------------

def test_budget_spends_then_sheds():
    clock = Clock()
    budget = RetryBudget(clock, capacity=3, fill_rate=0.0)
    assert [budget.try_spend() for _ in range(5)] == \
        [True, True, True, False, False]
    assert budget.spent == 3
    assert budget.shed == 2


def test_budget_refills_over_time():
    clock = Clock()
    budget = RetryBudget(clock, capacity=10, fill_rate=2.0)
    for _ in range(10):
        assert budget.try_spend()
    assert not budget.try_spend()
    clock.now += 1.0                    # 2 tokens back
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()


def test_budget_refill_caps_at_capacity():
    clock = Clock()
    budget = RetryBudget(clock, capacity=4, fill_rate=100.0)
    clock.now += 60.0
    assert budget.tokens() == 4


def test_budget_nonpositive_capacity_is_unlimited():
    budget = RetryBudget(Clock(), capacity=0, fill_rate=0.0)
    assert budget.unlimited
    assert all(budget.try_spend() for _ in range(1000))
    assert budget.shed == 0


# ----------------------------------------------------------------------
# BackendHealth / HealthPolicy
# ----------------------------------------------------------------------

def test_health_quarantines_after_consecutive_failures():
    clock = Clock()
    events = []
    health = BackendHealth("backend-0", clock,
                           HealthPolicy(failure_threshold=3),
                           on_event=lambda t, e: events.append((t, e)))
    health.mark_connected()
    assert health.available()
    health.record_failure()
    health.record_failure()
    assert not health.quarantined
    health.record_failure()
    assert health.quarantined
    assert not health.available()
    assert events == [("backend-0", "enter")]


def test_health_quarantine_expires_on_cooldown():
    clock = Clock()
    policy = HealthPolicy(failure_threshold=1, quarantine_base=25e-3)
    health = BackendHealth("backend-0", clock, policy)
    health.mark_connected()
    health.record_failure()
    assert health.quarantined
    clock.now += 25e-3
    assert not health.quarantined       # lazy exit on the clock
    assert health.available()


def test_health_reset_for_new_incarnation_clears_quarantine():
    clock = Clock()
    events = []
    policy = HealthPolicy(failure_threshold=1, quarantine_base=10e-3,
                          quarantine_max=80e-3, quarantine_backoff=2.0)
    health = BackendHealth("backend-0", clock, policy,
                           on_event=lambda t, e: events.append((t, e)))
    health.mark_connected()
    health.record_failure()
    assert health.quarantined
    # The task restarts: the old process's record dies with it. The new
    # incarnation starts with a clean scoreboard and the base cooldown.
    health.reset_for_new_incarnation()
    assert not health.quarantined
    assert health.consecutive_failures == 0
    assert events == [("backend-0", "enter"), ("backend-0", "exit")]
    health.record_failure()
    clock.now += 10e-3                  # base cooldown, not the escalated one
    assert not health.quarantined


def test_restarted_backend_is_readmitted_despite_quarantine():
    """A crashed task's quarantine must not outlive the process: after a
    restart + recovery, a second fault elsewhere stays a single failure."""
    from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                            RepairConfig, ReplicationMode)
    from repro.core.repair import RepairScanner

    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony",
                         repair_config=RepairConfig(enabled=False)))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def driver():
        yield from client.set(b"k", b"v")
        cell.backend_by_task("backend-0").crash()
        # Enough failed legs to trip (and escalate) backend-0 quarantine.
        for _ in range(6):
            yield from client.set(b"k", b"v")
        cell.restart_backend_task("backend-0", shard=0)
        recovery = RepairScanner(cell.sim, cell,
                                 cell.backend_by_task("backend-0"))
        yield from recovery.restart_recovery()
        yield cell.sim.timeout(10e-3)
        yield from recovery.scan_once()
        # Second, non-overlapping fault: R=3.2 must still serve.
        cell.backend_by_task("backend-2").crash()
        result = yield from client.get(b"k")
        assert result.status is GetStatus.HIT, result

    cell.sim.run(until=cell.sim.process(driver()))


def test_health_cooldown_escalates_and_resets_on_success():
    clock = Clock()
    policy = HealthPolicy(failure_threshold=1, quarantine_base=10e-3,
                          quarantine_max=80e-3, quarantine_backoff=2.0)
    health = BackendHealth("backend-0", clock, policy)
    health.mark_connected()

    health.record_failure()             # cooldown 10ms, next 20ms
    clock.now += 10e-3
    assert not health.quarantined
    health.record_failure()             # cooldown 20ms
    clock.now += 10e-3
    assert health.quarantined           # still inside the escalated window
    clock.now += 10e-3
    assert not health.quarantined

    health.record_success()             # resets cooldown to base
    health.record_failure()
    clock.now += 10e-3
    assert not health.quarantined


def test_health_success_exits_quarantine_immediately():
    clock = Clock()
    events = []
    health = BackendHealth("backend-0", clock,
                           HealthPolicy(failure_threshold=1),
                           on_event=lambda t, e: events.append(e))
    health.mark_connected()
    health.record_failure()
    assert health.quarantined
    health.record_success()
    assert not health.quarantined
    assert events == ["enter", "exit"]


def test_health_mark_down_counts_as_failure_and_disconnects():
    health = BackendHealth("backend-0", Clock(),
                           HealthPolicy(failure_threshold=2))
    health.mark_connected()
    health.mark_down()
    assert not health.connected
    assert not health.available()
    health.mark_down()
    assert health.quarantined


def test_health_handshake_does_not_clear_quarantine():
    health = BackendHealth("backend-0", Clock(),
                           HealthPolicy(failure_threshold=1))
    health.mark_connected()
    health.record_failure()
    assert health.quarantined
    health.mark_connected()             # RPC channel works again...
    assert health.connected
    assert health.quarantined           # ...but the data path is unproven
    assert not health.available()


def test_health_policy_validation():
    with pytest.raises(CliqueMapError):
        HealthPolicy(failure_threshold=0)
    with pytest.raises(CliqueMapError):
        HealthPolicy(quarantine_base=0.0)
    with pytest.raises(CliqueMapError):
        HealthPolicy(quarantine_base=1.0, quarantine_max=0.5)
    with pytest.raises(CliqueMapError):
        HealthPolicy(quarantine_backoff=0.5)


# ----------------------------------------------------------------------
# Config validation (satellite: fail at construction, not mid-run)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"default_deadline": 0.0},
    {"default_deadline": -1.0},
    {"mutation_rpc_deadline": 0.0},
    {"touch_flush_interval": 0.0},
    {"reconnect_interval": 0.0},
    {"max_retries": 0},
    {"retry_backoff": -1e-6},
    {"retry_backoff": 5e-3, "retry_backoff_cap": 1e-3},
    {"retry_budget_fill_rate": -1.0},
    {"compression_min_bytes": -1},
])
def test_client_config_rejects_bad_values(kwargs):
    with pytest.raises(CliqueMapError):
        ClientConfig(**kwargs)


def test_client_config_defaults_are_valid():
    config = ClientConfig()
    assert config.max_retries >= 1
    assert config.retry_backoff_cap >= config.retry_backoff


@pytest.mark.parametrize("kwargs", [
    {"scan_interval": 0.0},
    {"scan_interval": -1.0},
])
def test_repair_config_rejects_bad_values(kwargs):
    with pytest.raises(CliqueMapError):
        RepairConfig(**kwargs)


def test_repair_config_defaults_are_valid():
    RepairConfig()
    RepairConfig(enabled=True)
