"""Deterministic random streams and workload distributions.

Every stochastic component draws from its own named :class:`RandomStream`
derived from a single experiment seed, so simulations are reproducible and
individual components can be re-seeded without perturbing others.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from array import array
from itertools import accumulate
from typing import List, Sequence, Tuple


class RandomStream:
    """A seeded random source with the distributions the workloads need."""

    def __init__(self, seed: int, name: str = ""):
        digest = hashlib.blake2b(
            f"{seed}/{name}".encode(), digest_size=8).digest()
        self._rng = random.Random(int.from_bytes(digest, "big"))
        self.name = name

    def child(self, name: str) -> "RandomStream":
        """Derive an independent stream for a sub-component."""
        return RandomStream(self._rng.randrange(2 ** 62), name)

    # -- basic draws --------------------------------------------------------

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def random_n(self, n: int) -> List[float]:
        """``n`` uniform draws in one call (same stream as :meth:`random`)."""
        rand = self._rng.random
        return [rand() for _ in range(n)]

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)

    def shuffle(self, seq: List) -> None:
        self._rng.shuffle(seq)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time for a Poisson process of ``rate``."""
        return self._rng.expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._rng.lognormvariate(mu, sigma)

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p


class ZipfSampler:
    """Draws ranks in ``[0, n)`` with probability proportional to 1/(r+1)^s.

    Two regimes, split at ``head`` (default 65536 ranks):

    * ``n <= head`` — a precomputed CDF (an ``array('d')``, 8 bytes per
      rank instead of a boxed-float list) with binary search. The float
      operations match the original list-based CDF term for term, so
      draws are seed-for-seed identical to every earlier release.
    * ``n > head`` — a **two-level** sampler: the hot head keeps its
      exact CDF table, and tail ranks (``head <= r < n``) are drawn by
      inverting the continuous density ``x^-s`` over ``[head+1, n+1]``
      and thinning with a rejection step that corrects the continuous
      envelope to the discrete pmf. Construction is O(head) in time and
      memory — a 10^7-key corpus builds in milliseconds with a 512 KB
      table where the single-level CDF took tens of seconds and ~GBs.
      The tail's total mass uses an Euler-Maclaurin estimate of the
      generalized harmonic remainder (relative error ~1e-9 at the
      default split). Tail draws consume extra uniforms, so the draw
      *sequence* differs from the exact regime; the *distribution* is
      the same (see tests), and which regime runs is a pure function of
      ``(n, head)`` — deterministic for a given configuration.
    """

    #: Ranks covered by the exact head table in two-level mode (and the
    #: largest corpus the single-level exact CDF is built for).
    HEAD_RANKS = 65536

    def __init__(self, stream: RandomStream, n: int, s: float = 0.99,
                 head: int = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        head = self.HEAD_RANKS if head is None else head
        if head < 1:
            raise ValueError("head must be >= 1")
        self._stream = stream
        self.n = n
        self.s = s
        self.head = min(n, head)
        # Weight of rank r is value k = r+1 to the -s. The 1.0/(k**s)
        # spelling (not k**-s) is load-bearing: it reproduces the
        # original CDF bit for bit in the exact regime.
        weights = [1.0 / (r + 1) ** s for r in range(self.head)]
        head_sum = math.fsum(weights)
        if self.n <= self.head:
            total = head_sum
            self._tail_start = 1.0       # head covers all of [0, 1)
        else:
            tail_sum = self._harmonic_tail(self.head + 1, self.n, s)
            total = head_sum + tail_sum
            self._tail_start = head_sum / total
            self._init_tail()
        cdf = array("d", accumulate(w / total for w in weights))
        if self.n <= self.head:
            cdf[-1] = 1.0
        self._cdf = cdf

    @staticmethod
    def _harmonic_tail(a: int, b: int, s: float) -> float:
        """Euler-Maclaurin estimate of ``sum(k^-s for k in [a, b])``."""
        if s == 1.0:
            integral = math.log(b / a)
        else:
            integral = (b ** (1.0 - s) - a ** (1.0 - s)) / (1.0 - s)
        ends = 0.5 * (a ** -s + b ** -s)
        slope = (s / 12.0) * (a ** (-s - 1.0) - b ** (-s - 1.0))
        return integral + ends + slope

    def _init_tail(self) -> None:
        # Tail draws propose a continuous x ~ density x^-s on
        # [a, b+1) (a = head+1 = first tail value, b = n = last), take
        # k = floor(x), and accept with probability proportional to
        # k^-s / integral(x^-s over [k, k+1)). That ratio decreases
        # monotonically in k toward 1, so normalizing by its value at
        # k=a makes the acceptance test exact; at the default split the
        # acceptance rate is ~1 - 1e-5, i.e. one extra uniform per draw.
        a, b, s = self.head + 1, self.n, self.s
        self._tail_a = a
        if s == 1.0:
            self._tail_log_ratio = math.log((b + 1.0) / a)
        else:
            self._tail_x_lo = a ** (1.0 - s)
            self._tail_x_span = (b + 1.0) ** (1.0 - s) - self._tail_x_lo
            self._tail_exp = 1.0 / (1.0 - s)
        self._tail_ratio_max = (a ** -s) / self._interval_mass(a)

    def _interval_mass(self, k: int) -> float:
        """``integral(x^-s over [k, k+1))`` — the continuous envelope's
        mass on the interval that maps to value ``k``."""
        s = self.s
        if s == 1.0:
            return math.log((k + 1.0) / k)
        return ((k + 1.0) ** (1.0 - s) - k ** (1.0 - s)) / (1.0 - s)

    def _sample_tail(self) -> int:
        s = self.s
        rand = self._stream.random
        while True:
            u = rand()
            if s == 1.0:
                x = self._tail_a * math.exp(u * self._tail_log_ratio)
            else:
                x = (self._tail_x_lo +
                     u * self._tail_x_span) ** self._tail_exp
            k = int(x)
            if k > self.n:       # float round-up at the upper edge
                k = self.n
            accept = (k ** -s) / (self._interval_mass(k) *
                                  self._tail_ratio_max)
            if rand() < accept:
                return k - 1     # value k -> rank k-1

    def sample(self) -> int:
        u = self._stream.random()
        if u < self._tail_start:
            return bisect.bisect_left(self._cdf, u)
        return self._sample_tail()

    def sample_n(self, n: int) -> List[int]:
        """``n`` ranks in one bulk draw; same sequence as ``n`` samples."""
        if self._tail_start == 1.0:
            cdf = self._cdf
            search = bisect.bisect_left
            return [search(cdf, u) for u in self._stream.random_n(n)]
        sample = self.sample
        return [sample() for _ in range(n)]


class MixtureSizeDistribution:
    """Object sizes drawn from a weighted mixture of lognormal components.

    Used to shape the Ads / Geo object-size CDFs of Figure 10: a body of
    small objects with a tail of much larger ones.
    """

    def __init__(self, stream: RandomStream,
                 components: Sequence[Tuple[float, float, float]],
                 min_size: int = 8, max_size: int = 8 * 1024 * 1024):
        """``components`` is a list of ``(weight, mu, sigma)`` for lognormals
        over bytes."""
        if not components:
            raise ValueError("at least one mixture component required")
        total = sum(w for w, _mu, _sig in components)
        self._components = [(w / total, mu, sig) for w, mu, sig in components]
        self._stream = stream
        self.min_size = min_size
        self.max_size = max_size

    def sample(self) -> int:
        u = self._stream.random()
        acc = 0.0
        mu = sigma = 0.0
        for w, m, s in self._components:
            acc += w
            mu, sigma = m, s
            if u <= acc:
                break
        size = int(self._stream.lognormal(mu, sigma))
        return max(self.min_size, min(self.max_size, size))

    def cdf_points(self, samples: int = 20000) -> List[Tuple[int, float]]:
        """Empirical CDF as (size, fraction<=size) points for reporting."""
        draws = sorted(self.sample() for _ in range(samples))
        step = max(1, samples // 200)
        return [(draws[i], (i + 1) / samples)
                for i in range(0, samples, step)] + [(draws[-1], 1.0)]


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile over pre-sorted values; ``p`` in [0, 100]."""
    if not sorted_values:
        raise ValueError("no values")
    if p <= 0:
        return sorted_values[0]
    if p >= 100:
        return sorted_values[-1]
    rank = max(0, min(len(sorted_values) - 1,
                      math.ceil(p / 100.0 * len(sorted_values)) - 1))
    return sorted_values[rank]
