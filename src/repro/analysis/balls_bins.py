"""Theorem 3: the Lambert-W batch-size bound (§4.1 and Appendix A).

Given ``R`` distinct, randomly distributed requests and ``S`` subORAMs, the
paper sets the per-subORAM batch size to

    f(R, S) = min(R, mu * exp[ W0( e^-1 * (gamma/mu - 1) ) + 1 ])

where ``mu = R/S``, ``gamma = -log(1/(S * 2^lambda)) = ln S + lambda ln 2``
(the derivation uses natural logarithms), and ``W0`` is branch 0 of the
Lambert W function.  With batch size ``f(R, S)`` the probability that *any*
subORAM receives more requests than its batch can hold is at most
``2^-lambda`` (Chernoff bound + union bound over subORAMs).

The same bound sizes the oblivious hash-table buckets in the subORAM (§5),
"exactly the problem that we solved in the load balancer"; its spill, by
:func:`spill_capacity`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.utils.validation import require, require_positive

DEFAULT_SECURITY_PARAMETER = 128


@functools.lru_cache(maxsize=65536)
def _batch_size_bound(num_requests: int, num_bins: int, security_parameter: int) -> int:
    """The memoized Lambert-W evaluation behind :func:`batch_size`.

    Arguments arrive pre-validated and pre-normalized (the public wrapper
    substitutes the default ``lambda``), so a call spelled
    ``batch_size(R, S)`` and one spelled ``batch_size(R, S, 128)`` share
    a single cache entry.  The cache matters under the pipelined epoch
    scheduler: every balancer recomputes ``f(R, S)`` each epoch with a
    recurring handful of ``(R, S)`` shapes, and a hit skips the
    Lambert-W evaluation entirely.
    """
    if num_requests == 0:
        return 0
    if security_parameter == 0:
        return math.ceil(num_requests / num_bins)
    if num_bins == 1:
        return num_requests

    mu = num_requests / num_bins
    gamma = math.log(num_bins) + security_parameter * math.log(2.0)
    # delta >= exp(W0(e^-1 (gamma/mu - 1)) + 1) - 1; B = (1 + delta) * mu.
    argument = (gamma / mu - 1.0) / math.e
    if argument < -1.0 / math.e:
        # W0 undefined; happens only when gamma < mu * (1 - e) < 0, i.e.
        # never for positive gamma.  Guard anyway.
        return num_requests
    w = lambert_w0(argument)
    bound = mu * math.exp(w + 1.0)
    return min(num_requests, math.ceil(bound))


def lambert_w0(x: float) -> float:
    """Branch 0 of the Lambert W function for real ``x >= -1/e``.

    Halley's iteration on ``w * e^w = x`` from a start near the root:
    the branch-point series in ``p = sqrt(2 (e x + 1))`` below ``-1/4``,
    ``log1p(x)`` up to ``e``, ``log x - log log x`` above.
    """
    if x == 0.0:
        return 0.0
    if x < -0.25:
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * 11.0 / 72.0))
    elif x < math.e:
        w = math.log1p(x)
    else:
        w = math.log(x) - math.log(math.log(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if f == 0.0 or wp1 == 0.0:
            break
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-15 * (1.0 + abs(w)):
            break
    return w


def batch_size(num_requests: int, num_bins: int, security_parameter: int = DEFAULT_SECURITY_PARAMETER) -> int:
    """The paper's ``f(R, S)``: per-bin capacity with negligible overflow.

    Memoized: results are served from an LRU cache keyed on the
    normalized ``(R, S, lambda)`` triple (``batch_size(R, S)`` and
    ``batch_size(R, S, 128)`` hit the same entry); see
    :func:`batch_size_cache_info`.  Validation runs on every call — only
    the Lambert-W evaluation is cached.

    Args:
        num_requests: ``R`` — number of distinct balls (requests).
        num_bins: ``S`` — number of bins (subORAMs or hash buckets).
        security_parameter: ``lambda``; overflow probability <= 2^-lambda.
            ``0`` means "no security margin": plain ``ceil(R/S)`` (the
            paper's lambda=0 line in Fig. 4).

    Returns:
        The batch size ``B`` (an integer; the analytical bound is rounded
        up).  Always ``<= R`` and ``>= ceil(R/S)``.
    """
    require_positive(num_bins, "num_bins")
    require(num_requests >= 0, f"num_requests must be >= 0, got {num_requests}")
    require(security_parameter >= 0, "security_parameter must be >= 0")
    return _batch_size_bound(int(num_requests), int(num_bins), int(security_parameter))


def batch_size_cache_info():
    """Hit/miss statistics of the :func:`batch_size` LRU cache.

    Returns the standard :func:`functools.lru_cache` ``CacheInfo`` named
    tuple (``hits``, ``misses``, ``maxsize``, ``currsize``).  Cache
    occupancy is a function of the ``(R, S, lambda)`` shapes seen — all
    public parameters — so exposing it leaks nothing about request
    contents.
    """
    return _batch_size_bound.cache_info()


def batch_size_cache_clear() -> None:
    """Reset the :func:`batch_size` cache (benchmark/test isolation)."""
    _batch_size_bound.cache_clear()


def log_overflow_probability(num_requests: int, num_bins: int, capacity: int) -> float:
    """Natural log of the Chernoff+union upper bound on overflow probability.

    ``Pr[any bin > capacity] <= S * (e^delta / (1+delta)^(1+delta))^mu``
    with ``1 + delta = capacity / mu``.  Returns ``0.0`` (probability 1)
    when the bound is vacuous and ``-inf`` when overflow is impossible
    (capacity >= R).
    """
    require_positive(num_bins, "num_bins")
    if capacity >= num_requests:
        return float("-inf")
    mu = num_requests / num_bins
    if capacity <= mu:
        return 0.0
    one_plus_delta = capacity / mu
    delta = one_plus_delta - 1.0
    log_per_bin = mu * (delta - one_plus_delta * math.log(one_plus_delta))
    return min(0.0, math.log(num_bins) + log_per_bin)


def overflow_probability(num_requests: int, num_bins: int, capacity: int) -> float:
    """The Chernoff+union overflow bound as a probability (may underflow to 0)."""
    log_p = log_overflow_probability(num_requests, num_bins, capacity)
    if log_p == float("-inf"):
        return 0.0
    return math.exp(log_p)


def security_bits(num_requests: int, num_bins: int, capacity: int) -> float:
    """How many bits of security a given capacity provides: -log2(overflow bound)."""
    log_p = log_overflow_probability(num_requests, num_bins, capacity)
    if log_p == float("-inf"):
        return float("inf")
    return -log_p / math.log(2.0)


def log_spill_mgf(num_items: int, num_bins: int, bin_size: int, t):
    """Upper bound on a bin's spill MGF, in log space, per ``t`` given.

    ``b * ln E[exp(t * max(0, X - bin_size))]``, ``X ~ Bin(num_items, 1/b)``,
    ``b = num_bins >= 2``: the pmf to a cut far past the mean (cheap at
    10^6 items), then a geometric series (``inf`` where its ratio >= 1).
    """
    p = 1.0 / num_bins
    cut = min(num_items, bin_size + 8 * math.ceil(num_items * p) + 512)
    k = np.arange(cut + 1)
    # ln pmf(k) = n ln(1 - p) + the sum over i < k of ln pmf(i+1)/pmf(i).
    steps = np.log((num_items - k[:-1]) / (k[:-1] + 1) * (p / (1 - p)))
    log_pmf = num_items * math.log1p(-p) + np.append(0.0, np.cumsum(steps))
    terms = log_pmf + np.multiply.outer(t, np.maximum(k - bin_size, 0))
    if cut < num_items:
        ratio = np.minimum(math.log((num_items - cut) / (cut + 1) * p
                                    / (1 - p)) + t, -1e-300)
        tail = np.where(ratio < -1e-300, terms[..., -1] + ratio
                        - np.log(-np.expm1(ratio)), np.inf)
        terms = np.concatenate([terms, tail[..., None]], axis=-1)
    return num_bins * np.logaddexp.reduce(terms, axis=-1)


@functools.lru_cache(maxsize=4096)
def spill_capacity(num_items: int, num_bins: int, bin_size: int,
                   security_parameter: int = DEFAULT_SECURITY_PARAMETER) -> int:
    """The bins' total spill is at most this except w.p. <= 2^-lambda.

    The smallest ``C`` with ``Pr[sum_i max(0, X_i - bin_size) >= C] <=
    2^-lambda`` by the MGF bound, or ``num_items - bin_size`` if less.
    Overflows are negatively associated (Dubhashi and Ranjan, 1998), so
    by Markov ``C = min_t (log_spill_mgf(t) + lambda ln 2) / t`` over
    ``t > 0``, a quasi-convex ratio found on a log grid zoomed in twice.
    """
    most = max(0, num_items - bin_size)
    if most == 0 or num_bins == 1:
        return most
    low, high = -12.0, 4.0  # ln t
    for _ in range(3):
        t = np.exp(np.linspace(low, high, 65))
        bound = (log_spill_mgf(num_items, num_bins, bin_size, t)
                 + security_parameter * math.log(2.0)) / t
        best = int(np.argmin(bound))
        low, high = np.log(t[[max(best - 1, 0), min(best + 1, 64)]])
    return min(most, math.ceil(bound[best]))
