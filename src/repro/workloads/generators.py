"""Seeded request generators: key distributions behind a fixed shape.

The paper benchmarks with a uniform request distribution and notes that
— because the system is oblivious — the distribution cannot affect
performance (§8, "Experiment Setup"); the load balancer's deduplication
specifically neutralizes hot keys (§4.1).  Skew is therefore exactly
where the obliviousness guarantee *bites*: an adversarial workload must
look identical to a uniform one in every public signal.  This module is
built so that claim is checkable **by construction**:

Every generator splits its seed into two independent streams:

* the **shape stream** decides everything public — the read/write flag
  of each slot, the written bytes, the target load balancer;
* the **key stream** feeds the distribution-specific sampler — which
  object each request touches.

Two workloads generated with the same ``(count, seed, write_fraction,
value_size)`` but different distributions are then *identical in shape*
(same op sequence, same values, same balancers) and differ only in the
keys they access — precisely the "same shape, different access pattern"
pair the skew-insensitivity differential tests compare.

Distributions:

* ``uniform`` — every key equally likely;
* ``zipf`` — rank-frequency skew with exponent ``zipf_exponent``
  (``s >= 1.0`` is a heavy hot-key head, the adversarial case for
  batch overflow and the one Cloak-style optimizers exploit);
* ``tenant`` — a multi-tenant mix: each tenant owns a **disjoint** key
  range and draws from its own distribution, weighted by traffic share
  (requests carry the tenant id as ``client_id``).

Read/write-ratio sweeps are spec families, not a distribution:
:func:`write_ratio_sweep` clones a spec across write fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.types import OpType, Request
from repro.utils.validation import require, require_positive

#: XOR-salt separating the key stream from the shape stream.  An int so
#: the derivation is stable across processes (no PYTHONHASHSEED).
_KEY_STREAM_SALT = 0x5EED_0B1A_5E55

#: Distribution names accepted by :class:`WorkloadSpec`.
DISTRIBUTIONS = ("uniform", "zipf", "tenant")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant mix.

    Attributes:
        tenant_id: carried on every request as ``client_id``.
        num_keys: size of the tenant's private key range.  Ranges are
            laid out back to back in spec order, so tenants are
            disjoint by construction.
        weight: relative traffic share (need not be normalized).
        distribution: per-tenant key distribution (``uniform``/``zipf``).
        zipf_exponent: exponent when ``distribution == "zipf"``.
    """

    tenant_id: int
    num_keys: int
    weight: float = 1.0
    distribution: str = "uniform"
    zipf_exponent: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self.num_keys, "tenant num_keys")
        require(self.weight > 0, "tenant weight must be positive")
        require(
            self.distribution in ("uniform", "zipf"),
            f"unknown tenant distribution {self.distribution!r}",
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Public description of a synthetic workload (its *shape* knobs).

    Attributes:
        distribution: one of :data:`DISTRIBUTIONS`.
        num_keys: key-space size (ignored for ``tenant``, where the
            space is the concatenation of the tenant ranges).
        write_fraction: probability a slot is a write (shape stream).
        value_size: written-value size in bytes.
        zipf_exponent: skew exponent for ``zipf``.
        tenants: the tenant mix for ``tenant``.
    """

    distribution: str = "uniform"
    num_keys: int = 1024
    write_fraction: float = 0.5
    value_size: int = 160
    zipf_exponent: float = 1.0
    tenants: Tuple[TenantSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require(
            self.distribution in DISTRIBUTIONS,
            f"unknown distribution {self.distribution!r}; "
            f"valid: {list(DISTRIBUTIONS)}",
        )
        require(
            0.0 <= self.write_fraction <= 1.0,
            "write_fraction must be in [0, 1]",
        )
        require_positive(self.value_size, "value_size")
        if self.distribution == "tenant":
            require(len(self.tenants) >= 1, "tenant mix needs >= 1 tenant")
            ids = [t.tenant_id for t in self.tenants]
            require(
                len(ids) == len(set(ids)), "tenant ids must be unique"
            )
        else:
            require_positive(self.num_keys, "num_keys")
            require(
                self.zipf_exponent > 0, "zipf_exponent must be positive"
            )

    @property
    def total_keys(self) -> int:
        """Size of the full key space the workload can touch."""
        if self.distribution == "tenant":
            return sum(t.num_keys for t in self.tenants)
        return self.num_keys

    def key_ranges(self) -> List[Tuple[int, int, int]]:
        """``(tenant_id, lo, hi)`` half-open key ranges, disjoint.

        Non-tenant specs report one range for pseudo-tenant 0.
        """
        if self.distribution != "tenant":
            return [(0, 0, self.num_keys)]
        ranges, base = [], 0
        for tenant in self.tenants:
            ranges.append((tenant.tenant_id, base, base + tenant.num_keys))
            base += tenant.num_keys
        return ranges

    def to_dict(self) -> Dict[str, object]:
        """A canonical JSON-ready rendering (trace headers, tuner IDs)."""
        spec: Dict[str, object] = {
            "distribution": self.distribution,
            "num_keys": self.num_keys,
            "write_fraction": self.write_fraction,
            "value_size": self.value_size,
            "zipf_exponent": self.zipf_exponent,
        }
        if self.tenants:
            spec["tenants"] = [
                {
                    "tenant_id": t.tenant_id,
                    "num_keys": t.num_keys,
                    "weight": t.weight,
                    "distribution": t.distribution,
                    "zipf_exponent": t.zipf_exponent,
                }
                for t in self.tenants
            ]
        return spec

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict`."""
        tenants = tuple(
            TenantSpec(**tenant) for tenant in spec.get("tenants", [])
        )
        return cls(
            distribution=str(spec.get("distribution", "uniform")),
            num_keys=int(spec.get("num_keys", 1024)),
            write_fraction=float(spec.get("write_fraction", 0.5)),
            value_size=int(spec.get("value_size", 160)),
            zipf_exponent=float(spec.get("zipf_exponent", 1.0)),
            tenants=tenants,
        )


# ---------------------------------------------------------------------------
# Key samplers (the key-stream side)
# ---------------------------------------------------------------------------
class UniformSampler:
    """Uniform keys over ``[0, num_keys)``."""

    def __init__(self, num_keys: int, rng: Optional[random.Random] = None):
        require_positive(num_keys, "num_keys")
        self._num_keys = num_keys
        self._rng = rng if rng is not None else random.Random()

    def sample(self) -> int:
        """Draw one key."""
        return self._rng.randrange(self._num_keys)


class ZipfSampler:
    """Zipf(s) sampler over ``[0, n)`` via inverse-CDF binary search.

    Rank 0 is the hottest key: ``P(rank) ∝ (rank + 1) ** -s``.  The
    weight table is exact (no sampling), so rank-frequency monotonicity
    is a structural property — :meth:`weights` exposes it for tests.
    """

    def __init__(self, num_keys: int, exponent: float = 1.0,
                 rng: Optional[random.Random] = None):
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self._rng = rng if rng is not None else random.Random()
        self._weights = [
            1.0 / (rank ** exponent) for rank in range(1, num_keys + 1)
        ]
        total = 0.0
        self._cdf = []
        for w in self._weights:
            total += w
            self._cdf.append(total)
        self._total = total

    def weights(self) -> List[float]:
        """The exact per-rank weights (strictly decreasing)."""
        return list(self._weights)

    def sample(self) -> int:
        """Draw one Zipf-distributed key (rank 0 hottest)."""
        target = self._rng.random() * self._total
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo


class TenantSampler:
    """Weighted multi-tenant sampler over disjoint key ranges."""

    def __init__(self, spec: WorkloadSpec, rng: Optional[random.Random] = None):
        require(spec.tenants, "TenantSampler needs a tenant mix")
        self._rng = rng if rng is not None else random.Random()
        self._bases: List[int] = []
        self._samplers: List[object] = []
        self._tenant_ids: List[int] = []
        cumulative, self._cum_weights = 0.0, []
        base = 0
        for tenant in spec.tenants:
            self._tenant_ids.append(tenant.tenant_id)
            self._bases.append(base)
            if tenant.distribution == "zipf":
                sampler = ZipfSampler(
                    tenant.num_keys, tenant.zipf_exponent, self._rng
                )
            else:
                sampler = UniformSampler(tenant.num_keys, self._rng)
            self._samplers.append(sampler)
            base += tenant.num_keys
            cumulative += tenant.weight
            self._cum_weights.append(cumulative)
        self._total_weight = cumulative

    def sample_with_tenant(self) -> Tuple[int, int]:
        """Draw ``(key, tenant_id)`` — key offset into the tenant range."""
        target = self._rng.random() * self._total_weight
        index = 0
        while self._cum_weights[index] < target:
            index += 1
        key = self._bases[index] + self._samplers[index].sample()
        return key, self._tenant_ids[index]

    def sample(self) -> int:
        """Draw one key (tenant chosen by weight)."""
        return self.sample_with_tenant()[0]


def make_sampler(spec: WorkloadSpec, rng: random.Random):
    """Build the key sampler a spec describes, drawing from ``rng``."""
    if spec.distribution == "uniform":
        return UniformSampler(spec.num_keys, rng)
    if spec.distribution == "zipf":
        return ZipfSampler(spec.num_keys, spec.zipf_exponent, rng)
    return TenantSampler(spec, rng)


# ---------------------------------------------------------------------------
# Request generation (shape stream x key stream)
# ---------------------------------------------------------------------------
def shape_rng(seed: int) -> random.Random:
    """The shape stream for ``seed`` (ops, values, balancers)."""
    return random.Random(seed)


def key_rng(seed: int) -> random.Random:
    """The key stream for ``seed`` — independent of the shape stream."""
    return random.Random(seed ^ _KEY_STREAM_SALT)


def generate_requests(
    spec: WorkloadSpec,
    count: int,
    seed: int,
    *,
    start_seq: int = 0,
    client_id: int = 0,
) -> List[Request]:
    """``count`` seeded requests drawn from ``spec``.

    Shape (op flags, values) comes from the shape stream, keys from the
    key stream: same ``(count, seed)`` across distributions ⇒ identical
    shape.  Tenant workloads override ``client_id`` with the tenant id.
    """
    shapes, keys = shape_rng(seed), key_rng(seed)
    sampler = make_sampler(spec, keys)
    tenant_mode = spec.distribution == "tenant"
    requests = []
    for i in range(count):
        seq = start_seq + i
        if tenant_mode:
            key, tenant = sampler.sample_with_tenant()
            owner = tenant
        else:
            key, owner = sampler.sample(), client_id
        if shapes.random() < spec.write_fraction:
            value = bytes(
                shapes.getrandbits(8) for _ in range(spec.value_size)
            )
            requests.append(Request(
                OpType.WRITE, key, value, client_id=owner, seq=seq
            ))
        else:
            requests.append(Request(
                OpType.READ, key, client_id=owner, seq=seq
            ))
    return requests


def generate_schedule(
    spec: WorkloadSpec,
    num_epochs: int,
    per_epoch: int,
    seed: int,
    *,
    num_balancers: int = 1,
) -> List[List[Tuple[Request, int]]]:
    """A multi-epoch ``(request, load_balancer)`` schedule.

    The harness-shaped counterpart of :func:`generate_requests`:
    balancer assignment comes from the shape stream, so schedules of
    different distributions stay shape-identical epoch by epoch.
    """
    require_positive(num_balancers, "num_balancers")
    shapes, keys = shape_rng(seed), key_rng(seed)
    sampler = make_sampler(spec, keys)
    tenant_mode = spec.distribution == "tenant"
    epochs: List[List[Tuple[Request, int]]] = []
    for _ in range(num_epochs):
        slots = []
        for i in range(per_epoch):
            balancer = shapes.randrange(num_balancers)
            if tenant_mode:
                key, owner = sampler.sample_with_tenant()
            else:
                key, owner = sampler.sample(), 0
            if shapes.random() < spec.write_fraction:
                value = bytes(
                    shapes.getrandbits(8) for _ in range(spec.value_size)
                )
                request = Request(
                    OpType.WRITE, key, value, client_id=owner, seq=i
                )
            else:
                request = Request(OpType.READ, key, client_id=owner, seq=i)
            slots.append((request, balancer))
        epochs.append(slots)
    return epochs


def write_ratio_sweep(
    spec: WorkloadSpec, fractions: Sequence[float]
) -> List[WorkloadSpec]:
    """The spec family sweeping ``write_fraction`` over ``fractions``."""
    return [replace(spec, write_fraction=f) for f in fractions]


def parse_workload_spec(
    text: str,
    *,
    num_keys: int = 1024,
    write_fraction: float = 0.5,
    value_size: int = 160,
) -> WorkloadSpec:
    """Parse a CLI workload shorthand into a :class:`WorkloadSpec`.

    Accepted forms (``--workload`` on ``python -m repro tune``):

    * ``uniform``
    * ``zipf`` or ``zipf:1.2`` (exponent after the colon)
    * ``tenant:8x1024`` — N equal-weight uniform tenants of K keys each
    * a path to a JSON file holding :meth:`WorkloadSpec.to_dict` output

    The keyword defaults fill in whatever the shorthand leaves open, so
    the CLI's ``--keys/--write-fraction`` flags keep working.
    """
    import json as _json
    import os as _os

    if text.endswith(".json") or _os.path.sep in text:
        with open(text, "r", encoding="utf-8") as handle:
            return WorkloadSpec.from_dict(_json.load(handle))
    name, _, param = text.partition(":")
    if name == "uniform":
        return WorkloadSpec(
            distribution="uniform", num_keys=num_keys,
            write_fraction=write_fraction, value_size=value_size,
        )
    if name == "zipf":
        return WorkloadSpec(
            distribution="zipf", num_keys=num_keys,
            write_fraction=write_fraction, value_size=value_size,
            zipf_exponent=float(param) if param else 1.0,
        )
    if name == "tenant":
        count_text, _, keys_text = param.partition("x")
        count = int(count_text) if count_text else 4
        per_tenant = int(keys_text) if keys_text else max(
            1, num_keys // max(1, count)
        )
        return WorkloadSpec(
            distribution="tenant",
            write_fraction=write_fraction, value_size=value_size,
            tenants=tuple(
                TenantSpec(tenant_id=i + 1, num_keys=per_tenant)
                for i in range(count)
            ),
        )
    raise ValueError(
        f"unknown workload {text!r}; expected uniform, zipf[:s], "
        "tenant[:NxK], or a spec JSON path"
    )


# ---------------------------------------------------------------------------
# Single-stream entry points (one caller-supplied RNG)
# ---------------------------------------------------------------------------
def uniform_requests(
    count: int,
    num_keys: int,
    write_fraction: float = 0.5,
    value_size: int = 160,
    rng: Optional[random.Random] = None,
) -> List[Request]:
    """Uniform reads/writes drawn from one caller-supplied RNG.

    The historical (pre-``WorkloadSpec``) surface; new code should use
    :func:`generate_requests`, whose split seed streams make shape
    comparable across distributions.
    """
    rng = rng if rng is not None else random.Random()
    sampler = UniformSampler(num_keys, rng)
    return _legacy_requests(sampler, count, write_fraction, value_size, rng)


def zipf_requests(
    count: int,
    num_keys: int,
    exponent: float = 1.0,
    write_fraction: float = 0.5,
    value_size: int = 160,
    rng: Optional[random.Random] = None,
) -> List[Request]:
    """Zipf-skewed reads/writes drawn from one caller-supplied RNG.

    Historical surface; see :func:`uniform_requests`.
    """
    rng = rng if rng is not None else random.Random()
    sampler = ZipfSampler(num_keys, exponent, rng)
    return _legacy_requests(sampler, count, write_fraction, value_size, rng)


def _legacy_requests(sampler, count, write_fraction, value_size, rng):
    requests = []
    for seq in range(count):
        key = sampler.sample()
        if rng.random() < write_fraction:
            value = bytes(rng.getrandbits(8) for _ in range(value_size))
            requests.append(Request(OpType.WRITE, key, value, seq=seq))
        else:
            requests.append(Request(OpType.READ, key, seq=seq))
    return requests
