"""Deployment configuration for a Snoopy cluster.

Three fields pick an *implementation* rather than a size: ``kernel``,
``crypto`` and ``execution_backend``.  Each axis has exactly two kinds
of value — the served path, which is the default, and a small reference
oracle that exists to pin it — and exactly one definition, owned by the
package that implements the axis and surfaced here:

* ``kernel`` — default ``"numpy"``, oracle ``"python"``:
  :data:`repro.oblivious.kernels.DEFAULT_KERNEL`;
* ``crypto`` — default ``"vector"``, oracle ``"scalar"``:
  :data:`repro.suboram.store.DEFAULT_CRYPTO`;
* ``execution_backend`` — default ``"thread"``, oracle ``"serial"``:
  :data:`repro.exec.DEFAULT_BACKEND`.

:class:`SnoopyConfig` takes its defaults from those names, and every
constructor that accepts one of the selectors (``SubOram``,
``ReplicatedSubOram``, ``LoadBalancer``, ``WorkerCluster``,
``make_backend``, the CLI) resolves an omitted value — ``None``, which
:class:`SnoopyConfig` accepts too — through the same name, so a
component built without a config serves the same path as one built with
``SnoopyConfig()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.exec import DEFAULT_BACKEND, parse_spec
from repro.oblivious.kernels import DEFAULT_KERNEL, validate_kernel_name
from repro.suboram.store import DEFAULT_CRYPTO, resolve_crypto
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class SnoopyConfig:
    """Public parameters of a Snoopy deployment (§2.1's public information).

    Attributes:
        num_load_balancers: L.
        num_suborams: S.
        value_size: fixed object size in bytes.
        security_parameter: lambda; overflow probability <= 2^-lambda.
        epoch_duration: epoch length T in seconds.  Used by the
            performance simulator, and — when the deployment runs
            pipelined (:meth:`~repro.core.snoopy.Snoopy.start_pipeline`)
            — as the period of the background epoch clock that closes
            batches on the load balancers.  ``run_epoch`` closes
            epochs on demand instead.
        pipeline_depth: maximum in-flight epochs under the pipelined
            scheduler (§6's double-buffering; default 2 matches the
            paper's latency <= 2T claim).  An epoch is in flight from
            close until its responses are matched back; when the limit
            is reached the clock skips ticks and requests keep
            accumulating on the balancers (backpressure).  Public
            information: cadence and depth are scheduling facts the
            attacker already observes.
        execution_backend: how epoch stages execute — an
            :mod:`repro.exec` spec string (``"thread"`` — the default —
            ``"thread:8"``, or ``"serial"``, the inline reference).
            Public information: the attacker already sees the degree of
            physical parallelism.
        max_workers: pool size for parallel backends (None = backend
            default; a ``:N`` spec suffix takes precedence).
        kernel: oblivious-kernel selector, ``"numpy"`` (default: the
            vectorized structure-of-arrays path) or ``"python"`` (the
            scalar reference oracle).  Public information: the kernel
            only changes how each fixed schedule level executes, never
            which addresses it touches (see
            :mod:`repro.oblivious.kernels`).
        crypto: store-crypto selector, ``"vector"`` (default: the
            whole partition sealed and opened as one AES-GCM message
            per epoch) or ``"scalar"`` (one HMAC-AEAD call per slot —
            the audited oracle; byte-identical responses; the python
            kernel always runs it).  Public information: the mode
            changes only how many calls move the ciphertexts; nonces
            stay enclave-pinned and sealed lengths are functions of
            shape (SECURITY.md "The vector crypto kernel").
        task_timeout: per-task timeout in seconds for pooled backends
            (None = unbounded).  An overrun raises
            :class:`~repro.errors.TaskTimeoutError`, a retryable fault.
        epoch_max_attempts: total attempts per epoch (1 = legacy
            fail-fast; >1 enables atomic epoch retry — a failed attempt
            requeues its requests and the epoch is re-run).
        epoch_backoff_base: first retry delay in seconds (0 = no sleep).
        epoch_backoff_factor: exponential multiplier per further retry.
        epoch_backoff_jitter: relative jitter amplitude on each delay,
            drawn deterministically from ``epoch_retry_seed``.
        epoch_retry_seed: seed of the backoff jitter stream.
        replication: §9 fault-tolerance parameters ``(f, r)`` — tolerate
            ``f`` fail-stop crashes and ``r`` rollbacks per subORAM by
            running each as a :class:`~repro.extensions.replication.\
ReplicatedSubOram` group of ``f + r + 1`` replicas.  ``None`` (default)
            deploys unreplicated subORAMs.  Public information: replica
            counts and crash/recovery events are infrastructure facts the
            cloud attacker already controls.
        telemetry: optional :class:`~repro.telemetry.Telemetry` handle
            the deployment wires through every layer (epoch driver,
            backend, kernels, retry/fault machinery).  ``None`` (default)
            means telemetry is off and every instrumentation point is a
            shared no-op.  Excluded from equality/repr: a live handle is
            runtime plumbing, not a public parameter — the quantities it
            exports are (see SECURITY.md "Telemetry is public
            information").
    """

    num_load_balancers: int = 1
    num_suborams: int = 1
    value_size: int = 160
    security_parameter: int = 128
    epoch_duration: float = 0.2
    pipeline_depth: int = 2
    execution_backend: str = DEFAULT_BACKEND
    max_workers: Optional[int] = None
    kernel: str = DEFAULT_KERNEL
    crypto: str = DEFAULT_CRYPTO
    task_timeout: Optional[float] = None
    epoch_max_attempts: int = 1
    epoch_backoff_base: float = 0.0
    epoch_backoff_factor: float = 2.0
    epoch_backoff_jitter: float = 0.1
    epoch_retry_seed: int = 0
    replication: Optional[Tuple[int, int]] = None
    telemetry: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # ``None`` for a selector means "the axis default", so a caller
        # forwarding an optional flag or keyword carries no literal.
        for axis in ("execution_backend", "kernel", "crypto"):
            if getattr(self, axis) is None:
                object.__setattr__(
                    self, axis, self.__dataclass_fields__[axis].default
                )
        require_positive(self.num_load_balancers, "num_load_balancers")
        require_positive(self.num_suborams, "num_suborams")
        require_positive(self.value_size, "value_size")
        require(
            self.security_parameter >= 0,
            "security_parameter must be >= 0",
        )
        require(self.epoch_duration > 0, "epoch_duration must be positive")
        require(self.pipeline_depth >= 1, "pipeline_depth must be >= 1")
        if self.max_workers is not None:
            require_positive(self.max_workers, "max_workers")
        if self.task_timeout is not None:
            require(self.task_timeout > 0, "task_timeout must be positive")
        require(
            self.epoch_max_attempts >= 1, "epoch_max_attempts must be >= 1"
        )
        require(
            self.epoch_backoff_base >= 0,
            "epoch_backoff_base must be >= 0",
        )
        require(
            self.epoch_backoff_factor >= 1,
            "epoch_backoff_factor must be >= 1",
        )
        require(
            self.epoch_backoff_jitter >= 0,
            "epoch_backoff_jitter must be >= 0",
        )
        if self.replication is not None:
            require(
                isinstance(self.replication, tuple)
                and len(self.replication) == 2,
                "replication must be an (f, r) tuple",
            )
            f, r = self.replication
            require(
                isinstance(f, int) and isinstance(r, int),
                "replication (f, r) must be integers",
            )
            require(f >= 0, "replication f (crash failures) must be >= 0")
            require(r >= 0, "replication r (rollbacks) must be >= 0")
            require(
                f + r >= 1,
                "replication (0, 0) is a single unreplicated copy; "
                "use replication=None instead",
            )
        # Validate the selectors eagerly so a typo fails at configuration
        # time, not at the first epoch.
        parse_spec(self.execution_backend)
        validate_kernel_name(self.kernel)
        resolve_crypto(self.crypto)

    @property
    def num_machines(self) -> int:
        """Total machine count (one enclave machine per component)."""
        return self.num_load_balancers + self.num_suborams
