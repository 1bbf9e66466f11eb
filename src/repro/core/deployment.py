"""A distributed-style Snoopy deployment with real encrypted transport.

Where :class:`~repro.core.snoopy.Snoopy` wires components with direct
Python calls, ``DistributedSnoopy`` reproduces the deployment story of
§3.1:

* each load balancer and subORAM runs in its own
  :class:`~repro.enclave.model.Enclave`;
* components prove themselves to each other via remote attestation
  against a shared :class:`~repro.enclave.attestation.AttestationService`
  whitelist (the Snoopy release measurements);
* every load-balancer <-> subORAM message is serialized
  (:meth:`Batch.to_bytes <repro.oblivious.soa.Batch.to_bytes>`: a length
  fixed by batch size and value size) and sent through an AEAD
  :class:`~repro.crypto.aead.SecureChannel` with replay protection.

It *is* a :class:`~repro.core.snoopy.Snoopy` — same construction, same
epoch body under either scheduler, same front door — whose stage-➋
delivery crosses the sealed channels instead of a Python call.
Identical results for identical requests, but a tampering or replaying
network raises :class:`~repro.errors.IntegrityError` /
:class:`~repro.errors.ReplayError`, which the integration tests inject.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.config import SnoopyConfig
from repro.core.faults import FaultPlan
from repro.core.snoopy import Snoopy
from repro.crypto.aead import SecureChannelPair
from repro.crypto.keys import KeyChain
from repro.enclave.attestation import AttestationService
from repro.enclave.model import Enclave
from repro.errors import TransportError
from repro.oblivious.soa import Batch


class _ChannelPair:
    """Both *endpoints* of an attested LB <-> subORAM link.

    The in-process deployment simulates the wire, so it holds the load
    balancer's :class:`SecureChannelPair` and the subORAM's — the same
    construction :mod:`repro.serve.secure` gives each endpoint of a real
    TCP link after the attested handshake.
    """

    def __init__(self, key: bytes, name: str):
        self.lb = SecureChannelPair(key, name, initiator=True)
        self.so = SecureChannelPair(key, name, initiator=False)


class DistributedSnoopy(Snoopy):
    """Snoopy with per-component enclaves and encrypted transport."""

    def __init__(self, config: SnoopyConfig, keychain: Optional[KeyChain] = None,
                 rng: Optional[random.Random] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 telemetry=None):
        """Assemble the attested deployment.

        Args:
            config: public deployment parameters.
            keychain: deployment secrets (generated if omitted).
            rng: randomness for client load-balancer selection.
            fault_plan: optional deterministic
                :class:`~repro.core.faults.FaultPlan`; in addition to the
                backend and replica seams this deployment injects
                scheduled ``transport_error`` events into the sealed
                LB <-> subORAM hop.
            telemetry: optional :class:`~repro.telemetry.Telemetry`
                handle; overrides ``config.telemetry``.
        """
        super().__init__(
            config, keychain, rng, fault_plan=fault_plan, telemetry=telemetry,
        )
        # Provision the attestation service with the release measurements.
        self.attestation = AttestationService()
        self.balancer_enclaves = [
            Enclave(f"snoopy-lb-{i}") for i in range(config.num_load_balancers)
        ]
        self.suboram_enclaves = [
            Enclave(f"snoopy-suboram-{s}") for s in range(config.num_suborams)
        ]
        for enclave in self.balancer_enclaves + self.suboram_enclaves:
            self.attestation.trust(enclave.measurement)

        # Attested channel establishment: each pair verifies the peer's
        # quote before deriving the channel key.
        self._channels: Dict[tuple, _ChannelPair] = {}
        for i, lb_enclave in enumerate(self.balancer_enclaves):
            for s, so_enclave in enumerate(self.suboram_enclaves):
                self._verify_peer(lb_enclave)
                self._verify_peer(so_enclave)
                key = self.keychain.channel_key(lb_enclave.name, so_enclave.name)
                self._channels[(i, s)] = _ChannelPair(key, f"lb{i}-so{s}")

    def _verify_peer(self, enclave: Enclave) -> None:
        quote = self.attestation.quote(enclave, b"\x00" * 32)
        self.attestation.verify(quote)  # raises AttestationError if rogue

    def _transport(self, suboram_index: int, suboram, chain) -> list:
        """Stage-➋ delivery of one subORAM's chain: seal every batch on
        its own link, cross the hostile network, execute the opened
        batches as one epoch, and seal each reply back on its link."""
        if (
            self._injector is not None
            and self._injector.transport_fault(suboram_index)
        ):
            # Injected before any channel send so replay counters stay
            # aligned and the retried chain is a clean re-delivery.
            fault = TransportError(
                f"injected transport failure on the links of subORAM "
                f"{suboram_index}"
            )
            fault.unit = suboram_index
            raise fault
        def cross(balancer_index, tx, rx, batch):
            # Serialize + seal, cross the "network" (where the attacker
            # sees, and tests tamper with, the sealed bytes), open.
            nonce, sealed = self.network_hook(
                balancer_index, suboram_index, *tx.send(batch.to_bytes())
            )
            return Batch.from_buffer(
                rx.receive(nonce, sealed), self.config.value_size
            )

        links = [self._channels[(b, suboram_index)] for b, _ in chain]
        delivered = [
            cross(b, pair.lb.tx, pair.so.rx, batch)
            for (b, batch), pair in zip(chain, links)
        ]
        return [
            cross(b, pair.so.tx, pair.lb.rx, reply)
            for (b, _), pair, reply in zip(
                chain, links, suboram.run_epoch(delivered)
            )
        ]

    # Overridable by tests to simulate an in-network attacker.
    def network_hook(self, balancer: int, suboram: int, nonce: bytes,
                     sealed: bytes) -> tuple:
        """Test hook: intercept (and possibly tamper with) a sealed message in flight."""
        return nonce, sealed
