"""The network front door: serve a Snoopy deployment over TCP.

This package turns the in-process deployment into a service with the
same client surface (:class:`~repro.core.client.SnoopyClient`):

* :class:`~repro.serve.server.SnoopyServer` — asyncio load-balancer
  front end feeding the epoch pipeline, with per-connection
  backpressure (:class:`~repro.serve.server.ServerThread` hosts it on a
  background loop for blocking callers).
* :class:`~repro.serve.workers.WorkerCluster` — subORAM worker
  *processes* behind the versioned wire protocol, with snapshot crash
  recovery and transactional epoch retry
  (:class:`~repro.serve.workers.RemoteSubOram` is the in-server proxy).
* :class:`~repro.serve.netclient.NetworkSnoopyClient` — blocking TCP
  client implementing the protocol.

Throughput and latency over real TCP are measured by the served
benchmark in ``bench/`` (its own load generator drives this package's
server through :mod:`repro.serve.secure`).

Everything speaks :mod:`repro.core.wire`: fixed-size frames behind a
version-checked hello and the attested handshake of
:mod:`repro.serve.secure`, sealed on every hop.  There is no plaintext
mode: each endpoint takes a :class:`~repro.serve.secure.ServeTrust`.
"""

from repro.serve.netclient import NetworkSnoopyClient, NetworkTicket
from repro.serve.server import ServerThread, SnoopyServer
from repro.serve.workers import RemoteSubOram, WorkerCluster

__all__ = [
    "NetworkSnoopyClient",
    "NetworkTicket",
    "RemoteSubOram",
    "ServerThread",
    "SnoopyServer",
    "WorkerCluster",
]
