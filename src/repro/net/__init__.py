"""repro.net — the socket backend: real processes, real asynchrony.

The simulator (:mod:`repro.sim`) realizes the paper's asynchronous
message-passing model as a discrete-event system where the adversary *is*
the scheduler.  This package is the second backend behind the same
``communicate`` abstraction: the **unchanged** generator coroutines of
:mod:`repro.core` run as separate OS processes that exchange the
PROPAGATE / COLLECT / ACK / COLLECT_REPLY traffic of [ABND95] over
localhost TCP sockets, so asynchrony, reordering, and delay come from a
genuine network stack and kernel scheduler instead of a simulated one.

Layers, bottom to top:

* :mod:`repro.net.wire` — length-prefixed, versioned frame codec with a
  lossless tagged encoding of every register value the protocols use;
* :mod:`repro.net.chaos` — seeded fault-injection plans (drop, delay,
  duplicate, partition) applied per link, per frame;
* :mod:`repro.net.node` — one processor: an asyncio server that services
  quorum traffic plus the client side that drives the protocol coroutine
  through retried, timed-out RPC broadcasts;
* :mod:`repro.net.driver` — launches ``n`` node processes, runs the
  control plane, collects outcomes into a
  :class:`~repro.sim.runtime.SimulationResult`, feeds them through the
  :mod:`repro.check` run-invariants, and merges per-node
  :mod:`repro.obs` traces;
* :mod:`repro.net.service` / :mod:`repro.net.client` — the long-lived
  layer on top: a keyed multi-tenant election namespace (``repro
  serve``) where every name is an independent, epoch-fenced leader
  election with a TTL lease, re-elected on expiry or crash;
* :mod:`repro.net.load` — the load driver that sustains thousands of
  concurrent named elections against one service process and reports
  acquire/failover latency percentiles.

Entry points: ``python -m repro net --task elect --n 6 --seed 0`` and
``python -m repro serve --load --keys 1000``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": (
        "CHAOS_PROFILES",
        "ChaosPhase",
        "ChaosPlan",
        "PhasedChaosPlan",
        "Partition",
        "load_plan",
        "make_phased_plan",
    ),
    ".client": ("KeyEvent", "Lease", "ServiceClient", "ServiceClientError"),
    ".driver": ("NetRun", "run_net"),
    ".load": ("LoadReport", "run_load"),
    ".service": ("ElectionService", "ServiceError", "ServiceRun"),
    ".wire": ("Frame", "FrameDecoder", "FrameType", "WireError"),
})
