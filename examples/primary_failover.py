#!/usr/bin/env python
"""Domain scenario: racing to become primary while replicas crash.

A replicated service loses its primary; every replica races to become
the new one.  The network is asynchronous (an adversarial scheduler
decides every delivery) and replicas keep crashing during the race.  The
election must produce at most one primary no matter what, and must
produce exactly one as long as a majority stays alive — which is exactly
the paper's leader-election guarantee (Theorem A.5).

The default path runs in the simulator.  With ``--live`` the same
scenario runs against the long-lived election service instead: replicas
become :class:`~repro.net.client.ServiceClient` sessions contending for
the ``primary`` lease, the incumbent is crashed by aborting its TCP
session, and the epoch counter is the fencing token that keeps deposed
primaries out.  Pass ``--live HOST:PORT`` to target a running ``repro
serve``, or bare ``--live`` to spin up an in-process service.

Usage::

    python examples/primary_failover.py [n] [crash_rate_ppm]
    python examples/primary_failover.py --live [HOST:PORT] [n]
"""

from __future__ import annotations

import sys

from repro import RandomAdversary, RandomCrashAdversary, run_leader_election
from repro.check.invariants import PROTOCOLS, evaluate_run


def failover_round(n: int, rate: float, seed: int):
    """One simulated failover race under a crashing random adversary."""
    adversary = RandomCrashAdversary(
        RandomAdversary(seed=seed), rate=rate, seed=seed
    )
    run = run_leader_election(n, adversary=adversary, seed=seed, check=False)
    # At most one winner, and linearizable: the invariant registry agrees.
    violations = evaluate_run(PROTOCOLS["leader_election"], run)
    assert not violations, violations
    return run


def run_simulated(n: int, rate_ppm: int) -> None:
    """The default path: ten seeded races in the simulator."""
    rate = rate_ppm / 1e6
    print(f"Primary failover race: {n} replicas, crash rate {rate:.4%} per event")
    print()
    elected = 0
    headless = 0
    for seed in range(10):
        run = failover_round(n, rate, seed)
        crashed = sorted(run.result.crashed)
        if run.winner is not None:
            elected += 1
            status = f"replica {run.winner} is the new primary"
        else:
            headless += 1
            status = "no primary elected (winner-to-be crashed mid-race)"
        print(f"seed {seed}: {status}; crashed {crashed or 'none'}")

    print()
    print(f"{elected}/10 races elected a primary, {headless}/10 ended headless")
    print("Every race was linearizable: at most one winner, and nobody")
    print("conceded before a legitimate winner candidate had started.")


def run_live(address: str | None, n: int) -> None:
    """The service path: replicas hold and lose the ``primary`` lease."""
    import asyncio

    from repro.check.invariants import evaluate_service_run
    from repro.net.client import ServiceClient
    from repro.net.service import ElectionService, ServiceRun

    async def scenario() -> None:
        service = None
        if address is None:
            service = ElectionService(seed=0, default_ttl_ms=30_000.0)
            host, port = await service.start()
            print(f"started in-process service at {host}:{port}")
        else:
            host, text = address.rsplit(":", 1)
            port = int(text)
        replicas = [
            await ServiceClient.connect(host, port, client_id=f"replica-{pid}")
            for pid in range(n)
        ]
        print(f"{n} replicas racing for the 'primary' lease")
        print()
        # Everyone races; one wins, the rest queue as waiters.
        waiters = [
            asyncio.create_task(r.acquire("primary", wait_ms=30_000.0))
            for r in replicas
        ]
        for round_index in range(3):
            await asyncio.sleep(0.2)
            done = [t for t in waiters if t.done() and t.result() is not None]
            assert len(done) == 1, "at most one primary per epoch"
            lease = done[0].result()
            holder = waiters.index(done[0])
            print(f"epoch {lease.epoch}: replica {holder} is primary")
            if round_index == 2:
                break
            # Crash the incumbent: abort its session; the service fails
            # the lease over to a queued waiter at the next epoch.
            replicas[holder].abort()
            waiters[holder] = asyncio.create_task(asyncio.sleep(3600))
            print(f"  ... replica {holder} crashed; failing over")
        for task in waiters:
            task.cancel()
        for replica in replicas:
            try:
                await replica.close()
            except Exception:
                pass
        if service is not None:
            run = ServiceRun.of(service)
            await service.stop()
            violations = evaluate_service_run(run)
            assert not violations, violations
            epochs = [record.epoch for record in run.history]
            print()
            print(f"grant history epochs: {epochs} — strictly increasing,")
            print("one holder per epoch: deposed primaries stay fenced out.")

    asyncio.run(scenario())


def main() -> None:
    """Parse argv and dispatch to the simulator or live path."""
    argv = sys.argv[1:]
    if argv and argv[0] == "--live":
        rest = argv[1:]
        address = rest[0] if rest and ":" in rest[0] else None
        tail = rest[1:] if address is not None else rest
        n = int(tail[0]) if tail else 5
        run_live(address, n)
        return
    n = int(argv[0]) if argv else 9
    rate_ppm = int(argv[1]) if len(argv) > 1 else 2000
    run_simulated(n, rate_ppm)


if __name__ == "__main__":
    main()
