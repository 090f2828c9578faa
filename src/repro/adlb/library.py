"""The ADLB protocol: servers, work pools, stealing, termination.

Message flow
------------
Application ranks talk only to their *home server* (assigned round-robin).
Servers talk to each other (stealing) and to the *master server* (server
0, termination detection):

==============  =======================================================
tag             meaning
==============  =======================================================
PUT             worker -> home: store a work unit
GET             worker -> home: request a work unit of a type
WORK            home -> worker: here is your work unit
NO_WORK         home -> worker: global termination, get returns None
STEAL_REQ       server -> server: a worker of the origin server needs
                work of a type (token travels the server ring)
STEAL_REPLY     server -> origin server: stolen work, or a miss
PUT_PEER        server -> server: work diffusion — a surplus unit pushed
                to the next server (counted in the channel counters)
SRV_IDLE        server -> master: my local state changed to idle
                (carries the state snapshot)
TERM_CHECK      master -> server: report your state for round n
TERM_ACK        server -> master: state snapshot for round n
SHUTDOWN        master -> server: terminate; release pending workers
==============  =======================================================

Termination correctness: with several servers, the master declares
termination only after two consecutive check rounds with identical
snapshots in which every server is idle, every pool is empty, and the
global *channel counters* (work units sent between servers vs. received)
balance — a steal reply still in flight therefore always defeats the
check (Mattern's channel-counting method).  With a single server, local
idleness is already terminal: worker→server channels need no counters
because a worker's PUT always precedes its next GET on the same
non-overtaking channel, so a server that saw a worker go pending has
already processed all of that worker's puts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.mpi.constants import ANY_SOURCE
from repro.mpi.request import Status

# message tags
PUT = 101
GET = 102
WORK = 103
NO_WORK = 104
STEAL_REQ = 105
STEAL_REPLY = 106
SRV_IDLE = 107
TERM_CHECK = 108
TERM_ACK = 109
SHUTDOWN = 110
PUT_PEER = 111

#: work type used by ``adlb_run``'s finalize drain; never matched by puts.
DRAIN_TYPE = -1


class _ServerState:
    """One server's pools, pending requests, and channel counters."""

    __slots__ = (
        "pools", "pending", "steals_out", "queued", "sent_peer", "recv_peer",
        "last_reported",
    )

    def __init__(self) -> None:
        #: (work_type, target worker rank or None) -> deque of
        #: (priority, payload); highest priority first
        self.pools: dict[tuple, deque] = {}
        #: worker world rank -> requested work type, for waiting workers
        self.pending: dict[int, int] = {}
        #: workers with a steal token currently circulating on their behalf
        self.steals_out: set = set()
        self.queued = 0
        #: channel counters: work units shipped to / received from peer
        #: servers
        self.sent_peer = 0
        self.recv_peer = 0
        #: last snapshot reported to the master (deduplicates SRV_IDLE
        #: traffic)
        self.last_reported: Optional[tuple] = None


class AdlbContext:
    """Per-rank handle: either a server event loop or the put/get API.

    The first ``num_servers`` world ranks become servers; the rest are
    application ranks assigned to home servers round-robin.
    """

    def __init__(self, p, num_servers: int = 1):
        if not 1 <= num_servers < p.size:
            raise ValueError(
                f"num_servers must be in [1, size); got {num_servers} of {p.size}"
            )
        self.p = p
        self.num_servers = num_servers
        self.rank = p.rank
        self.is_server = self.rank < num_servers
        self.home = None if self.is_server else self.rank % num_servers
        self._no_more_work = False
        #: statistics (read by benches/tests)
        self.stats = {"puts": 0, "gets": 0, "steals": 0}

    def workers_of(self, server_rank: int) -> set[int]:
        """Application ranks homed at a server."""
        return {
            r
            for r in range(self.num_servers, self.p.size)
            if r % self.num_servers == server_rank
        }

    # ------------------------------------------------------------------ #
    # application API                                                     #
    # ------------------------------------------------------------------ #

    def put(
        self,
        payload: Any,
        work_type: int = 0,
        priority: int = 0,
        target: Optional[int] = None,
    ) -> None:
        """Deposit one unit of typed work into the global pool.

        ``target`` pins the unit to one application rank (ADLB's
        ``target_rank``): only that worker's gets can receive it, and it
        is routed to — and stays at — the target's home server (never
        stolen or diffused).
        """
        self._need_app()
        if work_type == DRAIN_TYPE:
            raise ValueError(f"work type {DRAIN_TYPE} is reserved")
        if target is not None and (
            not self.num_servers <= target < self.p.size
        ):
            raise ValueError(f"target {target} is not an application rank")
        self.stats["puts"] += 1
        dest = self.home if target is None else target % self.num_servers
        self.p.world.send((work_type, priority, payload, target), dest=dest, tag=PUT)

    def get(self, work_type: int = 0) -> Optional[Any]:
        """Fetch one unit of work of ``work_type``.

        Blocks until work is available anywhere in the system; returns
        ``None`` once global termination is detected (all workers
        waiting, all pools empty, nothing in flight).
        """
        self._need_app()
        if self._no_more_work:
            return None
        self.stats["gets"] += 1
        self.p.world.send(work_type, dest=self.home, tag=GET)
        status = Status()
        reply = self.p.world.recv(source=self.home, status=status)
        if status.tag == NO_WORK:
            self._no_more_work = True
            return None
        _work_type, _priority, payload = reply
        return payload

    def finish(self) -> None:
        """Block until global termination (``ADLB_Finalize``'s wait).

        Idempotent; implemented as a get of the reserved drain type, which
        can only be answered by NO_WORK.
        """
        self._need_app()
        if self._no_more_work:
            return
        self.stats["gets"] += 1
        self.p.world.send(DRAIN_TYPE, dest=self.home, tag=GET)
        status = Status()
        self.p.world.recv(source=self.home, status=status)
        if status.tag != NO_WORK:
            raise RuntimeError("drain get was answered with work")
        self._no_more_work = True

    def _need_app(self) -> None:
        if self.is_server:
            raise RuntimeError("put/get called on a server rank")

    # ------------------------------------------------------------------ #
    # server event loop                                                   #
    # ------------------------------------------------------------------ #

    def serve(self) -> None:
        """Run the server until global termination."""
        if not self.is_server:
            raise RuntimeError("serve() called on an application rank")
        st = _ServerState()
        my_workers = self.workers_of(self.rank)
        is_master = self.rank == 0
        # master-only termination bookkeeping
        states: dict[int, tuple] = {}
        check_round = 0
        acks: dict[int, tuple] = {}
        prev_snapshot: Optional[tuple] = None
        collecting = False

        def snapshot() -> tuple:
            return (
                self._self_idle(st, my_workers),
                st.queued,
                st.sent_peer,
                st.recv_peer,
            )

        def start_round():
            nonlocal check_round, acks, collecting
            check_round += 1
            acks = {self.rank: snapshot()}
            collecting = True
            for s in range(1, self.num_servers):
                self.p.world.send(check_round, dest=s, tag=TERM_CHECK)

        def maybe_finish_round() -> bool:
            """Returns True when the master decides to shut down."""
            nonlocal prev_snapshot, collecting
            if not collecting or len(acks) < self.num_servers:
                return False
            collecting = False
            all_idle = all(s[0] for s in acks.values())
            queued = sum(s[1] for s in acks.values())
            sent = sum(s[2] for s in acks.values())
            recv = sum(s[3] for s in acks.values())
            this = tuple(sorted(acks.items()))
            balanced = all_idle and queued == 0 and sent == recv
            if balanced and prev_snapshot == this:
                return True
            prev_snapshot = this if balanced else None
            if balanced:
                start_round()  # confirmation round
            return False

        # A server may be idle from birth (no assigned workers, or none that
        # will ever put): report it now — reports otherwise only fire on
        # incoming events, and an event-less server would silently stall the
        # global termination check (found by property testing: 2 servers,
        # 1 worker).
        self._report_if_idle(st, my_workers, states, is_master, snapshot)

        while True:
            # master fast path: a single server needs no channel counting —
            # local idleness is terminal (worker channels are clean)
            if is_master and self.num_servers == 1 and self._self_idle(st, my_workers):
                self._release_pending(st)
                return

            status = Status()
            msg = self.p.world.recv(source=ANY_SOURCE, status=status)
            tag, src = status.tag, status.source

            if tag == PUT:
                work_type, priority, payload, target = msg
                self._pool_push(st, work_type, priority, payload, target)
                self._try_serve_pending(st)
                self._maybe_diffuse(st)
            elif tag == PUT_PEER:
                st.recv_peer += 1
                work_type, priority, payload = msg
                self._pool_push(st, work_type, priority, payload, None)
                self._try_serve_pending(st)
                # peer-received units are never re-diffused (no ping-pong)
            elif tag == GET:
                work_type = msg
                handed = self._pool_pop(st, work_type, worker=src)
                if handed is not None:
                    self.p.world.send(handed, dest=src, tag=WORK)
                else:
                    st.pending[src] = work_type
                    self._try_steal(st, src, work_type)
                    self._report_if_idle(st, my_workers, states, is_master, snapshot)
            elif tag == STEAL_REQ:
                origin_server, worker, work_type, hops = msg
                handed = self._pool_pop(st, work_type)  # untargeted only
                if handed is not None:
                    st.sent_peer += 1
                    self.p.world.send((worker, handed), dest=origin_server, tag=STEAL_REPLY)
                elif hops + 1 < self.num_servers - 1:
                    nxt = self._next_server(exclude=origin_server)
                    self.p.world.send(
                        (origin_server, worker, work_type, hops + 1),
                        dest=nxt,
                        tag=STEAL_REQ,
                    )
                else:
                    self.p.world.send((worker, None), dest=origin_server, tag=STEAL_REPLY)
            elif tag == STEAL_REPLY:
                worker, stolen = msg
                st.steals_out.discard(worker)
                if stolen is not None:
                    st.recv_peer += 1
                    if worker in st.pending and st.pending[worker] == stolen[0]:
                        del st.pending[worker]
                        self.p.world.send(stolen, dest=worker, tag=WORK)
                    else:
                        # served meanwhile (or mismatched type): repool
                        self._pool_push(st, stolen[0], stolen[1], stolen[2])
                        self._try_serve_pending(st)
                else:
                    self._report_if_idle(st, my_workers, states, is_master, snapshot)
            elif tag == SRV_IDLE:
                assert is_master, "only the master receives SRV_IDLE"
                states[src] = msg
                if (
                    not collecting
                    and self._self_idle(st, my_workers)
                    and all(states.get(s, (False,))[0] for s in range(1, self.num_servers))
                ):
                    prev_snapshot = None
                    start_round()
            elif tag == TERM_CHECK:
                self.p.world.send((msg, snapshot()), dest=0, tag=TERM_ACK)
            elif tag == TERM_ACK:
                assert is_master, "only the master receives TERM_ACK"
                round_n, state = msg
                if round_n == check_round and collecting:
                    acks[src] = state
            elif tag == SHUTDOWN:
                self._release_pending(st)
                return
            else:
                raise RuntimeError(
                    f"server {self.rank}: unexpected tag {tag} from {src}"
                )

            if is_master and self.num_servers > 1:
                if (
                    not collecting
                    and self._self_idle(st, my_workers)
                    and all(states.get(s, (False,))[0] for s in range(1, self.num_servers))
                ):
                    start_round()
                if maybe_finish_round():
                    for s in range(1, self.num_servers):
                        self.p.world.send(None, dest=s, tag=SHUTDOWN)
                    self._release_pending(st)
                    return

    # -- server helpers ------------------------------------------------------

    @staticmethod
    def _pool_push(
        st: _ServerState, work_type: int, priority: int, payload: Any, target=None
    ) -> None:
        pool = st.pools.setdefault((work_type, target), deque())
        pool.append((priority, payload))
        st.queued += 1
        if priority:
            # stable sort keeps FIFO order within equal priorities
            items = sorted(pool, key=lambda t: -t[0])
            pool.clear()
            pool.extend(items)

    @staticmethod
    def _pool_pop(
        st: _ServerState, work_type: int, worker: Optional[int] = None
    ) -> Optional[tuple]:
        """Pop the best unit a worker may take: its targeted pool and the
        untargeted pool compete on priority (targeted wins ties)."""
        candidates = []
        if worker is not None:
            targeted = st.pools.get((work_type, worker))
            if targeted:
                candidates.append((targeted[0][0], 0, targeted))
        anyone = st.pools.get((work_type, None))
        if anyone:
            candidates.append((anyone[0][0], 1, anyone))
        if not candidates:
            return None
        _, _, pool = max(candidates, key=lambda c: (c[0], -c[1]))
        priority, payload = pool.popleft()
        st.queued -= 1
        return (work_type, priority, payload)

    def _try_serve_pending(self, st: _ServerState) -> None:
        """Hand fresh work to pending local workers (lowest rank first)."""
        for worker in sorted(st.pending):
            handed = self._pool_pop(st, st.pending[worker], worker=worker)
            if handed is not None:
                del st.pending[worker]
                self.p.world.send(handed, dest=worker, tag=WORK)

    def _next_server(self, exclude: int) -> int:
        nxt = (self.rank + 1) % self.num_servers
        if nxt == exclude:
            nxt = (nxt + 1) % self.num_servers
        return nxt

    #: local pool depth beyond which surplus work diffuses to a peer
    DIFFUSION_THRESHOLD = 2

    def _maybe_diffuse(self, st: _ServerState) -> None:
        """Push one surplus unit to the next server.  Only worker-submitted
        units diffuse (peer-received units never re-diffuse), so every unit
        crosses the server ring at most once and diffusion terminates."""
        if self.num_servers == 1 or st.queued <= self.DIFFUSION_THRESHOLD:
            return
        # pick a unit from the deepest *untargeted* pool (targeted work is
        # pinned to this server)
        open_pools = {k: v for k, v in st.pools.items() if k[1] is None and v}
        if not open_pools:
            return
        work_type = max(open_pools, key=lambda k: len(open_pools[k]))[0]
        unit = self._pool_pop(st, work_type)
        if unit is None:
            return
        st.sent_peer += 1
        self.p.world.send(unit, dest=self._next_server(exclude=self.rank), tag=PUT_PEER)

    def _try_steal(self, st: _ServerState, worker: int, work_type: int) -> None:
        if self.num_servers == 1 or worker in st.steals_out or work_type == DRAIN_TYPE:
            return
        st.steals_out.add(worker)
        self.p.world.send(
            (self.rank, worker, work_type, 0),
            dest=self._next_server(exclude=self.rank),
            tag=STEAL_REQ,
        )

    def _self_idle(self, st: _ServerState, my_workers: set) -> bool:
        return st.queued == 0 and not st.steals_out and set(st.pending) == my_workers

    def _report_if_idle(self, st, my_workers, states, is_master, snapshot) -> None:
        if not self._self_idle(st, my_workers):
            return
        snap = snapshot()
        if snap == st.last_reported:
            return
        st.last_reported = snap
        if is_master:
            states[self.rank] = snap  # the master tracks itself directly
        else:
            self.p.world.send(snap, dest=0, tag=SRV_IDLE)

    def _release_pending(self, st: _ServerState) -> None:
        for worker in sorted(st.pending):
            self.p.world.send(None, dest=worker, tag=NO_WORK)
        st.pending.clear()


def adlb_run(p, app: Callable, num_servers: int = 1, **app_kwargs):
    """Run an ADLB job: servers serve, application ranks run ``app(ctx)``.

    Returns the app's result on application ranks, None on servers.
    The final barrier mirrors ``ADLB_Finalize``.
    """
    ctx = AdlbContext(p, num_servers=num_servers)
    result = None
    if ctx.is_server:
        ctx.serve()
    else:
        result = app(ctx, **app_kwargs)
        ctx.finish()
    p.world.barrier()
    return result
