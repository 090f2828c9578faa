"""Wire protocol of the distributed verifier.

Transport: newline-delimited JSON frames over a TCP stream.  Workers are
spawned locally today, but they connect over a socket (not a pipe)
precisely so the protocol stays host-agnostic — pointing a worker at a
remote coordinator address is a deployment change, not a protocol one.

Frames, by direction (``t`` is the discriminator):

worker → coordinator
    ``hello``       first frame: ``worker`` id, ``pid``.
    ``hb``          heartbeat/progress: total ``runs`` consumed, ``open``
                    alternatives and path ``depth`` of the current
                    subtree, the active ``lease`` id.
    ``need_lease``  the worker is idle and wants work.
    ``record``      one completed run of the active lease: the full run
                    *entry* (below) and, beside it when event tracing is
                    on, the run's tracer payload ``obs`` (:func:`pack_obs`):
                    exact emit counts, and raw records only from a run
                    that recorded payloads for a reader.
    ``discovered``  candidate leases for alternatives discovered at
                    pinned prefix nodes — subtrees that belong to other
                    shards, routed through the coordinator for dedup.
    ``donate``      response to ``steal``: lease specs split off the
                    deepest open node of the victim's subtree (may be
                    empty).
    ``lease_done``  the active lease's subtree is exhausted.
    ``bye``         response to ``shutdown``: final ``stats``, a metrics
                    snapshot to merge into the report and, when the
                    campaign records event payloads, the worker tracer's
                    ``events`` (:func:`pack_obs`, like a run's ``obs``).

coordinator → worker
    ``lease``       one lease: ``id`` plus the spec
                    (see :func:`repro.dist.leases.lease_root_decisions`).
    ``steal``       please split your current subtree and donate half.
    ``shutdown``    the campaign is over (walk exhausted or out of
                    budget): stop after the replay in flight, send
                    ``bye`` and exit.

Run entries
-----------
A ``record`` frame carries one *run record* — the dict
:func:`repro.dampi.journal.run_entry` builds, the same one every
journal's ``run`` entries store (see that module for the shape and for
why it ships raw facts rather than any worker-local view of them).
"""

from __future__ import annotations

import json
import socket
import sys
import threading


#: how often each worker sends an ``hb`` frame; the coordinator polls at
#: half of it and asks one victim to ``steal`` at most this often
HEARTBEAT_SECONDS = 0.5


class DistError(RuntimeError):
    """A distributed campaign that cannot proceed (protocol violation,
    coverage hole, lost coordinator)."""


# -- frame transport -----------------------------------------------------------


def send_frame(sock: socket.socket, payload: dict, lock=None) -> None:
    """One frame: compact JSON + newline, a single ``sendall``."""
    data = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def start_reader(sock: socket.socket, tag, events) -> threading.Thread:
    """Pump frames from ``sock`` into the ``events`` queue as
    ``(tag, payload)`` pairs; EOF or any socket error enqueues
    ``(tag, None)`` exactly once and ends the thread."""

    def pump():
        try:
            with sock.makefile("rb") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        events.put((tag, json.loads(line)))
                    except ValueError:
                        break  # torn frame: treat like EOF
        except OSError:
            pass
        events.put((tag, None))

    thread = threading.Thread(target=pump, name=f"dist-reader-{tag}", daemon=True)
    thread.start()
    return thread


# -- tracer payloads -----------------------------------------------------------


def _retuple(value):
    return tuple(_retuple(v) for v in value) if isinstance(value, list) else value


def pack_obs(obs: dict) -> str:
    """A tracer payload (:meth:`repro.obs.trace.Tracer.collect`) as one
    opaque string field: a run's in its ``record`` frame — the
    coordinator holds it undecoded, a fraction of the decoded size, until
    the walk consumes that record, and never decodes the ones it does
    not — and a worker's own in its ``bye`` frame."""
    return json.dumps(obs, separators=(",", ":"))


def unpack_obs(blob: str) -> dict:
    """Decode :func:`pack_obs` and undo what the JSON trip did: raw
    records and sequence-valued args are tuples again, so the events
    rendered from them equal the ones an in-process run renders (args
    are hashable by contract — emitters pass tuples, never lists)."""
    obs = json.loads(blob)
    intern = sys.intern
    # name / category / phase / arg names repeat in every record; decoded
    # they are a fresh str each, interned they cost the campaign ring
    # what an in-process run's literals do
    obs["records"] = [
        (
            intern(rec[0]), intern(rec[1]), rec[2], intern(rec[3]),
            rec[4], rec[5], rec[6],
            {intern(k): _retuple(v) for k, v in rec[7].items()},
        )
        for rec in obs["records"]
    ]
    return obs

