"""Wire protocol of the distributed verifier.

Transport: one ``multiprocessing.Pipe`` per worker, created when the
coordinator forks it and inherited by the child; a frame is one compact
JSON dict per ``send_bytes`` message.  The fleet is local, so a pipe is
all it needs: no server, no handshake (the coordinator knows which
worker is behind which pipe because it made them), no thread on either
side.  A multi-host fleet would need a transport that also names and
authenticates its peers (see ``docs/DISTRIBUTED.md``).

Frames, by direction (``t`` is the discriminator):

worker → coordinator
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
import sys


class DistError(RuntimeError):
    """A distributed campaign that cannot proceed (protocol violation,
    coverage hole, lost coordinator)."""


def send(conn, frame: dict) -> None:
    """One frame: compact JSON, one ``send_bytes`` message."""
    conn.send_bytes(json.dumps(frame, separators=(",", ":")).encode("utf-8"))


def recv(conn) -> dict:
    """The next frame on ``conn``; raises ``EOFError`` (or ``OSError``)
    once the other end is gone, a torn last frame included."""
    return json.loads(conn.recv_bytes())


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

