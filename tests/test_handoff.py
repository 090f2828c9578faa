"""A rank hand-off costs one context switch.

The engine passes its token by releasing the next rank's baton and
blocking on its own.  Under ``SCHED_OTHER`` the woken thread preempts the
waker at once, only to wait for the GIL the waker still holds: about one
involuntary switch per hand-off on top of the voluntary one.  The
runtime's rank threads run under ``SCHED_BATCH``, which is never
wake-up preempted, so the waker runs on to its own block.  This test
counts the switches of a pinned two-rank ping-pong in a child process (so
its affinity and policy changes touch nothing of the test session).
"""

import json
import subprocess
import sys

import pytest

_CHILD = r"""
import json, os, resource, threading
from repro.mpi.engine import MessageEngine
from repro.mpi.runtime import Runtime

ROUND_TRIPS = 5000


def ping_pong(p):
    for _ in range(ROUND_TRIPS):
        if p.rank == 0:
            p.world.send(None, dest=1)
            p.world.recv(source=1)
        else:
            p.world.recv(source=0)
            p.world.send(None, dest=0)


def batch_refused():
    refused = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError as e:
            refused.append(str(e))

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return refused


def main():
    if not hasattr(os, "SCHED_BATCH"):
        return {"skip": "no SCHED_BATCH on this platform"}
    policy = os.sched_getscheduler(0)
    if policy != os.SCHED_OTHER:
        return {"skip": f"the main thread runs under policy {policy}, not SCHED_OTHER"}
    refused = batch_refused()
    if refused:
        return {"skip": f"SCHED_BATCH refused: {refused[0]}"}
    # one CPU: a hand-off cannot hide on the other core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    blocks = 0
    block = MessageEngine._block

    def counting(self, *args):
        nonlocal blocks
        blocks += 1
        block(self, *args)

    MessageEngine._block = counting
    runtime = Runtime(2, ping_pong)
    runtime.run().raise_any()  # starts the rank threads
    blocks = 0
    before = resource.getrusage(resource.RUSAGE_SELF)
    runtime.run().raise_any()
    after = resource.getrusage(resource.RUSAGE_SELF)
    policy_after_run = os.sched_getscheduler(0)
    runtime.close()
    return {
        "blocks": blocks,
        "nivcsw": after.ru_nivcsw - before.ru_nivcsw,
        "nvcsw": after.ru_nvcsw - before.ru_nvcsw,
        "policies": [policy, policy_after_run, os.sched_getscheduler(0)],
    }


print(json.dumps(main()))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux scheduling policies")
def test_a_hand_off_is_not_preempted_by_the_rank_it_wakes():
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, check=True, timeout=300,
    )
    data = json.loads(out.stdout.strip().splitlines()[-1])
    if "skip" in data:
        pytest.skip(data["skip"])
    blocks = data["blocks"]
    print(f"{blocks} blocks: {data['nvcsw']} voluntary, {data['nivcsw']} involuntary switches")
    assert blocks >= 5000  # a block per hand-off, about two per round trip
    assert data["nivcsw"] < 0.1 * blocks
    # only the pool's own threads changed policy
    policy = data["policies"][0]
    assert data["policies"] == [policy, policy, policy]
