"""Verifier configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mpi.costmodel import CostModel

#: config fields that change what the walk *means* — a journal recorded
#: under one set cannot be resumed under another
#: (``journal.config_signature`` hashes these plus ``cost_model``).
#: Every other field is an execution knob (``jobs``, telemetry,
#: ``fault_plan``, the lease timeout): bit-identity-preserving and
#: deliberately excluded.  A new field must be classified
#: (``tests/test_journal.py`` enumerates the dataclass).
SEMANTIC_CONFIG_FIELDS = (
    "clock_impl",
    "piggyback",
    "bound_k",
    "auto_loop_threshold",
    "max_interleavings",
    "max_seconds",
    "policy",
    "enable_leak_check",
    "enable_monitor",
    "prune",
    "adaptive_clocks",
)


@dataclass
class DampiConfig:
    """Everything tunable about a DAMPI verification session.

    Attributes
    ----------
    clock_impl:
        ``"lamport"`` (the paper's scalable default) or ``"vector"``
        (precise; restores completeness on the Fig. 4 cross-coupled
        pattern at O(nprocs) piggyback cost).  Either keeps the §V
        committed-tick pair the paper proposes as future work: a
        wildcard's tick transmits only once its Wait/Test completes, which
        closes the Fig. 10 omission.
    piggyback:
        ``"separate"`` — the paper's mechanism: one extra message per
        message on a shadow communicator, wildcard piggybacks received
        only after the wildcard completes; or ``"inline"`` — pack the
        clock into the payload (the datatype-packing alternative of the
        paper's piggyback study [15]).
    bound_k:
        Bounded-mixing window (paper §III-B2).  ``None`` = unbounded
        (full coverage); ``0`` = flip each epoch once with a self-run
        suffix; larger values let flipped epochs "mix" ``k`` decisions
        deep.
    max_interleavings / max_seconds:
        Hard budget guards; the report flags truncation.
    jobs:
        Replay parallelism.  ``1`` (the default) replays in-process,
        serially.  ``N > 1`` hands the campaign to the lease fleet of
        :mod:`repro.dist` — ``N`` forked worker processes exploring
        disjoint subtrees, the coordinator assembling the serial walk as
        records arrive; ``None`` uses ``os.cpu_count()``.  The report is
        bit-identical to ``jobs=1``.  On a single-CPU host the campaign
        stays in-process (logged; ``exec.demoted`` gauge): workers could
        only time-slice against each other there.  A ``journal=``
        directory resumes at any ``jobs``, whoever wrote it.
    policy / cost_model:
        Substrate knobs: the wildcard match policy for SELF_RUN portions
        (the paper's native match bias; a name builds a fresh policy per
        run, a policy *instance* is the caller's one object, shared by
        every run of the campaign with whatever state it carries) and the
        virtual-time constants.
    enable_leak_check / enable_monitor:
        Toggle the auxiliary checker modules.
    trace_events:
        Structured telemetry events (wildcard matches, epochs, piggyback
        sends, run/scheduler lifecycle).  When on, every run counts its
        events exactly into the report's ``events.*`` counters, and the
        runs ``trace_sample_every`` selects also record their payloads
        into the report's ``events`` stream, exportable as JSONL or
        Chrome trace_event JSON (see :mod:`repro.obs`).  Off
        by default in the API (no tracer object, no ``events.*``); the CLI
        turns it on (``--no-trace`` turns it off).  What counting costs a
        whole campaign is the ledger's ``obs.trace_overhead_ratio``.
    trace_sample_every:
        Which runs record event payloads — they need a reader.  ``None``:
        none do and ``report.events`` stays empty (what the CLI passes
        unless ``--trace-out/--events-out`` names a sink).  Fleet workers
        record their own lifecycle events (lease spans, memo hits) on the
        same condition.
        ``N``: the self run and 1-in-N guided replays do, chosen
        deterministically from the schedule signature (so the sampled
        stream is identical across ``jobs`` settings and is an exact
        subset of the rate-1 stream); 1 (default) records every run.  A
        run that does not record still counts: ``events.*`` totals are
        exact and identical at any value.
    progress_interval_seconds:
        When set, ``verify()`` writes a live progress heartbeat (runs
        done/queued, frontier depth, ETA) to stderr at most this often.
        ``None`` (default) disables.
    fault_plan:
        Deterministic fault injection spec (see :mod:`repro.dampi.faults`):
        comma-separated ``action@site[:selector][:param]`` terms that
        kill/hang/delay replay workers, the verify loop, the coordinator
        or escalation stages at chosen points.  Travels inside the
        config, so fleet workers and escalation stages inherit it
        automatically.  ``None`` (the default) injects nothing.
    """

    clock_impl: str = "lamport"
    piggyback: str = "separate"
    bound_k: Optional[int] = None
    #: Automatic loop-iteration abstraction (the paper's §VI future work):
    #: freeze wildcard epochs past this many consecutive same-signature
    #: occurrences per rank, without requiring MPI_Pcontrol annotations.
    #: ``None`` disables the heuristic.
    auto_loop_threshold: Optional[int] = None
    max_interleavings: Optional[int] = None
    max_seconds: Optional[float] = None
    jobs: Optional[int] = 1
    #: Future-equivalence subtree pruning (see :mod:`repro.dampi.prune`):
    #: when a flipped sibling's run provably matches an already-walked
    #: sibling — same downstream send/recv skeleton fingerprint *and*
    #: identical checker outcome — the generator marks the un-walked
    #: subtree pruned instead of expanding it.  Findings stay
    #: bit-identical to the unpruned walk (the set of distinct wildcard
    #: *outcomes* visited does not — pin ``False`` to enumerate those);
    #: every pruned subtree is accounted for in ``report.prune_stats``.
    #: CLI: ``--no-prune``.
    prune: bool = True
    #: Adaptive per-epoch clock escalation: run the scalar ``lamport``
    #: clock by default, detect the Fig. 4 cross-coupled imprecision
    #: pattern from each recorded trace (an epoch whose late-send set
    #: could be inflated by scalar mis-ordering), and re-verify only the
    #: affected runs under vector clocks — augmenting the scalar trace
    #: with the vector-only alternatives instead of paying O(nprocs)
    #: piggyback campaign-wide.  Requires ``clock_impl="lamport"``.
    adaptive_clocks: bool = False
    policy: str = "arrival"
    cost_model: CostModel = field(default_factory=CostModel)
    enable_leak_check: bool = True
    enable_monitor: bool = True
    trace_events: bool = False
    trace_sample_every: Optional[int] = 1
    progress_interval_seconds: Optional[float] = None
    fault_plan: Optional[str] = None
    #: distributed mode: a lease whose worker shows no progress (no
    #: record, donation, or run-count advance) for this long is declared
    #: lost — the worker is terminated and the lease re-issued (the hang
    #: guard of every ``jobs > 1`` campaign).  Stays a field because it is
    #: the one fleet value that depends on the program under test: it
    #: must comfortably exceed the cost of one replay.
    dist_lease_timeout_seconds: float = 30.0

    _CLOCK_IMPLS = ("lamport", "vector")

    def __post_init__(self) -> None:
        if self.clock_impl not in self._CLOCK_IMPLS:
            raise ValueError(
                f"clock_impl must be one of {self._CLOCK_IMPLS}, not {self.clock_impl!r}"
            )
        if self.piggyback not in ("separate", "inline"):
            raise ValueError(f"piggyback must be separate|inline, not {self.piggyback!r}")
        if self.bound_k is not None and self.bound_k < 0:
            raise ValueError("bound_k must be None or >= 0")
        if self.auto_loop_threshold is not None and self.auto_loop_threshold < 1:
            raise ValueError("auto_loop_threshold must be None or >= 1")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be None (= cpu_count) or >= 1")
        if self.adaptive_clocks and self.clock_impl != "lamport":
            raise ValueError(
                "adaptive_clocks escalates a scalar clock to vector "
                f"precision; it requires clock_impl lamport, not {self.clock_impl!r}"
            )
        if self.trace_sample_every is not None and self.trace_sample_every < 1:
            raise ValueError("trace_sample_every must be None or >= 1")
        if (
            self.progress_interval_seconds is not None
            and self.progress_interval_seconds < 0
        ):
            raise ValueError("progress_interval_seconds must be None or >= 0")
        if self.fault_plan is not None:
            # parse eagerly so a typo'd plan fails at construction, not at
            # the (possibly hours-later) injection site
            from repro.dampi.faults import FaultPlan

            FaultPlan.parse(self.fault_plan)
        if self.dist_lease_timeout_seconds <= 0:
            raise ValueError("dist_lease_timeout_seconds must be > 0")
