"""The schedule generator: a depth-first walk over Epoch Decisions.

After the self run, every wildcard operation is a *decision node* with the
observed match plus the alternatives the late-message analysis produced.
The generator repeatedly picks the **deepest** node with an untried
alternative, emits a decision file forcing the path prefix plus that
alternative, and integrates the replay's trace: prefix nodes may gain
newly discovered alternatives; epochs beyond the flip become fresh nodes
(paper §II-B: "successively force alternate matches at the last step;
then at the penultimate step; and so on").

Search bounding (paper §III-B):

* **Loop iteration abstraction** — epochs recorded inside an
  ``MPI_Pcontrol`` region arrive with ``explore=False`` and their nodes
  are frozen: the self-run match is kept, alternatives never forced.
* **Bounded mixing** — with bound ``k``, fresh nodes discovered more than
  ``k`` decisions after the flipped node are frozen: the flip's effects
  may "mix" with at most ``k`` subsequent decisions, after which the MPI
  runtime decides (SELF_RUN).  ``k=0`` degenerates to flipping each
  decision once against a self-run suffix (``1 + Σ|alts|`` runs);
  ``k=None`` is the full, unbounded depth-first search.  Because every
  explorable node anchors its own window when flipped, windows overlap
  exactly as in the paper's Fig. 7 discussion.

Nodes are globally ordered by ``(lc, rank, per-rank index)`` — the Lamport
clock approximates causal order across ranks, so the decision sequence is
a linearisation of the partial order the clocks witnessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochKey, EpochRecord, RunTrace
from repro.dampi.matcher import explorable_alternative_sources


def _order_key(e: EpochRecord) -> tuple[int, int, int]:
    return (e.lc, e.rank, e.index)


@dataclass
class DecisionNode:
    """One epoch in the current search path."""

    key: EpochKey
    order: tuple[int, int, int]
    #: source forced (or self-run observed) along the current path
    chosen: int
    #: sources already explored under this node's prefix
    tried: set[int] = field(default_factory=set)
    #: all sources known possible here (grows as replays discover more)
    alternatives: set[int] = field(default_factory=set)
    #: frozen nodes keep their self-run match forever (loop abstraction /
    #: bounded-mixing window exhausted / never-completed receive)
    frozen: bool = False
    #: pinned nodes belong to another shard of a distributed campaign:
    #: the local walk never flips them (like frozen), but — unlike frozen
    #: — they still accumulate newly discovered alternatives, which are
    #: reported upstream via :meth:`ScheduleGenerator
    #: .take_pinned_discoveries` so the coordinator can lease the sibling
    #: subtrees to someone else
    pinned: bool = False
    #: future-equivalence pruning (``prune=True`` generators only):
    #: ``(fingerprint, outcome_digest) -> source`` for every sibling
    #: subtree whose run has been witnessed at this node.  A later flip
    #: whose run carries an already-present signature is pruned — its
    #: subtree is provably isomorphic to the recorded sibling's.
    sigs: dict = field(default_factory=dict)
    #: per-source bookkeeping for the pruning invariant: how many runs
    #: (``vcost``) and distance-frozen nodes (``vfrozen``) the walk of
    #: each sibling subtree produced.  A pruned sibling is credited its
    #: reference subtree's totals, so ``executed + replays_saved`` equals
    #: the unpruned run count and ``bound_frozen`` coverage proofs stay
    #: sound.
    vcost: dict = field(default_factory=dict)
    vfrozen: dict = field(default_factory=dict)

    @property
    def untried(self) -> set[int]:
        return self.alternatives - self.tried

    def __repr__(self) -> str:
        tag = " frozen" if self.frozen else ""
        tag += " pinned" if self.pinned else ""
        return (
            f"Node({self.key}, chosen={self.chosen}, tried={sorted(self.tried)}, "
            f"alts={sorted(self.alternatives)}{tag})"
        )


class ScheduleGenerator:
    """Owns the DFS state across runs of one verification session."""

    def __init__(
        self,
        bound_k: Optional[int] = None,
        auto_loop_threshold: Optional[int] = None,
        prune: bool = False,
    ):
        self.bound_k = bound_k
        #: future-equivalence subtree pruning (see :mod:`repro.dampi.prune`)
        self.prune = prune
        self.prunes = 0
        self.replays_saved = 0
        #: paper §VI future work, implemented: when a rank issues more than
        #: this many *consecutive* wildcard operations with an identical
        #: signature (communicator, tag, kind) — the fingerprint of a fixed
        #: communication loop — the excess epochs are frozen automatically,
        #: as if the user had wrapped the loop in MPI_Pcontrol.
        self.auto_loop_threshold = auto_loop_threshold
        self.path: list[DecisionNode] = []
        self._flip_index: Optional[int] = None
        self._seeded = False
        self.divergences = 0
        self.frozen_created = 0
        self.auto_frozen_total = 0
        #: nodes frozen *specifically* by the bounded-mixing distance rule.
        #: When a run with ``bound_k=K`` finishes untruncated with this
        #: counter at zero, the bound never bit: the K-bounded walk was the
        #: unbounded walk, and no wider bound can find more (campaigns use
        #: this to stop escalating early).
        self.distance_frozen = 0

    # -- run-0 ----------------------------------------------------------------

    def seed(self, trace: RunTrace, signature=None) -> None:
        """Build the initial path from the self run.  Run-0 nodes are never
        distance-frozen: the first window is anchored at the start.

        ``signature`` (a :class:`repro.dampi.prune.RunSignature`) records
        the self run as the *natural* sibling at every seeded node, so
        later flips can prune against the un-flipped subtree."""
        if self._seeded:
            raise RuntimeError("generator already seeded")
        self._seeded = True
        self.path = self._nodes_from_epochs(trace, trace.all_epochs(), distance_from=None)
        if self.prune:
            self._charge_path(1, 0)
            self._stamp_signature(signature, self.path)

    def seed_prefix(
        self,
        prefix: list,
        flip_key,
        flip_order,
        alt: int,
        covered=(),
    ) -> EpochDecisions:
        """Seed the generator for one *leased subtree* of a distributed
        campaign instead of from a self run (paper's distributed walk:
        each node of the cluster owns a disjoint region of the decision
        tree).

        ``prefix`` is the master path shallower than the subtree root, as
        ``(key, order, chosen, frozen)`` tuples; the subtree root is the
        node ``flip_key`` flipped to source ``alt``.  Every seeded node
        is *pinned*: the local walk explores only the fresh nodes its
        replays discover below the root, exactly the portion of the
        serial DFS that lives inside this subtree, while alternatives
        discovered at pinned nodes are surfaced through
        :meth:`take_pinned_discoveries` for the coordinator to lease out.

        ``covered`` lists the root node's sources the *master* walk
        already accounts for (its own chosen value — e.g. the self-run
        match — plus every sibling alternative leased elsewhere).  They
        are pre-marked tried so the subtree neither explores them nor
        re-reports them as discoveries: without this, every lease would
        "discover" the self-run source at its root and the coordinator
        would lease an already-covered subtree.

        Returns the root schedule (the same ``EpochDecisions`` the serial
        walk would emit when it flips this node under this prefix); the
        caller executes it and feeds the trace to :meth:`integrate` as
        with any other pending flip.
        """
        if self._seeded:
            raise RuntimeError("generator already seeded")
        self._seeded = True
        path = []
        for row in prefix:
            key, order, chosen, frozen = row[:4]
            row_covered = set(row[4]) if len(row) > 4 else set()
            path.append(
                DecisionNode(
                    key=tuple(key),
                    order=tuple(order),
                    chosen=chosen,
                    tried={chosen} | row_covered,
                    alternatives={chosen} | row_covered,
                    frozen=bool(frozen),
                    pinned=True,
                )
            )
        root = DecisionNode(
            key=tuple(flip_key),
            order=tuple(flip_order),
            chosen=alt,
            tried={alt} | set(covered),
            alternatives={alt} | set(covered),
            pinned=True,
        )
        path.append(root)
        self.path = path
        self._flip_index = len(path) - 1
        forced = {n.key: n.chosen for n in path if n.chosen >= 0}
        return EpochDecisions(forced=forced, flip=root.key)

    def take_pinned_discoveries(self) -> list[tuple[int, list[int]]]:
        """Alternatives that replays discovered at pinned nodes — work
        that belongs to *other* shards.  Returns ``(path_index, sources)``
        pairs and marks the sources tried locally, so each discovery is
        reported upstream exactly once."""
        out: list[tuple[int, list[int]]] = []
        for i, node in enumerate(self.path):
            if node.pinned and not node.frozen:
                new = node.untried
                if new:
                    out.append((i, sorted(new)))
                    node.tried |= new
        return out

    def prefix_rows(self, upto: int) -> list:
        """The path shallower than ``upto`` as JSON-able lease-spec rows:
        ``[key, order, chosen, frozen, covered]``, where ``covered`` is
        every source this walk accounts for at the node — a subtree
        seeded from these rows must treat them all as tried (see
        :meth:`seed_prefix`)."""
        return [
            [
                list(m.key),
                list(m.order),
                m.chosen,
                m.frozen,
                sorted(m.tried | m.alternatives),
            ]
            for m in self.path[:upto]
        ]

    def lease_specs(self, index: int, sources) -> list[dict]:
        """One JSON-able lease spec per source in ``sources``, each the
        subtree that forces that source at path node ``index``: the path
        prefix above it (:meth:`prefix_rows`), the flipped node, the
        alternative source, and the ``covered`` sources this walk accounts
        for at the node (see :meth:`seed_prefix`)."""
        node = self.path[index]
        prefix = self.prefix_rows(index)
        covered = sorted(node.tried | node.alternatives)
        return [
            {
                "prefix": prefix,
                "flip_key": list(node.key),
                "flip_order": list(node.order),
                "alt": alt,
                "covered": covered,
            }
            for alt in sources
        ]

    def take_subtree_leases(self) -> list[dict]:
        """Claim the open frontier as independently explorable subtree
        roots, deepest first — the prefix partition a distributed
        coordinator leases to workers (:meth:`lease_specs`).  Every
        enumerated alternative is marked tried, so the local walk will
        not also explore it."""
        out: list[dict] = []
        for i in range(len(self.path) - 1, -1, -1):
            node = self.path[i]
            if node.frozen or node.pinned or not node.untried:
                continue
            out.extend(self.lease_specs(i, sorted(node.untried)))
            node.tried |= node.alternatives
        return out

    def split_deepest(self) -> list[dict]:
        """Donate roughly half of the deepest open node's untried
        alternatives to a work-stealing sibling.  The victim keeps at
        least one alternative of its total frontier (never donates itself
        idle); donated sources are marked tried locally and returned as
        lease specs (:meth:`lease_specs`).  Returns ``[]`` when there is
        nothing worth splitting."""
        open_nodes = [
            (i, n)
            for i, n in enumerate(self.path)
            if not (n.frozen or n.pinned) and n.untried
        ]
        total = sum(len(n.untried) for _, n in open_nodes)
        if total < 2:
            return []
        i, node = open_nodes[-1]
        alts = sorted(node.untried)
        donated = alts[len(alts) // 2 :] if len(alts) > 1 else alts
        node.tried |= set(donated)
        return self.lease_specs(i, donated)

    def _auto_frozen_keys(self, trace: RunTrace) -> set:
        """Loop-pattern detection: keys of epochs beyond the threshold in a
        consecutive run of identically-signed wildcard operations."""
        if self.auto_loop_threshold is None:
            return set()
        frozen: set = set()
        for rank, epochs in trace.epochs.items():
            run_sig, run_len = None, 0
            for e in epochs:
                sig = (e.ctx, e.tag, e.kind)
                run_len = run_len + 1 if sig == run_sig else 1
                run_sig = sig
                if run_len > self.auto_loop_threshold:
                    frozen.add(e.key)
        return frozen

    def _nodes_from_epochs(
        self, trace: RunTrace, epochs: list[EpochRecord], distance_from: Optional[int]
    ) -> list[DecisionNode]:
        alts = explorable_alternative_sources(trace)
        auto_frozen = self._auto_frozen_keys(trace)
        self.auto_frozen_total += len(auto_frozen)
        epochs = sorted(epochs, key=_order_key)
        nodes = []
        for pos, e in enumerate(epochs, start=1):
            frozen = (not e.explore) or e.matched_source is None or e.key in auto_frozen
            if (
                not frozen
                and distance_from is not None
                and self.bound_k is not None
                and pos > self.bound_k
            ):
                frozen = True
                self.distance_frozen += 1
            if frozen:
                self.frozen_created += 1
            chosen = e.matched_source if e.matched_source is not None else -1
            nodes.append(
                DecisionNode(
                    key=e.key,
                    order=_order_key(e),
                    chosen=chosen,
                    tried={chosen},
                    alternatives=set(alts.get(e.key, set())) | {chosen},
                    frozen=frozen,
                )
            )
        return nodes

    # -- the walk -----------------------------------------------------------------

    def next_decisions(self) -> Optional[EpochDecisions]:
        """Emit the next guided schedule, or None when the space (under the
        configured bounds) is exhausted."""
        for i in range(len(self.path) - 1, -1, -1):
            node = self.path[i]
            if node.frozen or node.pinned or not node.untried:
                continue
            alt = min(node.untried)  # deterministic exploration order
            node.tried.add(alt)
            node.chosen = alt
            self._flip_index = i
            # Unmatched (never-completed) epochs have no source to force;
            # they are frozen and simply omitted from the schedule.
            forced = {
                n.key: n.chosen for n in self.path[: i + 1] if n.chosen >= 0
            }
            return EpochDecisions(forced=forced, flip=node.key)
        return None

    def next_decision_batch(self, width: int) -> list[EpochDecisions]:
        """Up to ``width`` *pending* schedules the serial walk is going to
        request, without mutating the DFS state.  No product code calls
        it any more (the replay pool it fed is gone); it stays because
        ``benchmarks/ledger/spans.py`` patches it by name — see ROADMAP.

        The first element is exactly what the next :meth:`next_decisions`
        call will return.  The remaining elements are the untried sibling
        alternatives of the deepest open node: they share its prefix, so
        they are mutually independent, and because nodes shallower than a
        flip keep their chosen source until the flip's whole subtree is
        exhausted, each sibling schedule is *bit-identical* to the one the
        serial walk will eventually emit for that alternative.  Under
        ``bound_k=0`` every replay's fresh nodes are frozen, so the flips
        of *every* open node are one embarrassingly-parallel wave and the
        batch roams the whole path.

        Returns ``[]`` exactly when :meth:`next_decisions` would return
        ``None``.
        """
        out: list[EpochDecisions] = []
        for i in range(len(self.path) - 1, -1, -1):
            node = self.path[i]
            if node.frozen or node.pinned or not node.untried:
                continue
            base = {n.key: n.chosen for n in self.path[:i] if n.chosen >= 0}
            for alt in sorted(node.untried):
                forced = dict(base)
                forced[node.key] = alt
                out.append(EpochDecisions(forced=forced, flip=node.key))
                if len(out) >= width:
                    return out
            if self.bound_k != 0:
                # with mixing allowed, only the deepest node's siblings are
                # provably schedules the serial walk will ask for verbatim
                break
        return out

    def integrate(self, trace: RunTrace, signature=None) -> bool:
        """Fold a replay's trace into the search state.

        With ``prune=True`` and a ``signature``
        (:class:`repro.dampi.prune.RunSignature`), the flipped node first
        checks the run's signature against its already-walked siblings:
        on a match the whole subtree is pruned (no fresh nodes seeded),
        ``replays_saved`` is credited with the reference subtree's run
        count minus the one run just executed, and ``distance_frozen``
        with the frozen nodes the pruned walk would have created.
        Returns True exactly when the flip was pruned.
        """
        if self._flip_index is None:
            raise RuntimeError("integrate() without a preceding next_decisions()")
        i = self._flip_index
        node = self.path[i]
        pruned = False
        saved = 0
        frozen_credit = 0
        if self.prune and signature is not None and not node.pinned:
            sig = signature.for_key(node.key)
            ref = node.sigs.get(sig)
            if ref is not None and ref != node.chosen:
                pruned = True
                saved = max(node.vcost.get(ref, 1) - 1, 0)
                frozen_credit = node.vfrozen.get(ref, 0)
                self.prunes += 1
                self.replays_saved += saved
                self.distance_frozen += frozen_credit
            else:
                node.sigs.setdefault(sig, node.chosen)
        self._flip_index = None
        if trace.diverged:
            self.divergences += 1
        prefix = self.path[: i + 1]
        prefix_keys = {n.key for n in prefix}
        # prefix nodes may have new alternatives discovered under this path
        alts = explorable_alternative_sources(trace)
        for m in prefix:
            if not m.frozen:
                m.alternatives |= alts.get(m.key, set())
        frozen_before = self.distance_frozen
        if not pruned:
            fresh_epochs = [e for e in trace.all_epochs() if e.key not in prefix_keys]
            fresh = self._nodes_from_epochs(trace, fresh_epochs, distance_from=i)
            self.path = prefix + fresh
        else:
            self.path = prefix
        if self.prune:
            self._charge_path(
                1 + saved, (self.distance_frozen - frozen_before) + frozen_credit
            )
            self._stamp_signature(signature, self.path[i + 1 :])
        return pruned

    def _charge_path(self, run_units: int, frozen_units: int) -> None:
        """Credit one finished run (plus everything a prune skipped) to
        the subtree accounting of every node whose subtree contains it —
        the chosen-source branch of each node on the current path."""
        for n in self.path:
            n.vcost[n.chosen] = n.vcost.get(n.chosen, 0) + run_units
            if frozen_units:
                n.vfrozen[n.chosen] = n.vfrozen.get(n.chosen, 0) + frozen_units

    def _stamp_signature(self, signature, nodes) -> None:
        """Record a run's signature as the *natural* sibling at each
        freshly seeded node.  Disabled under bounded mixing: a natural
        subtree's freezing window is anchored at the run's own flip, a
        sibling flip's at the node itself, so the two walks are not
        isomorphic and only flip-vs-flip signatures may be compared."""
        if signature is None or self.bound_k is not None:
            return
        for n in nodes:
            n.sigs.setdefault(signature.for_key(n.key), n.chosen)

    # -- accounting ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return all(n.frozen or n.pinned or not n.untried for n in self.path)

    def stats(self) -> dict:
        return {
            "path_length": len(self.path),
            "frozen_nodes": sum(1 for n in self.path if n.frozen),
            "open_alternatives": sum(
                len(n.untried) for n in self.path if not (n.frozen or n.pinned)
            ),
            "divergences": self.divergences,
            "prunes": self.prunes,
            "replays_saved": self.replays_saved,
        }
