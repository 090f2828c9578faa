"""What DAMPI is measured against — comparators, not part of the verifier.

* :mod:`benchmarks.comparators.isp` — ISP, the centralized baseline
  (paper §II-A): a synchronous round-trip per MPI call to one serialised
  scheduler, with omniscient match discovery (Figs. 5, 6).
* :mod:`benchmarks.comparators.tracereplay` — the trace-based
  record/replay family (ScalaTrace [25], MPIWiz [26]; paper §IV): capture
  one execution's matches and replay them deterministically — "they do
  not have the ability to analyze the observed schedule and derive from
  them alternate schedules"; its tests pin the limitation.
* :mod:`benchmarks.comparators.opstats` — the op census behind Table I.

The §IV schedule-perturbation family (Jitterbug [3], Marmot [23], Intel
Message Checker [24]) needs no module here: it is the engine's
seeded-random match policy (``policy="random:<seed>"``), and
``bench_ablation_bounding.py`` measures its coverage against DAMPI's on
an equal run budget.
"""
