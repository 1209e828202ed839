"""The ``flow`` rule family: interprocedural dataflow and typestate.

A CFG + worklist-fixpoint engine (:mod:`cfg`, :mod:`engine`), shared by
the order and san families, carrying two analyses over the packet-stage
pipeline:

* skb typestate against the stage order derived from the live
  Stage/Transition objects (:mod:`rules_skb`, :mod:`stagespec`;
  FLOW401-404);
* time-unit / wall-clock taint (:mod:`rules_time`; TIME501-502).

Run every family with ``repro check``; its ``trace`` step
(:mod:`repro.analysis.trace`) holds the derived stage graph against the
golden traces.
"""
