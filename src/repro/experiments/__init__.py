"""Figure drivers — one module per figure.

Every module exposes ``run(quick=False) -> ExperimentOutput`` and is
named after its figure (``fig10_udp_stress`` is the paper's Fig. 10;
fig21 measures the ONCache flow cache). :data:`repro.experiments.run_all.FIGURES` lists them all, and
``repro figures [--quick] [--only NAME,...]`` renders them under
``results/``. The figure tier (``pytest -m slow tests/figures``) runs
each in quick mode (shorter windows, fewer points), asserts its headline
result and pins its numbers.
"""

from repro.experiments.runner import ExperimentOutput, standard_modes

__all__ = ["ExperimentOutput", "standard_modes"]
