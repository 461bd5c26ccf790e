"""Experiment drivers reproducing every evaluation figure/table of the paper.

Each module exposes a ``run()`` function returning a structured result and a
``format_report()`` function rendering it as the rows/series the paper
reports.  The mapping to the paper is:

=========================================  =====================================
:mod:`repro.experiments.fig04_layer_breakdown`   Fig. 4  (layer time breakdown)
:mod:`repro.experiments.fig05_stall_breakdown`   Fig. 5  (RP pipeline stalls)
:mod:`repro.experiments.fig06_onchip_storage`    Fig. 6  (intermediates vs. on-chip storage)
:mod:`repro.experiments.fig07_bandwidth`         Fig. 7  (memory bandwidth sensitivity)
:mod:`repro.experiments.fig15_rp_acceleration`   Fig. 15 (RP speedup & energy)
:mod:`repro.experiments.fig16_pim_breakdown`     Fig. 16 (PIM design-point breakdown)
:mod:`repro.experiments.fig17_end_to_end`        Fig. 17 (end-to-end speedup & energy)
:mod:`repro.experiments.fig18_frequency_sweep`   Fig. 18 (distribution dim. vs. PE frequency)
:mod:`repro.experiments.table05_accuracy`        Table 5 (approximation accuracy)
:mod:`repro.experiments.overhead`                Sec. 6.5 (area / power / thermal overhead)
=========================================  =====================================

:func:`repro.engine.run_experiments` runs any selection of them over one
shared simulation context, in the calling thread (``repro reproduce`` on the
command line).
"""

__all__ = [
    "fig04_layer_breakdown",
    "fig05_stall_breakdown",
    "fig06_onchip_storage",
    "fig07_bandwidth",
    "fig15_rp_acceleration",
    "fig16_pim_breakdown",
    "fig17_end_to_end",
    "fig18_frequency_sweep",
    "table05_accuracy",
    "overhead",
]
