"""Association degree measures (ADMs).

Section 3.2 of the paper defines association as *any* scoring function over
presence-instance overlaps that is normalised to ``[0, 1]``, monotone in the
amount of overlap, and anti-monotone in the individual entities' total
activity.  The index and the search algorithm only rely on those properties.

This subpackage provides:

* :class:`~repro.measures.base.AssociationMeasure` -- the abstract contract.
* :class:`~repro.measures.adm.HierarchicalADM` -- the extensible measure of
  Equation 7.1 used throughout the paper's evaluation.
* :class:`~repro.measures.adm.ExampleDiceADM` -- the two-level Dice-style
  measure of Example 5.2.1.
* Classic set similarities lifted to per-level ST-cell sets:
  :class:`~repro.measures.setsim.JaccardADM`,
  :class:`~repro.measures.setsim.DiceADM`,
  :class:`~repro.measures.setsim.OverlapADM`,
  :class:`~repro.measures.setsim.FScoreADM`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.measures.adm": ["ExampleDiceADM", "HierarchicalADM"],
        "repro.measures.base": ["AssociationMeasure", "level_overlaps"],
        "repro.measures.setsim": ["DiceADM", "FScoreADM", "JaccardADM", "OverlapADM"],
    },
)
