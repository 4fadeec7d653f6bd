"""Design-space exploration: generate, search and rank management
architectures for one layered application.

* :mod:`repro.optimize.space` — parametric candidate generation
  (:class:`DesignSpace`, :class:`CostModel`, :class:`UpgradeOption`);
* :mod:`repro.optimize.search` — exhaustive and importance-guided
  greedy search over a shared :class:`~repro.core.sweep.SweepEngine`
  (:class:`DesignSpaceSearch`, :class:`SearchResult`);
* :mod:`repro.optimize.frontier` — Pareto frontier, budgeted
  recommendation and JSON/CSV export
  (:func:`pareto_frontier`, :func:`best_under_budget`,
  :class:`OptimizationReport`);
* :mod:`repro.optimize.spec` — the ``repro optimize`` JSON spec parser.
"""

from repro.optimize.frontier import (
    OptimizationReport,
    best_under_budget,
    dominates,
    pareto_frontier,
)
from repro.optimize.search import (
    CandidateEvaluation,
    DesignSpaceSearch,
    SearchResult,
    TemporalCandidateEvaluation,
    TemporalRankingResult,
)
from repro.optimize.space import (
    STYLES,
    TOPOLOGIES,
    Candidate,
    CostModel,
    DesignSpace,
    UpgradeOption,
)
from repro.optimize.spec import (
    SearchSpec,
    search_spec_from_document,
    space_from_document,
)

__all__ = [
    "STYLES",
    "TOPOLOGIES",
    "Candidate",
    "CandidateEvaluation",
    "CostModel",
    "DesignSpace",
    "DesignSpaceSearch",
    "OptimizationReport",
    "SearchResult",
    "SearchSpec",
    "TemporalCandidateEvaluation",
    "TemporalRankingResult",
    "UpgradeOption",
    "best_under_budget",
    "dominates",
    "pareto_frontier",
    "search_spec_from_document",
    "space_from_document",
]
