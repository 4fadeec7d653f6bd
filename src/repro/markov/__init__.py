"""Continuous-time Markov chains and Markov-reward models.

The paper's analysis uses static steady-state failure probabilities;
this package supplies the dynamic underpinning and the §7 extension:

* :mod:`repro.markov.ctmc` — generator construction, steady-state and
  transient solution, expected reward rates.
* :mod:`repro.markov.uniformization` — transient probabilities by
  uniformization (Jensen's method).
* :mod:`repro.markov.availability` — two-state failure/repair component
  models; converts (failure rate, repair rate) pairs into the static
  probabilities the core analysis consumes, and builds the exact joint
  chain for small systems.
* :mod:`repro.markov.detection` — the detection/reconfiguration-delay
  extension sketched in §7 (following [29]): a Markov-reward model over
  (component state, active configuration) pairs where reconfiguration
  happens at a finite rate rather than instantaneously, solved per
  configuration over the down-sets alone.
"""

from repro.markov.ctmc import CTMC
from repro.markov.uniformization import transient_distribution
from repro.markov.availability import (
    ComponentAvailability,
    independent_components_ctmc,
    steady_state_unavailability,
    validate_rates,
)
from repro.markov.detection import DelayModelResult, detection_delay_model
from repro.markov.transient import (
    TransientPerformability,
    TransientPoint,
    transient_unavailability,
)

__all__ = [
    "CTMC",
    "ComponentAvailability",
    "DelayModelResult",
    "TransientPerformability",
    "TransientPoint",
    "detection_delay_model",
    "independent_components_ctmc",
    "steady_state_unavailability",
    "transient_distribution",
    "transient_unavailability",
    "validate_rates",
]
