"""Baseline federated-learning algorithms the paper compares against.

* :class:`~repro.baselines.fedavg.AllLargeFedAvg` — classic FedAvg training
  the full model on every selected client ("All-Large" in Table 2),
* :class:`~repro.baselines.decoupled.DecoupledFL` — independent FedAvg per
  size level with no cross-level knowledge sharing ("Decoupled"),
* :class:`~repro.baselines.heterofl.HeteroFL` — static width-wise pruning
  of every layer, level assigned from known device resources,
* :class:`~repro.baselines.scalefl.ScaleFL` — two-dimensional (width +
  depth) scaling, level assigned from known device resources.

Each class registers itself in :mod:`repro.api.registry` via
``@register_algorithm`` and declares there which configs it accepts
(e.g. HeteroFL's fixed pool); look a baseline up by name with
:func:`repro.api.registry.get_algorithm`, never through this module.
"""

from repro.baselines.decoupled import DecoupledFL
from repro.baselines.fedavg import AllLargeFedAvg
from repro.baselines.heterofl import HeteroFL
from repro.baselines.scalefl import ScaleFL

__all__ = ["AllLargeFedAvg", "DecoupledFL", "HeteroFL", "ScaleFL"]
