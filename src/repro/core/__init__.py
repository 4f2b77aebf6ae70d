"""AdaptiveFL core: the paper's contribution.

* :mod:`repro.core.pruning` — fine-grained width-wise model pruning,
* :mod:`repro.core.model_pool` — the heterogeneous model pool (S/M/L × p),
* :mod:`repro.core.rl_selection` — RL-based client selection,
* :mod:`repro.core.aggregation` — heterogeneous model aggregation,
* :mod:`repro.core.server` — the AdaptiveFL training loop,
* :mod:`repro.core.fl_base` — shared federated scaffolding reused by the
  baselines.

Import from the submodules; the package itself exports nothing.
"""
