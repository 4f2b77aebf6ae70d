"""Stored-run identity, pinned.

A stored run is addressed by the hash of its canonical key
(:func:`repro.store.keys.run_key`), and the key embeds
``ExperimentSetting.to_dict()``: renaming, moving or re-defaulting a
setting field silently orphans every stored run.  ``golden/run_keys.json``
pins the run IDs of the four ``benchmarks/e2e`` workload settings (seed 0)
and, for an :class:`~repro.api.spec.ExperimentSpec` with every field set,
the canonical JSON hash of the spec and the run ID of each of its runs.

Regenerate only for a deliberate identity change:
``PYTHONPATH=src python tests/store/test_run_key_goldens.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from repro.api.registry import get_algorithm
from repro.api.spec import ExperimentSpec
from repro.experiments.settings import ExperimentSetting
from repro.store.keys import run_key
from repro.store.objects import canonical_json, sha256_hex
from repro.store.runstore import RunStore

GOLDEN_PATH = Path(__file__).parent / "golden" / "run_keys.json"
WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"

#: every field away from its default, except ``transport``, whose only value is the default
EXPLICIT_SPEC = ExperimentSpec(
    setting=ExperimentSetting(
        dataset="cifar100",
        model="resnet18",
        distribution="dirichlet",
        alpha=0.3,
        proportion="2:3:5",
        scale="small",
        seed=7,
        resource_uncertainty=0.2,
        executor="thread",
        max_workers=3,
        scenario="flaky_edge",
        transport_codec="int8",
        overrides={"num_rounds": 9, "eval_every": 3},
    ),
    algorithms=("heterofl", "adaptivefl"),
    selection_strategy="rl-c",
    num_rounds=5,
    output_dir="out",
)


def workload_settings() -> dict:
    spec = importlib.util.spec_from_file_location("e2e_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return {name: workload.setting for name, workload in module.WORKLOADS.items()}


def run_ids() -> dict:
    pins = {
        f"workload/{name}": RunStore.run_id_for(run_key(ExperimentSetting(seed=0, **setting), "adaptivefl"))
        for name, setting in workload_settings().items()
    }
    pins["spec/sha256"] = sha256_hex(canonical_json(EXPLICIT_SPEC.to_dict()).encode("utf-8"))
    for name in EXPLICIT_SPEC.algorithms:
        strategy = EXPLICIT_SPEC.selection_strategy if get_algorithm(name).uses_selection_strategy else None
        key = run_key(EXPLICIT_SPEC.setting, name, selection_strategy=strategy, num_rounds=EXPLICIT_SPEC.num_rounds)
        pins[f"spec/{name}"] = RunStore.run_id_for(key)
    key = run_key(EXPLICIT_SPEC.setting, "adaptivefl", scenario_override="paper_testbed")
    pins["spec/adaptivefl+paper_testbed"] = RunStore.run_id_for(key)
    return pins


def test_run_ids_match_the_golden():
    assert run_ids() == json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_the_explicit_spec_sets_every_setting_field():
    explicit = EXPLICIT_SPEC.setting.to_dict()
    default = ExperimentSetting().to_dict()
    assert [name for name in default if explicit[name] == default[name]] == ["transport"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    fixture = run_ids()
    GOLDEN_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(fixture)} pins)", file=sys.stderr)
