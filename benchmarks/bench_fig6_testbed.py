"""Table 5 + Figure 6 — the (simulated) real test-bed experiment.

17 devices (4 Raspberry Pi 4B, 10 Jetson Nano, 3 Jetson Xavier AGX) train
a MobileNetV2-lite on a Widar-like gesture dataset; accuracy is reported
against simulated wall-clock time.  The qualitative claim is that
AdaptiveFL reaches higher accuracy than HeteroFL/ScaleFL within the same
time budget.
"""

import numpy as np

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.server import AdaptiveFL
from repro.baselines import HeteroFL, ScaleFL
from repro.data.datasets import make_widar_like
from repro.data.partition import natural_partition
from repro.devices.resources import ResourceModel
from repro.devices.testbed import TESTBED_DEVICE_SPECS
from repro.store.report import format_table
from repro.nn.models import SlimmableMobileNetV2
from repro.sim.fleet import FleetSimulator
from repro.sim.scenario import get_scenario

from common import once

ROUNDS = 5


def _build_testbed_experiment(seed=0):
    arch = SlimmableMobileNetV2(
        num_classes=22, input_shape=(1, 16, 16), width_multiplier=0.25, stem_channels=8, head_channels=32
    )
    train, test = make_widar_like(num_users=17, train_samples=850, test_samples=220, image_size=16, seed=seed)
    # the profiles of the devices the paper_testbed clock times
    profiles = FleetSimulator(get_scenario("paper_testbed"), 17, seed=seed).build_profiles()
    partition = natural_partition(train, 17, np.random.default_rng(seed))
    resource_model = ResourceModel(profiles, arch.parameter_count(), uncertainty=0.1, seed=seed)
    federated = FederatedConfig(num_rounds=ROUNDS, clients_per_round=10, eval_every=2)
    local = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=2)
    max_layer = arch.num_prunable_layers()
    pool = ModelPoolConfig(models_per_level=3, start_layers=(max_layer - 1, max_layer - 3, max_layer - 5), min_start_layer=1)
    kwargs = dict(
        architecture=arch,
        train_dataset=train,
        partition=partition,
        test_dataset=test,
        profiles=profiles,
        federated_config=federated,
        local_config=local,
        resource_model=resource_model,
        scenario="paper_testbed",
        seed=seed,
    )
    return kwargs, AdaptiveFLConfig(federated=federated, local=local, pool=pool), pool


def test_table5_device_configuration():
    rows = [
        [spec.name, spec.device_class, f"{spec.memory_gb:.0f}G", spec.count] for spec in TESTBED_DEVICE_SPECS
    ]
    print("\nTable 5 — test-bed platform configuration")
    print(format_table(["device", "class", "memory", "count"], rows))
    assert sum(spec.count for spec in TESTBED_DEVICE_SPECS) == 17


def test_fig6_testbed_accuracy_vs_time(benchmark):
    def run_all():
        results = {}
        kwargs, adaptive_config, pool = _build_testbed_experiment()
        results["adaptivefl"] = AdaptiveFL(algorithm_config=adaptive_config, pool_config=pool, **kwargs).run()
        kwargs, _, pool = _build_testbed_experiment()
        results["heterofl"] = HeteroFL(**kwargs).run()
        kwargs, _, pool = _build_testbed_experiment()
        results["scalefl"] = ScaleFL(pool_config=pool, **kwargs).run()
        return results

    histories = once(benchmark, run_all)
    rows = []
    for name, history in histories.items():
        seconds, accuracies = history.time_curve("full")
        rows.append([name, f"{seconds[-1]:.0f}s", f"{max(accuracies) * 100:.2f}"])
        series = ", ".join(f"({t:.0f}s, {a * 100:.1f})" for t, a in zip(seconds, accuracies))
        print(f"{name}: {series}")
    print("\nFigure 6 — simulated test-bed (Widar-like, MobileNetV2-lite, CI scale)")
    print(format_table(["algorithm", "total time", "best full acc (%)"], rows))
    benchmark.extra_info["rows"] = rows
    for history in histories.values():
        seconds, _ = history.time_curve("full")
        assert seconds and seconds == sorted(seconds)
