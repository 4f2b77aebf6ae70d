"""A refused restore leaves the algorithm exactly as it was built.

A checkpoint holds one named state part per stateful piece of a run: the
RL tables (``rl/``), the fleet (``fleet``), the codec's error-feedback
residuals (``codec``) and Decoupled's per-level weights (``stream/``).
Restoring one whose parts are not exactly the run's — or whose part a
run's piece refuses — must raise ``ValueError`` and change nothing: the
history stays empty, the weights, the RNG and every part stay as built,
and a matching checkpoint restores afterwards.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api.registry import get_algorithm
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig

FEDERATED = FederatedConfig(num_rounds=2, clients_per_round=4, eval_every=2)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)

#: (algorithm, scenario, transport codec) of every run a case reads or restores onto
SETUPS = [
    ("adaptivefl", None, "none"),
    ("adaptivefl", "flaky_edge", "none"),
    ("adaptivefl", None, "topk"),
    ("adaptivefl", "flaky_edge", "topk"),
    ("adaptivefl", "flaky_edge", "int8"),
    ("heterofl", None, "none"),
    ("decoupled", None, "none"),
]


def build(easy_setup, name: str, scenario: str | None, codec: str):
    federated = replace(FEDERATED, transport_codec=codec)
    kwargs = dict(
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        scenario=scenario,
        seed=0,
    )
    spec = get_algorithm(name)
    if spec.uses_pool_config:
        kwargs["pool_config"] = easy_setup["pool"]
    if spec.uses_algorithm_config:
        return spec.factory(
            algorithm_config=AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"]),
            **kwargs,
        )
    return spec.factory(federated_config=federated, local_config=LOCAL, **kwargs)


@pytest.fixture(scope="module")
def checkpoints(easy_setup):
    """The checkpoint after 2 rounds of every setup."""
    taken = {}
    for setup in SETUPS:
        algorithm = build(easy_setup, *setup)
        algorithm.run()
        taken[setup] = algorithm.checkpoint_state()
    return taken


def without(checkpoint, prefix: str):
    arrays = {key: value for key, value in checkpoint.extra_arrays.items() if not key.startswith(prefix)}
    return replace(checkpoint, extra_arrays=arrays)


def grafted(checkpoint, donor, prefix: str):
    arrays = dict(checkpoint.extra_arrays)
    arrays.update({key: value for key, value in donor.extra_arrays.items() if key.startswith(prefix)})
    return replace(checkpoint, extra_arrays=arrays)


PLAIN, FLAKY, TOPK = SETUPS[0], SETUPS[1], SETUPS[2]
FLAKY_TOPK, FLAKY_INT8, HETEROFL, DECOUPLED = SETUPS[3], SETUPS[4], SETUPS[5], SETUPS[6]

#: case → (setup restored onto, the refused checkpoint built from ``checkpoints``)
CASES = {
    "unexpected-fleet": (PLAIN, lambda taken: taken[FLAKY]),
    "missing-fleet": (FLAKY, lambda taken: taken[PLAIN]),
    "unexpected-codec": (PLAIN, lambda taken: taken[TOPK]),
    "missing-codec": (TOPK, lambda taken: taken[PLAIN]),
    "unexpected-rl": (HETEROFL, lambda taken: grafted(taken[HETEROFL], taken[PLAIN], "rl/")),
    "missing-rl": (PLAIN, lambda taken: without(taken[PLAIN], "rl/")),
    "unexpected-stream": (PLAIN, lambda taken: grafted(taken[PLAIN], taken[DECOUPLED], "stream/")),
    "missing-stream": (DECOUPLED, lambda taken: without(taken[DECOUPLED], "stream/")),
    "missing-one-level": (DECOUPLED, lambda taken: without(taken[DECOUPLED], "stream/M/")),
    # every part is present; the codec part refuses after rl and fleet loaded
    "other-codec": (FLAKY_INT8, lambda taken: taken[FLAKY_TOPK]),
}


def assert_same_checkpoint(actual, expected):
    assert actual.history == expected.history
    assert actual.rng_state == expected.rng_state
    assert actual.extra_state == expected.extra_state
    for name in ("global_state", "extra_arrays"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert list(got) == list(want), name
        for key, value in want.items():
            assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("case", sorted(CASES))
def test_refused_restore_leaves_the_algorithm_as_built(easy_setup, checkpoints, case):
    setup, refused = CASES[case]
    target = build(easy_setup, *setup)
    fresh = build(easy_setup, *setup).checkpoint_state()

    with pytest.raises(ValueError):
        target.restore_checkpoint(refused(checkpoints))

    assert len(target.history) == 0
    assert_same_checkpoint(target.checkpoint_state(), fresh)
    matching = checkpoints[setup]
    target.restore_checkpoint(matching)
    assert_same_checkpoint(target.checkpoint_state(), matching)


def test_every_setup_holds_its_parts(checkpoints):
    """The cases above only mean something if each setup's checkpoint carries the parts they move."""
    prefixes = {
        setup: sorted({key.split("/")[0] for key in checkpoint.extra_arrays} | set(checkpoint.extra_state))
        for setup, checkpoint in checkpoints.items()
    }
    assert prefixes[FLAKY_TOPK] == ["codec", "fleet", "rl"]
    assert prefixes[PLAIN] == ["rl"]
    assert prefixes[HETEROFL] == []
    assert prefixes[DECOUPLED] == ["stream"]
    assert any(key.startswith("codec/") for key in checkpoints[TOPK].extra_arrays)
