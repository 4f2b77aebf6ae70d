"""The ``ExperimentSpec`` JSON example in the CLI guide is a spec today's code reads."""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.api.spec import ExperimentSpec
from repro.experiments.settings import ExperimentSetting

CLI_GUIDE = Path(__file__).resolve().parents[2] / "docs" / "guides" / "cli.md"


def spec_example() -> dict:
    """The first ```json block of the guide."""
    return json.loads(re.search(r"```json\n(.*?)```", CLI_GUIDE.read_text(encoding="utf-8"), re.DOTALL).group(1))


def test_example_lists_every_setting_field():
    assert list(spec_example()["setting"]) == list(ExperimentSetting().to_dict())


def test_example_loads_as_a_spec():
    spec = ExperimentSpec.from_dict(spec_example())
    assert spec.to_dict() == spec_example()
