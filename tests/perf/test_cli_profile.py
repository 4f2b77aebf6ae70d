"""CLI integration of the perf layer: --profile and --transport-codec flags."""

import json

import pytest

from repro.api.cli import main
from repro.api.spec import ExperimentSpec


#: the stages that partition a round (profiler.py's table)
ROUND_CHILDREN = {
    "round.plan", "round.fleet", "round.publish", "round.execute",
    "round.fold", "round.evaluate", "round.record", "round.checkpoint",
}


class TestCliProfileFlag:
    def test_profile_writes_summary_and_prints_table(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1",
                "--profile", "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        profile_path = tmp_path / "heterofl_profile.json"
        assert profile_path.exists()
        payload = json.loads(profile_path.read_text(encoding="utf-8"))
        names = {scope["name"] for scope in payload["scopes"]}
        assert {"round", "round.execute", "round.unattributed", "task.train"} <= names
        out = capsys.readouterr().out
        assert "profile — heterofl" in out
        assert "round.execute" in out

    def test_flaky_edge_round_is_partitioned_by_its_stages(self, tmp_path):
        """The direct children of ``round`` plus ``round.unattributed`` are ``round``; the
        unattributed rest is under 5 %; the ``round_end`` events carry the same measurement."""
        log = tmp_path / "run.jsonl"
        rc = main(
            [
                "run", "--scale", "ci", "--scenario", "flaky_edge", "--rounds", "6", "--profile",
                "--quiet", "--telemetry", str(log), "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "adaptivefl_profile.json").read_text(encoding="utf-8"))
        rows = {scope["name"]: scope for scope in payload["scopes"]}
        whole = rows["round"]
        assert whole["calls"] == 6
        assert ROUND_CHILDREN <= set(rows)
        children = sum(rows[name]["seconds"] for name in ROUND_CHILDREN)
        unattributed = rows["round.unattributed"]["seconds"]
        assert children + unattributed == pytest.approx(whole["seconds"], abs=1e-9)
        assert 0.0 <= unattributed <= 0.05 * whole["seconds"]
        events = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        ends = [event["data"]["duration_seconds"] for event in events if event["type"] == "round_end"]
        assert len(ends) == 6
        # each round_end is rounded to the µs, and so is the profile's total
        assert sum(ends) == pytest.approx(whole["seconds"], abs=7e-6)

    def test_transport_flag_recorded_in_spec(self, tmp_path):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1",
                "--transport-codec", "int8", "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        spec = ExperimentSpec.load(tmp_path / "spec.json")
        assert spec.setting.transport_codec == "int8"

    def test_no_profile_flag_writes_no_profile(self, tmp_path):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1",
                "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        assert not (tmp_path / "heterofl_profile.json").exists()
