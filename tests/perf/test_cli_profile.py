"""CLI integration of the perf layer: --profile and --transport-codec flags."""

import json

from repro.api.cli import main
from repro.api.spec import ExperimentSpec


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
        assert "round" in names and "round.training" in names
        out = capsys.readouterr().out
        assert "profile — heterofl" in out
        assert "round.training" in out

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
