"""tools/make_fixtures.py: the committed replay cache is what the simulated
model records today, so a change to perfbench/synth.SimulatedChatModel's
draws fails here and not only when the fixtures are regenerated."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

from lemmabench import experiment

_PATH = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
_SPEC = importlib.util.spec_from_file_location("make_fixtures", _PATH)
make_fixtures = importlib.util.module_from_spec(_SPEC)
with mock.patch.object(sys, "path", list(sys.path)):  # keep perfbench/ off the suite's path
    _SPEC.loader.exec_module(make_fixtures)


def test_recording_the_replay_config_reproduces_the_committed_cache(fixtures_dir, tmp_path):
    cfg = experiment.load_config(fixtures_dir / "replay" / "config.json", out_dir=tmp_path / "out")
    assert make_fixtures.record_replay_cache(cfg, tmp_path / "cache") == 150
    committed = fixtures_dir / "replay" / "cache" / "log.tsv"
    assert (tmp_path / "cache" / "log.tsv").read_bytes() == committed.read_bytes()
