"""The stage table against the files each stage opens.

Each cli._STAGES row names the experiment.PATHS files under --out that its
stage may read and those it writes; predictions and diagnostics stand for
the file of any system, split and run.  Here every stage of the table runs
through cli.main, in table order, on a copy of the replay fixture, under an
audit hook (PEP 578) that sees each file a stage opens and each file it
renames into place (artifact.publish's os.replace raises os.rename).  A
stage must:
- open for reading under --out only the files its row reads;
- open for writing under --out only publish's temporary files (.NAME.PID.tmp)
  beside the files its row writes, and rename only onto those files;
- put in place each file name its row writes, first in the row's order
  (score writes runs before scores), and no file twice;
- open outside --out only the config, the source corpus, the response cache,
  external prediction or diagnostics files, the package's own files and
  files of the Python installation (a stage may import a module lazily).
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from pathlib import Path

import pytest

import lemmabench
from lemmabench import cli, experiment

# An audit hook cannot be removed: it records only while _trace is a list.
_trace: list | None = None
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT


def _hook(event, args):
    if _trace is not None and event in ("open", "os.rename"):
        _trace.append((event, args))


@pytest.fixture(scope="module")
def traced_build(fixtures_dir, tmp_path_factory):
    """(config file, config, each stage's events) of a build on a copy of the replay fixture."""
    global _trace
    root = tmp_path_factory.mktemp("traced")
    shutil.copytree(fixtures_dir / "replay", root / "replay")
    shutil.copytree(fixtures_dir / "corpora", root / "corpora")
    config, out = root / "replay" / "config.json", root / "out"
    sys.addaudithook(_hook)
    events = {}
    for stage in cli._STAGES:
        _trace = events[stage] = []
        try:
            status = cli.main([stage, "--config", str(config), "--out", str(out)])
        finally:
            _trace = None
        assert status == 0, stage
    return config.resolve(), experiment.load_config(config, out_dir=out), events


def _expand(cfg, names) -> dict[Path, str]:
    """The paths of names for every system, split and run of the config, each
    mapped to its name."""
    return {
        cfg.path(name, system=system.name, split=cfg.split_name(part), run=run).resolve(): name
        for name in names for system in cfg.systems
        for part in ("train", "dev", "test") for run in range(cfg.runs)
    }


def _opens(events):
    """(path, whether it is opened for writing) of each file opened by name."""
    for event, args in events:
        if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
            yield Path(os.fsdecode(args[0])).resolve(), bool(args[2] & _WRITE_FLAGS)


def _outside(config: Path, cfg):
    """The files, and the folders, outside --out that a stage may open."""
    files = {config, cfg.corpus_path, *(p for s in cfg.systems for p in s.predictions),
             *(s.dev_diagnostics for s in cfg.systems if s.dev_diagnostics)}
    folders = (cfg.cache_dir, Path(lemmabench.__file__).parent, sys.prefix, sys.base_prefix)
    return {Path(f).resolve() for f in files}, [Path(f).resolve() for f in folders]


@pytest.mark.parametrize("stage", list(cli._STAGES))
def test_a_stage_opens_and_writes_only_the_files_its_row_declares(traced_build, stage):
    config, cfg, events = traced_build
    _, _, reads, writes = cli._STAGES[stage]
    out = Path(cfg.out_dir).resolve()
    may_read, may_write = _expand(cfg, reads), _expand(cfg, writes)
    files, folders = _outside(config, cfg)
    for path, writing in _opens(events[stage]):
        if not path.is_relative_to(out):
            assert path in files or any(map(path.is_relative_to, folders)), (
                f"{stage} opened {path}"
            )
        elif writing:
            temporary = re.fullmatch(r"\.(.+)\.\d+\.tmp", path.name)
            assert temporary and path.with_name(temporary[1]) in may_write, (
                f"{stage} wrote {path}, not publish's temporary file of one its row names"
            )
        else:
            assert path in may_read, f"{stage} read {path}, which its row does not name"
    placed = [Path(os.fsdecode(args[1])).resolve() for event, args in events[stage]
              if event == "os.rename"]
    stray = [path for path in placed if path not in may_write]
    assert not stray, f"{stage} put {stray} in place"
    assert len(set(placed)) == len(placed), f"{stage} put a file in place twice"
    first_placed = list(dict.fromkeys(may_write[path] for path in placed))
    assert first_placed == list(writes), f"{stage} first put in place {first_placed}"
