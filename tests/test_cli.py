"""CLI smoke: the full stage sequence on the replay fixture, and exits."""

import json
import re

import pytest

from lemmabench import experiment
from lemmabench import prompt as prompt_mod
from lemmabench.align import read_diagnostics, write_diagnostics
from lemmabench.cli import _STAGES, main
from lemmabench.corpus import ingest_tsv


@pytest.fixture(scope="module")
def cli_out(fixtures_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-out")
    config = str(fixtures_dir / "replay" / "config.json")
    return config, out


def _run(config, out, command, *extra, capsys=None):
    return main([command, "--config", config, "--out", str(out), *extra])


def test_full_stage_sequence(cli_out, capsys):
    config, out = cli_out
    for command in ("ingest", "split", "induce", "train-baseline"):
        assert _run(config, out, command) == 0
    assert _run(config, out, "run", "--cache-mode", "replay") == 0
    assert _run(config, out, "score") == 0
    assert _run(config, out, "compare") == 0
    assert _run(config, out, "report") == 0

    captured = capsys.readouterr()
    assert "es_fix: 80 sentences, 640 tokens" in captured.out
    assert "baseline on es_fix-test: word accuracy 0.9200" in captured.out
    assert "Lemmatization report" in captured.out
    assert captured.err == ""
    assert (out / "reports" / "report.txt").exists()


def test_report_stdout_matches_frozen_report(cli_out, fixtures_dir, capsys):
    config, out = cli_out
    assert _run(config, out, "report") == 0
    expected = (fixtures_dir / "replay" / "expected" / "report.txt").read_text("utf-8")
    assert capsys.readouterr().out == expected


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"split": {"train": 1, "dev": 1, "test": 1}}), "utf-8")
    assert main(["ingest", "--config", str(bad)]) == 2
    assert "config missing section" in capsys.readouterr().err


def test_replay_cache_miss_exits_2(fixtures_dir, tmp_path, capsys):
    # a config whose fingerprints are absent from the cache must fail loudly
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["corpus"]["path"] = str(fixtures_dir / "corpora" / "es_fix.conllu")
    raw["cache_dir"] = str(fixtures_dir / "replay" / "cache")
    raw["provider"]["model"] = "some-other-model"  # changes every fingerprint
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    out = tmp_path / "out"
    for command in ("ingest", "split", "induce", "train-baseline"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_stage_out_of_order_exits_2(cli_out, tmp_path, capsys):
    config, _ = cli_out
    # score before any predictions exist: friendly error, not a traceback
    assert main(["score", "--config", config, "--out", str(tmp_path / "empty")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command_is_argparse_error(cli_out):
    config, out = cli_out
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", config])


def test_run_rejects_bad_cache_mode(cli_out):
    config, out = cli_out
    with pytest.raises(SystemExit):
        main(["run", "--config", config, "--cache-mode", "offline"])


def test_train_baseline_without_pair_labels_exits_2(cli_out, tmp_path, capsys):
    config, _ = cli_out
    out = tmp_path / "out"
    for command in ("ingest", "split", "induce"):
        assert _run(config, out, command) == 0
    (out / "inventory" / "es_fix.pairs.tsv").unlink()
    capsys.readouterr()
    assert _run(config, out, "train-baseline") == 2
    err = capsys.readouterr().err
    assert "es_fix.pairs.tsv" in err and "have the earlier stages been run?" in err


def test_train_baseline_names_a_bad_pair_labels_line(cli_out, tmp_path, capsys):
    config, _ = cli_out
    out = tmp_path / "out"
    for command in ("ingest", "split", "induce"):
        assert _run(config, out, command) == 0
    pairs = out / "inventory" / "es_fix.pairs.tsv"
    pairs.write_text(pairs.read_text("utf-8") + "perros\t999\t1\n", "utf-8")
    line_no = len(pairs.read_text("utf-8").splitlines())
    capsys.readouterr()
    assert _run(config, out, "train-baseline") == 2
    assert f"es_fix.pairs.tsv:{line_no}: label id '999'" in capsys.readouterr().err


def test_verify_cache_counts_sound_records(cli_out, capsys):
    config, _ = cli_out
    assert main(["verify-cache", "--config", config]) == 0
    assert capsys.readouterr().out.startswith("150 records sound -> ")


def test_verify_cache_exits_2_on_a_damaged_record(fixtures_dir, tmp_path, capsys):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["cache_dir"] = str(tmp_path / "cache")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    (tmp_path / "cache").mkdir()
    log = bytearray((fixtures_dir / "replay" / "cache" / "log.tsv").read_bytes())
    header = log.index(b"\tsim-chat-1\t", len(log) // 2)
    log[log.index(b"\n", header) + 1] ^= 0x20  # first byte of a middle record's text
    (tmp_path / "cache" / "log.tsv").write_bytes(log)
    assert main(["verify-cache", "--config", str(config)]) == 2
    assert "record does not match its sha256" in capsys.readouterr().err


def test_verify_cache_exits_2_when_the_cache_dir_holds_no_log(fixtures_dir, tmp_path, capsys):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["cache_dir"] = str(tmp_path / "cahce")  # a typo
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    assert main(["verify-cache", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: no response cache at {tmp_path / 'cahce' / 'log.tsv'}" in captured.err
    assert not (tmp_path / "cahce").exists()


def test_run_names_a_model_row_whose_script_has_a_field_of_the_wrong_type(
    cli_out, tmp_path, capsys
):
    config, _ = cli_out
    out = tmp_path / "out"
    for command in ("ingest", "split", "induce", "train-baseline"):
        assert _run(config, out, command) == 0
    model = out / "models" / "baseline.tsv"
    model.write_text(model.read_text("utf-8") + 'form\t,\t["preserve","0","",0,""]\n', "utf-8")
    line_no = len(model.read_text("utf-8").splitlines())
    capsys.readouterr()
    assert _run(config, out, "run") == 2
    assert f"baseline.tsv:{line_no}: script" in capsys.readouterr().err


def test_ingest_of_a_corpus_that_is_not_utf8_exits_2_naming_the_line(
    fixtures_dir, tmp_path, capsys
):
    corpus = tmp_path / "latin1.tsv"
    corpus.write_bytes("Perros\tperro\n\ncaf\xe9\tcaf\xe9\n".encode("latin-1"))
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["corpus"].update(path=str(corpus), format="tsv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"{corpus}:3: not UTF-8 text" in capsys.readouterr().err


def test_ingest_of_a_corpus_that_repeats_a_sentence_id_exits_2_naming_it(
    fixtures_dir, tmp_path, capsys
):
    corpus = tmp_path / "dup.tsv"
    corpus.write_text("# sent_id = s-10\na\ta\n\n# sent_id = s-10\nb\tb\n", "utf-8")
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["corpus"].update(path=str(corpus), format="tsv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"{corpus}: sentence id 's-10' repeats" in capsys.readouterr().err


def test_run_with_an_unknown_manual_example_id_exits_2_naming_it(
    fixtures_dir, tmp_path, capsys
):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["corpus"]["path"] = str(fixtures_dir / "corpora" / "es_fix.conllu")
    raw["cache_dir"] = str(fixtures_dir / "replay" / "cache")
    system = next(s for s in raw["systems"] if s["name"] == "llm-basic-4shot")
    system["prompt"]["selection"] = "manual"
    system["manual_ids"] = ["es_fix-0041", "typo-id", "es_fix-0042", "es_fix-0043"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    out = tmp_path / "out"
    for command in ("ingest", "split", "induce", "train-baseline"):
        assert _run(str(config), out, command) == 0
    capsys.readouterr()
    assert _run(str(config), out, "run") == 2
    assert "manual example id 'typo-id' is not in pool es_fix-dev" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ids, message",
    [
        (["es_fix-0040", "es_fix-0040"], "manual selection needs exactly 4 sentence ids"),
        (["es_fix-0040"] * 4, "manual example id 'es_fix-0040' is repeated"),
    ],
)
def test_ingest_refuses_manual_ids_that_do_not_fit_shots(fixtures_dir, tmp_path, capsys, ids,
                                                        message):
    # Before, ingest through train-baseline exited 0 and only run refused them.
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    system = next(s for s in raw["systems"] if s["name"] == "llm-basic-4shot")
    system["prompt"]["selection"] = "manual"
    system["manual_ids"] = ids
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    assert _run(str(config), tmp_path / "out", "ingest") == 2
    assert f"error: system llm-basic-4shot: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    system["manual_ids"] = ["es_fix-0040", "es_fix-0041", "es_fix-0042", "es_fix-0043"]
    config.write_text(json.dumps(raw), "utf-8")
    assert experiment.load_config(config).systems[1].manual_ids == tuple(system["manual_ids"])


def _write_replay_config(fixtures_dir, tmp_path, change):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    change(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    return str(config)


@pytest.mark.parametrize(
    "change, message",
    [
        # run wrote escaped/es_fix-test.run{0,1,2}.tsv two levels above --out.
        (lambda raw: raw["systems"].append({"name": "../../escaped", "kind": "baseline"}),
         "system name '../../escaped' cannot name a file"),
        # baseline and baseline/. loaded as two systems and shared one directory.
        (lambda raw: raw["systems"].append({"name": "baseline/.", "kind": "baseline"}),
         "system name 'baseline/.' cannot name a file"),
        # ingest ended in an uncaught ValueError: embedded null byte.
        (lambda raw: raw["corpus"].update(name="es\0fix"),
         "corpus name 'es\\x00fix' cannot name a file"),
    ],
    ids=["dot-dot", "slash-dot", "nul"],
)
def test_ingest_refuses_a_name_that_cannot_name_a_file(fixtures_dir, tmp_path, capsys, change,
                                                        message):
    config = _write_replay_config(fixtures_dir, tmp_path, change)
    assert _run(config, tmp_path / "out", "ingest") == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("part", ["train", "dev", "test"])
def test_ingest_refuses_a_zero_size_split(fixtures_dir, tmp_path, capsys, part):
    # Before, ingest and split exited 0 and a later stage found no sentences.
    config = _write_replay_config(fixtures_dir, tmp_path, lambda raw: raw["split"].update({part: 0}))
    assert _run(config, tmp_path / "out", "ingest") == 2
    assert f"error: split.{part} must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "change, key",
    [
        # ingest ended in an uncaught ValueError: embedded null byte.
        (lambda raw: raw["corpus"].update(path="../corpora/es_fix.con\0llu"), "corpus.path"),
        # ingest through train-baseline exited 0; run then read the cache as
        # empty and named a missing response.
        (lambda raw: raw.update(cache_dir="ca\0che"), "cache_dir"),
        (lambda raw: raw.update(out_dir="o\0ut"), "out_dir"),
        (lambda raw: raw["systems"][1].update(dev_diagnostics="dev\0.diag.json"),
         "system llm-basic-4shot.dev_diagnostics"),
        (lambda raw: raw["systems"].append(
            {"name": "ext", "kind": "external", "predictions": ["p0.tsv", "p\0.tsv", "p2.tsv"]}),
         "system ext.predictions"),
    ],
    ids=["corpus-path", "cache-dir", "out-dir", "dev-diagnostics", "predictions"],
)
def test_ingest_refuses_a_nul_in_a_path(fixtures_dir, tmp_path, capsys, change, key):
    config = _write_replay_config(fixtures_dir, tmp_path, change)
    assert _run(config, tmp_path / "out", "ingest") == 2
    assert f"error: {key} must be a file path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ingest_refuses_a_nul_in_out(fixtures_dir, tmp_path, capsys):
    # ingest ended in an uncaught ValueError: embedded null byte.
    config = _write_replay_config(fixtures_dir, tmp_path, lambda raw: None)
    assert _run(config, tmp_path / "o\0ut", "ingest") == 2
    assert 'error: --out must be a file path, got "' in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _replay_config(fixtures_dir, tmp_path, **changes):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["corpus"]["path"] = str(fixtures_dir / "corpora" / "es_fix.conllu")
    raw["cache_dir"] = str(fixtures_dir / "replay" / "cache")
    raw["scoring"].update(changes)
    config = tmp_path / f"config-{len(list(tmp_path.glob('config-*')))}.json"
    config.write_text(json.dumps(raw), "utf-8")
    return str(config)


def test_mcnemar_run_outside_the_runs_exits_2_at_every_stage(fixtures_dir, tmp_path, capsys):
    config = _replay_config(fixtures_dir, tmp_path, mcnemar_run=7)
    for command in ("ingest", "run", "score", "compare", "report"):
        assert _run(config, tmp_path / "out", command) == 2
        assert "scoring.mcnemar_run 7 is not a run in 0..2" in capsys.readouterr().err


def test_config_value_of_the_wrong_type_exits_2_naming_the_key(fixtures_dir, tmp_path, capsys):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    for key, change in (
        ("runs", {"runs": "x"}),
        ("split.train", {"split": {**raw["split"], "train": "40"}}),
        ("provider.temprature", {"provider": {**raw["provider"], "temprature": 0.5}}),
        ("provider.model", {"provider": {**raw["provider"], "model": 5}}),
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**raw, **change}), "utf-8")
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err


def test_compare_with_a_repeated_comparison_exits_2_naming_it(fixtures_dir, tmp_path, capsys):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    raw["comparisons"] = [["baseline", "llm-basic-4shot"], ["baseline", "llm-basic-4shot"]]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    assert _run(str(config), tmp_path / "out", "compare") == 2
    err = capsys.readouterr().err
    assert "error: comparison (baseline, llm-basic-4shot) is repeated" in err
    assert not (tmp_path / "out" / "reports").exists()


@pytest.fixture()
def scored_out(fixtures_dir, tmp_path):
    config, out = _replay_config(fixtures_dir, tmp_path), tmp_path / "out"
    for command in ("ingest", "split", "induce", "train-baseline", "run", "score", "compare"):
        assert _run(config, out, command) == 0
    return config, out


def test_score_without_a_diagnostics_file_exits_2(scored_out, capsys):
    config, out = scored_out
    (out / "predictions" / "llm-basic-4shot" / "es_fix-test.run1.diag.json").unlink()
    capsys.readouterr()
    assert _run(config, out, "score") == 2
    err = capsys.readouterr().err
    assert "es_fix-test.run1.diag.json" in err and "have the earlier stages been run?" in err


@pytest.mark.parametrize("text", [None, "[]", "{}"])
def test_score_with_a_bad_diagnostics_file_exits_2_naming_it(scored_out, capsys, text):
    config, out = scored_out
    path = out / "predictions" / "baseline" / "es_fix-test.run0.diag.json"
    whole = path.read_text("utf-8")
    path.write_text(whole[: len(whole) // 2] if text is None else text, "utf-8")
    capsys.readouterr()
    assert _run(config, out, "score") == 2
    err = capsys.readouterr().err
    assert f"{path}: diagnostics are not" in err and "Traceback" not in err


def test_report_after_a_config_change_exits_2_naming_the_stage(
    scored_out, fixtures_dir, tmp_path, capsys
):
    _, out = scored_out
    changed = _replay_config(fixtures_dir, tmp_path, alpha=0.01)
    capsys.readouterr()
    assert _run(changed, out, "report") == 2
    assert "re-run `score`" in capsys.readouterr().err
    assert _run(changed, out, "score") == 0
    assert _run(changed, out, "report") == 2
    assert "re-run `compare`" in capsys.readouterr().err
    assert _run(changed, out, "compare") == 0
    assert _run(changed, out, "report") == 0
    assert "McNemar's test (alpha = 0.01)" in (out / "reports" / "report.txt").read_text("utf-8")


def test_config_with_an_unknown_key_exits_2_naming_it(fixtures_dir, tmp_path, capsys):
    raw = json.loads((fixtures_dir / "replay" / "config.json").read_text("utf-8"))
    misspelled = next(s for s in raw["systems"] if s["name"] == "llm-basic-4shot")
    for key, change in (
        ("config.rnus", {"rnus": 5}),
        ("scoring.polciy", {"scoring": {"polciy": "renormalize"}}),
        ("system llm-basic-4shot.promt", {"systems": [
            {"name": "llm-basic-4shot", "kind": "llm", "promt": misspelled["prompt"]}]}),
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**raw, **change}), "utf-8")
        assert main(["score", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key} is not a known key" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["many", -7])
def test_score_with_a_diagnostics_count_that_is_not_a_count_exits_2(scored_out, capsys, count):
    config, out = scored_out
    path = out / "predictions" / "baseline" / "es_fix-test.run0.diag.json"
    payload = json.loads(path.read_text("utf-8"))
    payload["sentences"]["es_fix-0060"]["wrong"] = count
    path.write_text(json.dumps(payload), "utf-8")
    capsys.readouterr()
    assert _run(config, out, "score") == 2
    err = capsys.readouterr().err
    assert f"{path}: diagnostics are not non-negative integer counts for sentence es_fix-0060" in err
    assert "Traceback" not in err


def test_score_with_diagnostics_of_no_test_sentence_exits_2_naming_it(scored_out, capsys):
    config, out = scored_out
    path = out / "predictions" / "baseline" / "es_fix-test.run0.diag.json"
    payload = json.loads(path.read_text("utf-8"))
    payload["sentences"]["es_fix-0099"] = {"missing": 0, "wrong": 5, "random": 7, "incorrect": 0}
    path.write_text(json.dumps(payload), "utf-8")
    capsys.readouterr()
    assert _run(config, out, "score") == 2
    err = capsys.readouterr().err
    assert "error: diagnostics have an entry for es_fix-0099, no gold sentence" in err


@pytest.mark.parametrize("drop", ["all", "random"])
def test_score_with_diagnostics_that_miss_a_test_sentence_exits_2_naming_it(
    scored_out, capsys, drop
):
    # With "sentences" emptied, score used to exit 0 and write wrong_mean 2.3
    # and random_mean 10.0 for llm-basic-4shot in place of 3.7 and 18.7.
    config, out = scored_out
    path = out / "predictions" / "llm-basic-4shot" / "es_fix-test.run0.diag.json"
    payload = json.loads(path.read_text("utf-8"))
    if drop == "all":
        payload["sentences"] = {}
        first = ingest_tsv(out / "splits" / "es_fix-test.tsv", "es_fix-test").sentences[0].id
    else:
        first = "es_fix-0060"
        del payload["sentences"][first]["random"]
    path.write_text(json.dumps(payload), "utf-8")
    capsys.readouterr()
    assert _run(config, out, "score") == 2
    err = capsys.readouterr().err
    assert f"error: diagnostics have no wrong and random counts for {first}\n" in err


# The summary each subcommand prints on the replay fixture, in stage order;
# <out> and <fixtures> stand for the output and fixture directories.
_STAGE_STDOUT = """\
es_fix: 80 sentences, 640 tokens -> <out>/corpora/es_fix.tsv
es_fix-train: 40 sentences, 320 tokens
es_fix-dev: 15 sentences, 120 tokens
es_fix-test: 25 sentences, 200 tokens
17 edit-script labels -> <out>/inventory/es_fix.tsv
baseline: 56 forms, 162 suffixes -> <out>/models/baseline.tsv
baseline: 3 run(s) -> <out>/predictions/baseline
llm-basic-4shot: 3 run(s) -> <out>/predictions/llm-basic-4shot
llm-full-0shot: 3 run(s) -> <out>/predictions/llm-full-0shot
baseline on es_fix-test: word accuracy 0.9200 ± 0.0000
llm-basic-4shot on es_fix-test: word accuracy 0.9533 ± 0.0047
llm-full-0shot on es_fix-test: word accuracy 0.9550 ± 0.0108
-> <out>/reports/runs.tsv, <out>/reports/scores.tsv
baseline vs llm-basic-4shot on es_fix-test: p=0.15159 (not significant)
baseline vs llm-full-0shot on es_fix-test: p=0.115318 (not significant)
llm-basic-4shot vs llm-full-0shot on es_fix-test: p=1 (not significant)
-> <out>/reports/mcnemar.tsv
{report}\
150 records sound -> <fixtures>/replay/cache/log.tsv
"""


def test_every_subcommand_prints_its_pinned_summary(fixtures_dir, tmp_path, capsys):
    config, out = str(fixtures_dir / "replay" / "config.json"), tmp_path / "out"
    commands = ("ingest", "split", "induce", "train-baseline", "run", "score", "compare",
                "report", "verify-cache")
    printed = []
    for command in commands:
        assert _run(config, out, command) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        printed.append(captured.out)
    text = "".join(printed).replace(str(out), "<out>").replace(str(fixtures_dir), "<fixtures>")
    report = (fixtures_dir / "replay" / "expected" / "report.txt").read_text("utf-8")
    assert text == _STAGE_STDOUT.format(report=report)


def test_readme_and_ci_quick_starts_run_the_pipeline_stages_in_table_order(fixtures_dir):
    # The pipeline stages are the rows that write files; verify-cache writes none.
    stages = [name for name, (*_, writes) in _STAGES.items() if writes]
    root = fixtures_dir.parent
    readme = (root / "README.md").read_text("utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    ci = (root / ".github" / "workflows" / "tests.yml").read_text("utf-8")
    for text in (quick_start, ci):
        assert re.findall(r'lemmabench"? +(\S+) +--config \$CFG', text) == stages


def test_a_stage_calls_the_experiment_function_it_finds_when_it_runs(
    scored_out, monkeypatch, capsys
):
    # Tracers and tests wrap experiment.run_* by replacing the module
    # attribute; a stage that kept its own reference would bypass them.
    config, out = scored_out
    calls = []
    unwrapped = experiment.run_score

    def wrapper(cfg):
        calls.append(cfg.name)
        return unwrapped(cfg)

    monkeypatch.setattr(experiment, "run_score", wrapper)
    assert _run(config, out, "score") == 0
    assert calls == ["es-replay"]
    assert "baseline on es_fix-test: word accuracy 0.9200" in capsys.readouterr().out


def test_run_draws_no_worked_example_that_lacks_a_lemma(
    fixtures_dir, tmp_path, capsys, monkeypatch
):
    # es_fix-0050, a dev sentence, loses the lemmas of its first two tokens,
    # and the dev diagnostics that most-errors reads rank it first; run still
    # draws no worked example from it (token 1, 'Las', has no lemma).
    text = (fixtures_dir / "corpora" / "es_fix.conllu").read_text("utf-8")
    head, sep, tail = text.partition("# sent_id = es-fix-51\n")
    for row, lemma in (("1\tLas\t", "la"), ("2\tcasa\t", "casa")):
        tail = tail.replace(f"{row}{lemma}\t", f"{row}_\t", 1)
    corpus = tmp_path / "es_fix.conllu"
    corpus.write_text(head + sep + tail, "utf-8")

    ranking = tmp_path / "ranking.diag.json"

    def change(raw):
        raw["corpus"]["path"] = str(corpus)
        raw["cache_dir"] = str(fixtures_dir / "replay" / "cache")
        raw["systems"][1]["dev_diagnostics"] = str(ranking)  # llm-basic-4shot, most-errors

    config, out = _write_replay_config(fixtures_dir, tmp_path, change), tmp_path / "out"
    for command in ("ingest", "split", "induce", "train-baseline"):
        assert _run(config, out, command) == 0
    meta, diag = read_diagnostics(out / "predictions" / "baseline" / "es_fix-dev.run0.diag.json")
    diag["es_fix-0050"]["incorrect"] = 99
    write_diagnostics(ranking, meta, diag)
    assert max(diag, key=lambda i: (sum(diag[i].values()), i)) == "es_fix-0050"
    examples = []
    render_prompt = prompt_mod.render_prompt

    def recording(spec, chosen, target):
        examples.extend(e.id for e in chosen)
        return render_prompt(spec, chosen, target)

    monkeypatch.setattr(prompt_mod, "render_prompt", recording)
    assert _run(config, out, "run") == 0
    assert examples and "es_fix-0050" not in examples
    assert capsys.readouterr().err == ""


def test_ingest_reduces_the_corpus_by_the_reduce_section(fixtures_dir, tmp_path, capsys):
    def ingest(out, **reduce):
        def change(raw):
            raw["corpus"]["path"] = str(fixtures_dir / "corpora" / "es_fix.conllu")
            raw["split"]["test"] = 5
            raw["reduce"] = reduce

        config = _write_replay_config(fixtures_dir, tmp_path, change)
        assert _run(config, tmp_path / out, "ingest") == 0
        corpus = ingest_tsv(tmp_path / out / "corpora" / "es_fix.tsv", "es_fix")
        return config, [s.id for s in corpus.sentences]

    _, first = ingest("first", max_sentences=60, rule="first-n")
    assert first == [f"es_fix-{i:04d}" for i in range(60)]
    drawn = [ingest(f"drawn{n}", max_sentences=60, rule="seeded-random", seed=seed)[1]
             for n, seed in enumerate((3, 3, 4))]
    assert len(drawn[0]) == 60 and drawn[0] == sorted(drawn[0])  # in corpus order
    assert drawn[0] == drawn[1] != drawn[2]
    small, _ = ingest("small", max_sentences=50)
    capsys.readouterr()
    assert _run(small, tmp_path / "small", "split") == 2
    err = capsys.readouterr().err
    assert "error: split sizes sum to 60 but corpus es_fix has 50 sentences" in err
