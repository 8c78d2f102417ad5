"""Command-line entry points, driven in-process through main()."""

import argparse
import csv
import hashlib
import json
from dataclasses import fields
from unittest import mock

import pytest

from enclavemine import experiment
from enclavemine.cli import build_parser, main
from enclavemine.experiment import SCALE_METRICS, ExperimentConfig
from enclavemine.logio import load_csv, save_csv
from enclavemine.model import iid_set
from enclavemine.scenario import generate_scenario_log, org_map_for

WIRE_LIMITS = "65535 encoded bytes per string field, 65535 extras, a u64 timestamp"


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def generated_log(tmp_path):
    out = tmp_path / "log.csv"
    rc = run_cli("generate", "--cases", 15, "--seed", 3, "--out", out)
    assert rc == 0
    return out


def test_generate_writes_loadable_csv(generated_log, capsys):
    log = load_csv(generated_log)
    assert len(iid_set(log)) == 15
    assert len(log.activity_set()) <= 19


def test_generate_prints_summary(tmp_path, capsys):
    out = tmp_path / "log.csv"
    run_cli("generate", "--cases", "8", "--seed", "1", "--out", out)
    text = capsys.readouterr().out
    assert "8 cases" in text
    assert str(out) in text


def test_generate_defaults_are_the_config_defaults(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--out", out) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9f1632f9b401eddcd8916f4e9bd3449d5c4810e56e617806d54d8e7768c52361"
    assert "1000 cases" in capsys.readouterr().out


def test_generate_flags_set_the_config_fields(tmp_path):
    out, expected = tmp_path / "g.csv", tmp_path / "expected.csv"
    argv = ["--cases", 15, "--seed", 3, "--loop", 2, "--orgs", 4]
    assert run_cli("generate", *argv, "--out", out) == 0
    save_csv(generate_scenario_log(15, 3, loop_iterations=2, org_map=org_map_for(4)), expected)
    assert out.read_bytes() == expected.read_bytes()


# Options a verb reads itself; each other option sets the config field its dest names.
VERB_OPTIONS = {"--config", "--mode", "--out", "--out-dir", "--values", "dimension"}


@pytest.mark.parametrize("verb", ["run", "scale", "verify-convergence", "generate"])
def test_every_other_option_of_a_config_verb_is_a_config_field(verb):
    # The config is built from the fields, so an option whose dest is not a
    # field's name would be dropped without a word.
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {(a.option_strings or [a.dest])[0]: a.dest for a in verbs.choices[verb]._actions}
    names = {f.name for f in fields(ExperimentConfig)}
    strays = [o for o, dest in dests.items() if o not in {"-h", *VERB_OPTIONS} and dest not in names]
    assert strays == []


def test_split_writes_partitions(tmp_path, generated_log):
    org_map = tmp_path / "orgs.json"
    from enclavemine.scenario import default_org_map

    org_map.write_text(json.dumps(default_org_map()))
    out_dir = tmp_path / "parts"
    rc = run_cli(
        "split", "--log", generated_log, "--org-map", org_map, "--out-dir", out_dir
    )
    assert rc == 0
    orgs = {path.stem for path in out_dir.glob("*.csv")}
    assert orgs and orgs <= {"hospital", "pharma", "clinic"}
    total = 0
    for org in orgs:
        part = load_csv(out_dir / ("%s.csv" % org))
        assert {ev.provisioner_id for ev in part} == {org}
        total += len(part)
    assert total == len(load_csv(generated_log))


def test_run_writes_model_and_metrics(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = run_cli(
        "run", "--cases", 12, "--seed", 2, "--seg-size", 5000, "--out-dir", out_dir
    )
    assert rc == 0
    assert (out_dir / "model.pnml").exists()
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "transcript.jsonl").exists()
    assert b"<pnml" in (out_dir / "model.pnml").read_bytes()
    with (out_dir / "metrics.csv").open(newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["step", "phase", "current_bytes", "peak_bytes", "messages"]
    assert "session done" in capsys.readouterr().out


# SHA-256 of metrics.csv and transcript.jsonl by mode, and of the output by
# algorithm, for `run --cases 60 --seed 3 --seg-size 3000`. The two record
# files count bytes and messages, which the algorithm does not change.
RECORD_DIGESTS = {
    "incremental": (
        "1655c7ad5cfd70470a7ac3ac537649f2775d7665319088a36745ae4838f8da52",
        "162cbae5e281ce09f440d8b22b3574870d92519866918a0d17ff7747ec20bf84",
    ),
    "batch": (
        "91845054ef9a36dc14686ed3a81ce7b917314f85d6b90b8028704ff35556b421",
        "162cbae5e281ce09f440d8b22b3574870d92519866918a0d17ff7747ec20bf84",
    ),
}
OUTPUT_DIGESTS = {
    "heuristics": (
        "model.pnml",
        "ce2f72597bf58d42fd1eabad980a032d247c8a39b12110cbe09621b8cda83003",
    ),
    "declare": (
        "fitness.json",
        "bd77a16a980a49cdd660272ee3b10541403804942402eb9a87aa4cf137ce72eb",
    ),
}


@pytest.mark.parametrize("mode", list(RECORD_DIGESTS))
@pytest.mark.parametrize("algorithm", list(OUTPUT_DIGESTS))
def test_run_writes_golden_files(tmp_path, algorithm, mode):
    out_dir = tmp_path / "out"
    argv = ["--cases", 60, "--seed", 3, "--seg-size", 3000, "--algorithm", algorithm]
    assert run_cli("run", *argv, "--mode", mode, "--out-dir", out_dir) == 0
    output_name, output_digest = OUTPUT_DIGESTS[algorithm]
    digests = [
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "transcript.jsonl", output_name)
    ]
    assert digests == [*RECORD_DIGESTS[mode], output_digest]


def test_run_declare_writes_fitness(tmp_path):
    out_dir = tmp_path / "out"
    rc = run_cli(
        "run",
        "--cases", 12,
        "--seed", 2,
        "--algorithm", "declare",
        "--mode", "batch",
        "--out-dir", out_dir,
    )
    assert rc == 0
    doc = json.loads((out_dir / "fitness.json").read_bytes())
    assert doc["n_cases"] == 12
    assert "aggregate_exact" in doc


def test_run_accepts_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_cases": 10, "seed": 4, "seg_size": 3000}))
    out_dir = tmp_path / "out"
    rc = run_cli("run", "--config", cfg, "--cases", 6, "--out-dir", out_dir)
    assert rc == 0
    with (tmp_path / "out" / "transcript.jsonl").open() as fh:
        steps = [json.loads(line) for line in fh]
    assert steps
    # Six cases, not ten: the flag overrides the file.
    model = (out_dir / "model.pnml").read_bytes()
    assert model == _rerun_model(tmp_path, 6, 4, 3000)


def test_a_config_file_is_checked_before_any_flag_applies(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_cases": 0}))
    with pytest.raises(SystemExit) as stop:
        run_cli("run", "--config", cfg, "--cases", 6, "--out-dir", tmp_path / "out")
    assert stop.value.code == 2
    assert capsys.readouterr().err == (
        "enclavemine run: error: --config %s: n_cases must be at least 1, got 0\n" % cfg
    )


def test_run_reports_an_aborted_session_and_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"incremental": False, "capacity": 2000}))
    inputs = [
        # The miner aborts: its reason and message follow the phase.
        (["--config", cfg], "session aborted: CapacityExceeded: ", "capacity 2000"),
        # Every provisioner aborts (InvalidSegSize) and the miner, left
        # waiting, aborts once the session goes quiet.
        (
            ["--cases", 20, "--seg-size", 0],
            "session aborted: Stalled: awaiting cases from clinic, hospital, pharma\n",
            "",
        ),
    ]
    for i, (flags, starts, contains) in enumerate(inputs):
        out_dir = tmp_path / ("out%d" % i)
        rc = run_cli("run", *flags, "--out-dir", out_dir)
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith(starts)
        assert contains in out
        # The trail that explains the stop is written; no mining output is.
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "transcript.jsonl").exists()
        assert not (out_dir / "model.pnml").exists()


@pytest.mark.parametrize(
    "doc,named",
    [
        ({"n_cases": 20, "session": "x"}, "unknown config key(s): session"),
        ([{"n_cases": 20}], "a config is a JSON object, not list"),
        ({"n_cases": "20"}, "config key n_cases must be int, not '20'"),
        ({"seed": True, "capacity": 2.5}, "config key capacity must be int or None, not 2.5"),
        ({"seed": True}, "config key seed must be int, not True"),
        ({"n_cases": 0}, "n_cases must be at least 1, got 0"),
    ],
    ids=[
        "unknown key",
        "not an object",
        "wrong type",
        "float for an optional int",
        "bool for an int",
        "zero cases",
    ],
)
def test_run_rejects_a_malformed_config_with_a_usage_error(tmp_path, capsys, doc, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        run_cli("run", "--config", cfg, "--out-dir", out_dir)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err == "enclavemine run: error: --config %s: %s\n" % (cfg, named)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--cases", 0, "n_cases must be at least 1, got 0"),
        ("--orgs", 0, "n_orgs must be at least 1, got 0"),
        ("--orgs", 20, "n_orgs must be at most 19, got 20"),
        ("--loop", -1, "loop_iterations must be at least 1, got -1"),
    ],
)
def test_run_rejects_an_out_of_range_flag_with_a_usage_error(tmp_path, capsys, flag, value, named):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        run_cli("run", flag, value, "--out-dir", out_dir)
    assert stop.value.code == 2
    assert capsys.readouterr().err == "enclavemine run: error: %s\n" % named
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text,named",
    [
        ("case,activity,timestamp\nc1,A,5\nc1,B,-5\n", "{log}: timestamp '-5' is before 1970"),
        ("case,activity,timestamp\nc1,A,notatime\n", "{log}: unparsable timestamp 'notatime'"),
        ("case,activity\nc1,A\n", "{log}: no column 'timestamp'"),
        ("case,activity,timestamp\nc1,A,5\nc1,C,6\n", "{org_map}: activities without an org: C"),
        ("case,activity,timestamp,event_id\nc1,A,5,e1\nc1,B,6,e1\n", "{log}: duplicate event ids: e1"),
        (None, "{log}: [Errno 2] No such file or directory: '{log}'"),
        ("case,activity,timestamp\n", "{log}: the log holds no events"),
        (
            "case,activity,timestamp\nc1,A,5\nc1,B,99999999999999999999999\n",
            "{log}: event 'log-r000001' exceeds a wire limit: " + WIRE_LIMITS,
        ),
        (
            "case,activity,timestamp,event_id\nc1,A,5,%s\nc1,B,6,e2\n" % ("e" * 70_000),
            "{log}: event '%s...' exceeds a wire limit: %s" % ("e" * 40, WIRE_LIMITS),
        ),
    ],
    ids=[
        "negative timestamp",
        "unparsable timestamp",
        "no timestamp column",
        "unmapped",
        "duplicate id",
        "no file",
        "no events",
        "timestamp past u64",
        "event id past u16",
    ],
)
@pytest.mark.parametrize(
    "command,before,after",
    [
        ("run", [], ["--out-dir"]),
        ("scale", ["segsize"], ["--out"]),
        ("scale", ["cases"], ["--out"]),
        ("verify-convergence", [], []),
        ("split", [], ["--out-dir"]),
    ],
    ids=["run", "scale-segsize", "scale", "verify-convergence", "split"],
)
def test_a_malformed_input_log_is_a_usage_error(
    tmp_path, capsys, text, named, command, before, after
):
    log = tmp_path / "log.csv"
    if text is not None:
        log.write_text(text)
    org_map = tmp_path / "orgs.json"
    org_map.write_text(json.dumps({"A": "alpha", "B": "beta"}))
    out = tmp_path / "out"
    argv = [command, *before, "--log", log, "--org-map", org_map, *after]
    with pytest.raises(SystemExit) as stop:
        run_cli(*argv, *([out] if after else []))
    assert stop.value.code == 2
    captured = capsys.readouterr()
    named = named.format(log=log, org_map=org_map)
    assert captured.err == "enclavemine %s: error: %s\n" % (command, named)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("doc", [["A"], {"A": 3}], ids=["list", "number for an org"])
@pytest.mark.parametrize(
    "command,after", [("run", "--out-dir"), ("split", "--out-dir")], ids=["run", "split"]
)
def test_an_org_map_that_is_not_an_object_of_strings_is_a_usage_error(
    tmp_path, capsys, doc, command, after
):
    log = tmp_path / "log.csv"
    log.write_text("case,activity,timestamp\nc1,A,5\nc2,A,6\n")
    org_map = tmp_path / "orgs.json"
    org_map.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        run_cli(command, "--log", log, "--org-map", org_map, after, out)
    assert stop.value.code == 2
    assert capsys.readouterr().err == (
        "enclavemine %s: error: %s: an org map is a JSON object that maps activities to org names\n"
        % (command, org_map)
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command,after", [("run", "--out-dir"), ("split", "--out-dir")], ids=["run", "split"]
)
def test_an_org_name_over_the_wire_limit_is_a_usage_error(tmp_path, capsys, command, after):
    log = tmp_path / "log.csv"
    log.write_text("case,activity,timestamp\nc1,A,5\nc2,B,6\n")
    org_map = tmp_path / "orgs.json"
    org_map.write_text(json.dumps({"A": "a", "B": "b" * 70_000}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        run_cli(command, "--log", log, "--org-map", org_map, after, out)
    assert stop.value.code == 2
    assert capsys.readouterr().err == (
        "enclavemine %s: error: %s: org name %r exceeds a wire limit: 65535 encoded bytes\n"
        % (command, org_map, "b" * 40 + "...")
    )
    assert not out.exists()


@pytest.mark.parametrize("org", ["../escaped", "sub/dir", "..", ".", ""])
def test_split_rejects_an_org_name_that_is_not_a_plain_file_name(tmp_path, capsys, org):
    log = tmp_path / "log.csv"
    log.write_text("case,activity,timestamp\nc1,A,5\nc2,B,6\n")
    org_map = tmp_path / "orgs.json"
    org_map.write_text(json.dumps({"A": org, "B": "beta"}))
    out = tmp_path / "sp" / "out"
    with pytest.raises(SystemExit) as stop:
        run_cli("split", "--log", log, "--org-map", org_map, "--out-dir", out)
    assert stop.value.code == 2
    assert capsys.readouterr().err == (
        "enclavemine split: error: %s: org names must be plain file names, not %r\n"
        % (org_map, org)
    )
    assert not (tmp_path / "sp").exists()


def _rerun_model(tmp_path, cases, seed, seg):
    out_dir = tmp_path / "check"
    run_cli(
        "run",
        "--cases", cases,
        "--seed", seed,
        "--seg-size", seg,
        "--out-dir", out_dir,
    )
    return (out_dir / "model.pnml").read_bytes()


def test_scale_segsize_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "scale", "segsize",
        "--cases", 10,
        "--seed", 2,
        "--values", "600,2000,100000",
        "--out", out,
    )
    assert rc == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "peak_bytes", "mean_bytes", "message_count"]
    assert [r[0] for r in rows[1:]] == ["600.0", "2000.0", "100000.0"]
    counts = [float(r[3]) for r in rows[1:]]
    assert counts == sorted(counts, reverse=True)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "wrote %s" % out
    assert [line.split(": r2_linear=")[0] for line in lines[1:]] == list(SCALE_METRICS)


def test_scale_reports_an_unfinished_session_and_exits_1(tmp_path, capsys):
    config = tmp_path / "tight.json"
    config.write_text(json.dumps({"capacity": 2000, "incremental": False}))
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "scale", "segsize", "--config", config, "--cases", 10, "--values", "800,4000,40000",
        "--out", out,
    )
    assert rc == 1
    assert capsys.readouterr().out == (
        "session aborted: CapacityExceeded: 2034 bytes needed, capacity 2000\n"
    )
    assert not out.exists()


def test_scale_rejects_an_out_of_range_value_before_any_session(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    with mock.patch.object(experiment, "run_experiment") as runs:
        with pytest.raises(SystemExit) as stop:
            run_cli("scale", "cases", "--cases", 10, "--values", 0, "--out", out)
    assert stop.value.code == 2
    assert capsys.readouterr().err == "enclavemine scale: error: n_cases must be at least 1, got 0\n"
    assert runs.call_count == 0
    assert not out.exists()


def test_scale_writes_points_and_fit(tmp_path):
    out = tmp_path / "scale.csv"
    rc = run_cli(
        "scale", "cases",
        "--cases", 5,
        "--seed", 2,
        "--values", "5,10,15",
        "--out", out,
    )
    assert rc == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    # Every metric's column, and every metric's fit.
    assert rows[0] == ["x", "peak_bytes", "mean_bytes", "message_count"]
    assert len(rows) == 4
    fits = json.loads(out.with_suffix(".stats.json").read_text())
    assert list(fits) == sorted(SCALE_METRICS)
    assert all(set(fit) >= {"r2_linear", "r2_log", "slope"} for fit in fits.values())


def test_scale_fits_each_metric_as_stats_does_on_its_column(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    rc = run_cli("scale", "orgs", "--cases", 10, "--seed", 2, "--values", "2,3,4", "--out", out)
    assert rc == 0
    fits = json.loads(out.with_suffix(".stats.json").read_text())
    capsys.readouterr()
    for metric in SCALE_METRICS:
        assert run_cli("stats", "--csv", out, "--x", "x", "--y", metric) == 0
        assert json.loads(capsys.readouterr().out) == fits[metric]


@pytest.mark.parametrize(
    "argv,named",
    [
        (["cases", "--log", "{log}"], "cannot sweep cases: {log} fixes them"),
        (["events", "--log", "{log}"], "cannot sweep events: {log} fixes them"),
        (["orgs", "--log", "{log}", "--org-map", "{org_map}"],
         "cannot sweep orgs: {org_map} fixes them"),
        (["orgs", "--values", "2,3,40"], "n_orgs must be at most 19, got 40"),
    ],
    ids=["cases over a log", "events over a log", "orgs over an org map", "orgs above 19"],
)
def test_scale_rejects_a_sweep_that_cannot_measure_before_any_session(
    tmp_path, capsys, generated_log, argv, named
):
    org_map = tmp_path / "orgs.json"
    org_map.write_text(json.dumps(org_map_for(3)))
    paths = dict(log=generated_log, org_map=org_map)
    out = tmp_path / "scale.csv"
    with mock.patch.object(experiment, "run_experiment") as runs:
        with pytest.raises(SystemExit) as stop:
            run_cli("scale", *[a.format(**paths) for a in argv], "--cases", 10, "--out", out)
    assert stop.value.code == 2
    assert capsys.readouterr().err == "enclavemine scale: error: %s\n" % named.format(**paths)
    assert runs.call_count == 0
    assert not out.exists()


def test_stats_fits_csv_columns(tmp_path, capsys):
    data = tmp_path / "data.csv"
    with data.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "ms"])
        for x in (1, 2, 3, 4):
            writer.writerow([x, 10 * x + 1])
    rc = run_cli("stats", "--csv", data, "--x", "n", "--y", "ms")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] == pytest.approx(10.0)
    assert doc["r2_linear"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "rows,x,named",
    [
        (None, "n", "{csv}: [Errno 2] No such file or directory: '{csv}'"),
        ([["n", "ms"], [1, 11], [2, 21], [3, 31]], "q", "{csv}: no column 'q'"),
        (
            [["n", "ms"], [1, 11], ["two", 21], [3, 31]],
            "n",
            "{csv}: could not convert string to float: 'two'",
        ),
        ([["n", "ms"], [1, 11], [2], [3, 31]], "n", "{csv}: could not convert string to float: ''"),
        ([["n", "ms"], [1, 11], [2, 21]], "n", "{csv}: need at least 3 points, got 2"),
        (
            [["n", "ms"], [1, 11], [2, "nan"], [3, 31], [4, 41]],
            "n",
            "{csv}: xs and ys must be finite numbers",
        ),
        (
            [["n", "ms"], [1, 11], ["inf", 21], [3, 31], [4, 41]],
            "n",
            "{csv}: xs and ys must be finite numbers",
        ),
    ],
    ids=["no file", "no column", "not a number", "short row", "two points", "nan", "inf"],
)
def test_stats_reports_bad_input_in_one_line(tmp_path, capsys, rows, x, named):
    data = tmp_path / "data.csv"
    if rows is not None:
        with data.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    with pytest.raises(SystemExit) as stop:
        run_cli("stats", "--csv", data, "--x", x, "--y", "ms")
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "enclavemine stats: error: %s\n" % named.format(csv=data)
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,named",
    [
        (
            ["scale", "segsize", "--values", "1000,abc"],
            "--values takes comma-separated integers, not '1000,abc'",
        ),
        (
            ["scale", "cases", "--values", "10,abc"],
            "--values takes comma-separated integers, not '10,abc'",
        ),
        (["scale", "cases", "--values", ""], "--values takes comma-separated integers, not ''"),
    ],
    ids=["scale-segsize", "scale", "scale-empty"],
)
def test_a_number_list_that_is_not_integers_is_a_usage_error_before_any_session(
    tmp_path, capsys, argv, named
):
    out = tmp_path / "out.csv"
    with mock.patch.object(experiment, "run_experiment") as runs:
        with pytest.raises(SystemExit) as stop:
            run_cli(*argv, "--cases", 10, "--out", out)
    assert stop.value.code == 2
    assert capsys.readouterr().err == "enclavemine %s: error: %s\n" % (argv[0], named)
    assert runs.call_count == 0
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,named",
    [
        ("--cases", "n_cases must be at least 1, got 0"),
        ("--orgs", "n_orgs must be at least 1, got 0"),
        ("--loop", "loop_iterations must be at least 1, got 0"),
    ],
)
def test_generate_rejects_a_count_below_one_with_a_usage_error(tmp_path, capsys, flag, named):
    out = tmp_path / "log.csv"
    with pytest.raises(SystemExit) as stop:
        run_cli("generate", flag, 0, "--out", out)
    assert stop.value.code == 2
    assert capsys.readouterr().err == "enclavemine generate: error: %s\n" % named
    assert not out.exists()


def test_verify_convergence_both_algorithms(capsys):
    rc = run_cli("verify-convergence", "--cases", 10, "--seed", 7)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("MATCH") == 2
    assert "MISMATCH" not in out


def test_verify_convergence_reports_an_aborted_session_and_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity": 100}))
    for flags, printed in (
        (["--config", cfg], "session aborted: CapacityExceeded: "),
        (["--seg-size", 0],
         "session aborted: Stalled: awaiting cases from clinic, hospital, pharma\n"),
    ):
        rc = run_cli("verify-convergence", "--cases", 10, *flags)
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith(printed)
        assert "MATCH" not in out


def test_verify_convergence_mines_the_split_partitions(tmp_path, capsys):
    # No org column; splitting moves C to org "alpha", which sorts it before
    # B at the same timestamp. The reference must see that order too.
    log = tmp_path / "ties.csv"
    rows = ["case,activity,timestamp"] + [
        "%s,%s,%d" % (case, activity, stamp)
        for case in ("c1", "c2", "c3")
        for activity, stamp in (("A", 1000), ("B", 2000), ("C", 2000), ("D", 3000))
    ]
    log.write_text("\n".join(rows) + "\n")
    org_map = tmp_path / "orgs.json"
    org_map.write_text(json.dumps({"A": "zeta", "B": "zeta", "C": "alpha", "D": "zeta"}))
    rc = run_cli("verify-convergence", "--log", log, "--org-map", org_map)
    out = capsys.readouterr().out
    assert out.count("MATCH") == 2
    assert "MISMATCH" not in out
    assert rc == 0


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")
