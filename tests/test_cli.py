"""Command-line surface: exit codes, frozen output lines, and the JSON
reports written by the approx, check, build-h, and eval-g subcommands."""

import hashlib
import inspect
import json

import pytest

from cantorlab import approximation, embedding
from cantorlab.cli import main
from cantorlab.suites import SUITES


# ---------------------------------------------------------------------------
# approx


def test_approx_stage_sizes_and_files(tmp_path, capsys):
    out = tmp_path / "stages"
    rc = main(["approx", "--L", "1", "--depth", "2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "l=0 |X|=1" in text
    assert "l=2 |X|=4" in text
    files = sorted(p.name for p in out.iterdir())
    assert files == ["stage_000.json", "stage_001.json", "stage_002.json"]
    stage2 = json.loads((out / "stage_002.json").read_text())
    assert stage2["level"] == 2
    assert len(stage2["X"]) == 4


def test_approx_depth_zero_single_stage(tmp_path, capsys):
    out = tmp_path / "one"
    rc = main(["approx", "--L", "1", "--depth", "0", "--out", str(out)])
    assert rc == 0
    assert [p.name for p in out.iterdir()] == ["stage_000.json"]


def test_approx_dot_emission(tmp_path):
    out = tmp_path / "dot"
    rc = main(["approx", "--L", "1", "--depth", "1", "--emit", "dot", "--out", str(out)])
    assert rc == 0
    body = (out / "stage_001.dot").read_text()
    assert body.startswith("digraph")


def test_approx_stage_files_hold_the_stage_text(tmp_path):
    """JSON files are state_json indented as json.dumps does it, plus a
    newline; DOT files are state_dot."""
    states = approximation.run(1, 6)
    for emit, render in [
        ("json", lambda st: json.dumps(approximation.state_json(st), indent=2) + "\n"),
        ("dot", approximation.state_dot),
    ]:
        out = tmp_path / emit
        assert main(["approx", "--L", "1", "--depth", "6", "--emit", emit, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            f"stage_{st.level:03d}.{emit}" for st in states
        ]
        for st in states:
            assert (out / f"stage_{st.level:03d}.{emit}").read_bytes() == render(st).encode()


def test_approx_rejects_bad_level(capsys):
    assert main(["approx", "--L", "0", "--depth", "2"]) == 2
    assert "argument --L: must be >= 1, got 0" in capsys.readouterr().err
    assert main(["approx", "--depth", "-1"]) == 2
    assert "argument --depth: must be >= 0, got -1" in capsys.readouterr().err


def test_approx_rejects_a_word_cap_below_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(approximation, "_stage_cache", {})
    for cap in ("0", "-5"):
        assert main(["approx", "--depth", "2", "--max-words", cap, "--out", str(tmp_path)]) == 2
        assert f"argument --max-words: must be >= 1, got {cap}" in capsys.readouterr().err
    assert approximation._stage_cache == {}


def test_approx_stage_cap_fails_cleanly(tmp_path, monkeypatch, capsys):
    # an empty stage memo, so the cap trips while stepping
    monkeypatch.setattr(approximation, "_stage_cache", {})
    rc = main(["approx", "--depth", "3", "--max-words", "1", "--out", str(tmp_path / "stages")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: stage 1:")


def test_approx_stage_cap_reads_the_same_when_memoized(tmp_path, monkeypatch, capsys):
    argv = ["approx", "--depth", "3", "--max-words", "1", "--out", str(tmp_path / "stages")]
    monkeypatch.setattr(approximation, "_stage_cache", {})
    assert main(argv) == 1
    fresh = capsys.readouterr().err
    assert main(["approx", "--depth", "3", "--out", str(tmp_path / "full")]) == 0
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == fresh == "error: stage 1: 2 words, cap is 1\n"


# ---------------------------------------------------------------------------
# check


def test_check_unknown_suite_is_usage_error(capsys):
    assert main(["check", "--suite", "nonsense"]) == 2


def test_check_small_graph_suite(capsys):
    rc = main(["check", "--suite", "lemma4.2", "--max-vertices", "4"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["suite"] == "lemma4.2"
    assert report["params"]["graphs"] == 145


def test_check_reports_seed_for_randomized_suite(capsys):
    rc = main(
        ["check", "--suite", "lemma4.3", "--max-vertices", "3", "--samples", "5", "--seed", "7"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["seed"] == 7


def test_check_condition_d_two_step_failure_is_a_pass(capsys):
    rc = main(["check", "--suite", "condition-d", "--L", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["params"]["expected"] == "failure at the witness"


def test_check_small_index_suite(capsys):
    rc = main(["check", "--suite", "lemma5.1", "--L", "2", "--kmax", "2000"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


# A small run of every suite in the table, with stand-ins for the options a
# report does not echo: lemma4.3 and lemma5.8 report how many graphs they
# sampled and how many prefixes they probed (two per sample at depth 12),
# not `samples` itself.
SMALL_RUNS = {
    "lemma4.2": (["--max-vertices", "3"], {}),
    "lemma4.3": (["--max-vertices", "3", "--samples", "2", "--seed", "5"], {"samples": ("sampled", 2)}),
    "lemma5.1": (["--L", "1", "--kmax", "100"], {}),
    "lemma5.2": (["--kmax", "100", "--seed", "3"], {}),
    "lemma5.3-4": (["--depth", "8"], {}),
    "lemma5.7": (["--depth", "8"], {}),
    "lemma5.8": (["--depth", "12", "--samples", "2"], {"samples": ("probes", 4)}),
    "condition-d": (["--L", "2", "--samples", "2"], {}),
    "scheme-conditions": (["--depth", "3"], {}),
}


@pytest.mark.parametrize("name", SUITES)
def test_check_passes_options_to_every_suite(name, capsys):
    argv, standins = SMALL_RUNS[name]
    assert main(["check", "--suite", name, *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == name
    for option, text in zip(argv[::2], argv[1::2]):
        param = SUITES[name].options[option]
        if param == "seed":
            assert report["seed"] == int(text)
        else:
            shown, value = standins.get(param, (param, int(text)))
            assert report["params"][shown] == value


def test_suite_table_names_real_parameters():
    for name, suite in SUITES.items():
        params = inspect.signature(suite.fn).parameters
        for option, param in suite.options.items():
            assert param in params, (name, option, param)


def _must_not_run(**kwargs):
    raise AssertionError("the suite ran")


@pytest.mark.parametrize(
    "suite, option, value",
    [("lemma4.3", "--samples", "0"), ("lemma5.2", "--kmax", "-5"), ("lemma4.2", "--max-vertices", "0")],
)
def test_check_rejects_counts_below_one(suite, option, value, monkeypatch, capsys):
    monkeypatch.setitem(SUITES, suite, SUITES[suite]._replace(fn=_must_not_run))
    assert main(["check", "--suite", suite, option, value]) == 2
    assert f"argument {option}: must be >= 1" in capsys.readouterr().err


def test_check_rejects_an_option_the_suite_does_not_take(monkeypatch, capsys):
    monkeypatch.setitem(SUITES, "lemma4.2", SUITES["lemma4.2"]._replace(fn=_must_not_run))
    assert main(["check", "--suite", "lemma4.2", "--seed", "9"]) == 2
    assert "lemma4.2 takes no --seed" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["lemma5.3-4", "scheme-conditions"])
def test_check_rejects_a_negative_depth(suite, monkeypatch, capsys):
    monkeypatch.setitem(SUITES, suite, SUITES[suite]._replace(fn=_must_not_run))
    assert main(["check", "--suite", suite, "--depth", "-1"]) == 2
    assert "argument --depth: must be >= 0" in capsys.readouterr().err


def test_check_stage_suite_reports_each_stranded_pair_once(capsys):
    """At family level 2 the successor pairs stranded outside the edge set
    are reported once each, as contained-in-edge-set entries."""
    assert main(["check", "--suite", "lemma5.3-4", "--L", "2", "--depth", "6"]) == 1
    report = json.loads(capsys.readouterr().out)
    stranded = {4: ["0000", "0010"], 5: ["00000", "00001", "00100", "00101"],
                6: ["000000", "000001", "000010", "000011", "001000", "001001", "001010", "001011"]}
    assert report["violation_count"] == 14
    assert report["violations"] == [
        f"contained-in-edge-set: ({level}, '{word}', '01')"
        for level, words in stranded.items() for word in words
    ]


# ---------------------------------------------------------------------------
# build-h


def test_build_h_writes_report(tmp_path, capsys):
    report_path = tmp_path / "rep.json"
    rc = main(["build-h", "--depth", "2", "--report", str(report_path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "level 2: 4 cells" in text
    assert "conditions ok: True" in text
    rep = json.loads(report_path.read_text())
    assert rep["depth"] == 2
    assert rep["conditions_ok"] is True
    assert [len(lvl["cells"]) for lvl in rep["levels"]] == [1, 2, 4]
    level1 = rep["levels"][1]["cells"]
    assert sorted(level1) == ["0", "1"]
    assert level1["0"] != level1["1"]


def test_build_h_depth_seven_report_is_frozen(tmp_path):
    """The whole `build-h --depth 7` report file, byte for byte."""
    report_path = tmp_path / "rep.json"
    assert main(["build-h", "--depth", "7", "--report", str(report_path)]) == 0
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == (
        "ac096525a6a21e8a59bfa2dff55317c8594f4e3dd3df8d4cf4ea22f36217ada0"
    )


def test_build_h_zero_cap_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(embedding, "DUPLICATION_CAP", 0)
    report_path = tmp_path / "rep.json"
    rc = main(["build-h", "--depth", "2", "--report", str(report_path)])
    assert rc == 1
    assert "exceed the cap 0" in capsys.readouterr().err


def test_build_h_rejects_negative_depth(capsys):
    assert main(["build-h", "--depth", "-1"]) == 2
    assert "argument --depth: must be >= 0, got -1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval-g


def test_eval_g_forced_coordinate(capsys):
    rc = main(["eval-g", "--L", "1", "--s", "0", "--coord", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "forced stride coordinate -> 1" in text
    assert "value: 1 (forced)" in text


def test_eval_g_reads_point_bit(capsys):
    rc = main(["eval-g", "--L", "1", "--s", "0", "--coord", "0"])
    assert rc == 0
    assert "value: 0 (point bit 0)" in capsys.readouterr().out


def test_eval_g_outside_domain(capsys):
    rc = main(["eval-g", "--L", "1", "--s", "0", "--coord", "4", "--point", "0:1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "outside the domain at stage 0" in captured.err
    assert "coordinate 4 reads input 9" in captured.out


def test_eval_g_two_stage_trace(capsys):
    rc = main(["eval-g", "--L", "2", "--s", "0,1", "--coord", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "stage 0 (map 0)" in text
    assert "stage 1 (map 1)" in text


def test_eval_g_usage_errors(capsys):
    assert main(["eval-g", "--L", "1", "--s", "", "--coord", "1"]) == 2
    assert main(["eval-g", "--L", "1", "--s", "0", "--coord", "-3"]) == 2
    assert "argument --coord: must be >= 0, got -3" in capsys.readouterr().err
    assert main(["eval-g", "--L", "0", "--s", "0", "--coord", "1"]) == 2
    assert "argument --L: must be >= 1, got 0" in capsys.readouterr().err


def test_eval_g_bad_point_spec(capsys):
    """A fragment without a bit, a bit other than 0 or 1 and a negative
    coordinate are usage errors."""
    for spec in ("whatever", "7:5", "7:2", "-3:1"):
        rc = main(["eval-g", "--L", "1", "--s", "0", "--coord", "3", f"--point={spec}"])
        assert rc == 2, spec
        assert "error:" in capsys.readouterr().err, spec


# ---------------------------------------------------------------------------
# top-level dispatch


def test_no_subcommand_is_usage_error():
    assert main([]) == 2
