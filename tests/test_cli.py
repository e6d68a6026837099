"""Tests for the command-line surface: flags, formats, exit codes, round trips."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from bellsort import cli, dense_coding, grouping, load_reference_tables, network_for_setup, networks
from bellsort.cli import main
from bellsort.networks import labelled_states
from test_cli_golden import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def copy_references(directory):
    """Copy the packaged reference files into ``directory`` for editing."""
    source = resources.files("bellsort") / "references"
    for name in ("table1.json", "table2.json", "capacities.json"):
        shutil.copy(str(source / name), directory / name)


def with_group4_outcome(outcome):
    """An edit of a table file's text that makes ``outcome`` the first of group 4's outcomes."""

    def edit(text):
        data = json.loads(text)
        data["groups"][3]["outcomes"][0] = outcome
        return json.dumps(data)

    return edit


def with_group2_repeat(key):
    """An edit of a table file's text that appends group 2's first ``key`` entry to that group again."""

    def edit(text):
        data = json.loads(text)
        entries = data["groups"][1][key]
        entries.append(entries[0])
        return json.dumps(data)

    return edit


# each usage error found while checking flags, before any state is encoded or evolved
USAGE_ERRORS = [
    *(
        [*command, *flags]
        for flags in (["--shots", "0"], ["--shots", str(10**20)], ["--seed", "-3"])
        for command in (["sample", "--state", "1,0,0"], ["sdc"])
    ),
    ["sample", "--state", "1;0;0"],
    ["sample", "--state", "1,0,1", "--dim", "2"],
    ["tables", "--setup", "fig2", "--dim", "2"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_do_no_work(argv, capsys, monkeypatch):
    calls = []
    # nor is a network built: check_setup rejects a dimension before one is
    for module, name in (
        (grouping, "evolve"), (cli, "evolve"), (dense_coding, "evolve_all"), (dense_coding, "encode"),
        (cli, "network_for_setup"), (grouping, "network_for_setup"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real: calls.append(args) or real(*args))
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert calls == []


@pytest.mark.parametrize(
    "omitted,given",
    [
        (["tables"], ["--setup", "fig1", "--model", "pnrd", "--policy", "strict", "--format", "text", "--dim", "4"]),
        (["sample", "--state", "1,0,0"], ["--setup", "fig1", "--dim", "4", "--shots", "100000", "--seed", "0"]),
        (["sdc"], ["--setup", "fig1", "--model", "pnrd", "--policy", "strict", "--shots", "1000", "--seed", "0"]),
    ],
    ids=["tables", "sample", "sdc"],
)
def test_omitted_flags_take_their_documented_defaults(omitted, given, capsys):
    assert run_cli(capsys, *omitted) == run_cli(capsys, *omitted, *given)


class TestTables:
    def test_fig1_text(self, capsys):
        code, out = run_cli(capsys, "tables", "--setup", "fig1")
        assert code == 0
        lines = [l for l in out.splitlines() if re.match(r"^\d+\s+psi", l)]
        assert len(lines) == 7
        assert "capacity 2.807 bits/photon" in out

    def test_fig2_json(self, capsys):
        code, out = run_cli(capsys, "tables", "--setup", "fig2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["table"]["groups"]) == 12
        assert payload["capacity_bits"] == pytest.approx(3.5849625007211562)

    def test_dim2_three_groups(self, capsys):
        code, out = run_cli(capsys, "tables", "--setup", "fig1", "--dim", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if re.match(r"^\d+\s+psi", l)]
        assert len(lines) == 3

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "tables", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "group,states,outcomes,quarantined"
        assert len(rows) == 8

    def test_json_round_trips(self, capsys):
        # the table is written, never parsed back: its JSON is the table's to_dict
        _, out = run_cli(capsys, "tables", "--setup", "fig2", "--format", "json")
        payload = json.loads(out)
        table = grouping.classify(labelled_states("fig2", 4), network_for_setup("fig2", 4))
        assert payload["table"] == table.to_dict()
        assert json.loads(json.dumps(payload["table"])) == payload["table"]

    def test_pure_function_of_flags(self, capsys):
        _, first = run_cli(capsys, "tables", "--setup", "fig2", "--format", "json")
        _, second = run_cli(capsys, "tables", "--setup", "fig2", "--format", "json")
        assert first == second

    def test_fig2_requires_dim4(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--setup", "fig2", "--dim", "2"])
        assert excinfo.value.code == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--setup", "fig9"])
        assert excinfo.value.code == 2


class TestVerify:
    def test_clean_build_matches(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "2/2 tables match" in out
        assert "capacities: 2.807, 2.585, 3.585, 3.459" in out

    def test_prepares_each_family_once_and_evolves_it_per_table(self, capsys, monkeypatch):
        calls = {"make_bell_state": 0, "make_hyper_state": 0, "evolve": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(networks, "make_bell_state")
        counted(networks, "make_hyper_state")
        counted(grouping, "evolve")
        code, out = run_cli(capsys, "verify")
        assert code == 0
        # 16 states per setup, each classified for three tables
        assert calls == {"make_bell_state": 16, "make_hyper_state": 16, "evolve": 96}
        assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN)[("verify",)]

    def test_perturbed_reference_detected(self, capsys, tmp_path):
        copy_references(tmp_path)
        path = tmp_path / "table1.json"
        # swap in an outcome no fig1 group has, so the file is still a partition
        path.write_text(with_group4_outcome("A0 B0")(path.read_text()))

        code, out = run_cli(capsys, "verify", "--references", str(tmp_path))
        assert code == 1
        assert "1/2 tables match" in out
        assert "reference group 4 (psi200, psi210): missing outcomes ['A0 B0']; unexpected outcomes ['A0 A2']" in out

    def test_a_merged_reference_group_is_a_membership_mismatch(self, capsys, tmp_path):
        # table1 with groups 2 and 3 as one row: fig1 computes them apart
        copy_references(tmp_path)
        path = tmp_path / "table1.json"
        data = json.loads(path.read_text())
        second, third = data["groups"][1], data["groups"].pop(2)
        for key in ("members", "outcomes"):
            second[key] += third[key]
        path.write_text(json.dumps(data))

        code, out = run_cli(capsys, "verify", "--references", str(tmp_path))
        assert code == 1
        assert out.splitlines()[:6] == [
            "table1 (fig1): MISMATCH",
            "  group count differs: computed 7, reference 6",
            "  reference group 2 (psi100, psi101, psi110, psi111): no computed group has this membership",
            "  computed group (psi100, psi101) matches no reference row",
            "  computed group (psi110, psi111) matches no reference row",
            "table2 (fig2): OK (12 groups)",
        ]

    def test_missing_reference_directory_is_a_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "nowhere"
        code = main(["verify", "--references", str(missing)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and str(missing) in err

    @pytest.mark.parametrize(
        "name,edit",
        [
            ("table1.json", lambda text: '{"groups": ['),
            ("table1.json", lambda text: "{}"),
            ("table2.json", lambda text: "[1]"),
            ("capacities.json", lambda text: '{"fig1": {}}'),
            # JSON true parses to a bool, which is an int; the two-row case passed as "2/2 tables match"
            ("table1.json", lambda text: re.sub(r'"id": [12],', '"id": true,', text)),
            ("capacities.json", lambda text: text.replace('"groups": 7', '"groups": true')),
            # float() reads JSON true as 1.0; this verified as "quoted True ... MISMATCH", exit 1
            ("capacities.json", lambda text: text.replace('"bits_text": "2.81"', '"bits_text": true')),
            # float() reads "nan" as a number; this verified as "quoted nan) MISMATCH", exit 1
            ("capacities.json", lambda text: text.replace('"bits_text": "2.81"', '"bits_text": "nan"')),
            # the setup and model fields were read by nothing; this verified with exit 0
            ("table1.json", lambda text: text.replace('"setup": "fig1"', '"setup": "fig2"')),
            ("table1.json", lambda text: text.replace('"model": "pnrd"', '"model": "threshold"')),
            # "A0 A1" in groups 2 and 4 is no partition; this verified as a group 4 MISMATCH, exit 1
            ("table1.json", with_group4_outcome("A0 A1")),
            # a repeat within one group was collapsed unseen; these verified as "2/2 tables match", exit 0
            ("table1.json", with_group2_repeat("members")),
            ("table1.json", with_group2_repeat("outcomes")),
        ],
        ids=[
            "not-json", "no-groups", "not-an-object", "no-capacity-entries", "bool-ids", "bool-groups",
            "bool-bits-text", "nan-bits-text", "relabelled-setup", "relabelled-model", "outcome-in-two-groups",
            "repeated-member", "repeated-outcome",
        ],
    )
    def test_malformed_reference_json_is_a_usage_error(self, capsys, tmp_path, name, edit):
        copy_references(tmp_path)
        path = tmp_path / name
        path.write_text(edit(path.read_text()))
        code = main(["verify", "--references", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and str(tmp_path) in err and name in err

    def test_a_wrong_capacity_figure_is_a_mismatch(self, capsys, tmp_path):
        # 1 is the least count the schema allows: a well-formed file that disagrees exits 1, not 2
        copy_references(tmp_path)
        path = tmp_path / "capacities.json"
        path.write_text(path.read_text().replace('"groups": 7', '"groups": 1'))
        code, out = run_cli(capsys, "verify", "--references", str(tmp_path))
        assert code == 1
        assert "capacity fig1 pnrd/strict: 2.807 bits (log2(1), quoted 2.81) MISMATCH" in out

    def test_a_quote_past_the_slack_is_a_mismatch(self, capsys, tmp_path):
        # 2.807 lies 0.023 from 2.83, past the 0.01 slack of a two-decimal quote
        copy_references(tmp_path)
        path = tmp_path / "capacities.json"
        path.write_text(path.read_text().replace('"2.81"', '"2.83"'))
        code, out = run_cli(capsys, "verify", "--references", str(tmp_path))
        assert code == 1
        assert "capacity fig1 pnrd/strict: 2.807 bits (log2(7), quoted 2.83) MISMATCH" in out

    def test_a_file_that_is_not_json_is_reported_as_such(self, tmp_path):
        # the shape check rejects it too, with a message that hides the parse error
        copy_references(tmp_path)
        (tmp_path / "table1.json").write_text('{"groups": [')
        with pytest.raises(ValueError, match="^table1.json: Expecting value") as caught:
            load_reference_tables(tmp_path)
        assert isinstance(caught.value.__cause__, json.JSONDecodeError)

    def test_a_string_where_a_list_belongs_is_a_shape_error(self, tmp_path):
        # a string is a sequence of strings, which GroupTable would misreport as repeated members
        copy_references(tmp_path)
        path = tmp_path / "table1.json"
        data = json.loads(path.read_text())
        data["groups"][0]["members"] = data["groups"][0]["members"][0]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r'^table1.json: expected \{"groups"'):
            load_reference_tables(tmp_path)

    def test_process_entry_point_exit_codes(self, tmp_path):
        # python -m bellsort runs entry_point, whose sys.exit carries main's code
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-m", "bellsort", "verify"]
        ok = subprocess.run(command, env=env, capture_output=True)
        assert ok.returncode == 0
        assert hashlib.sha256(ok.stdout).hexdigest() == dict(GOLDEN)[("verify",)]
        missing = subprocess.run(
            command + ["--references", str(tmp_path / "nowhere")], env=env, capture_output=True
        )
        assert missing.returncode == 2
        assert missing.stdout == b""


class TestSample:
    def test_near_uniform(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--state", "1,0,0", "--shots", "100000", "--seed", "7"
        )
        assert code == 0
        rows = [l.split() for l in out.splitlines()[2:]]
        assert len(rows) == 4
        for row in rows:
            assert abs(float(row[3]) - 0.25) < 0.007

    def test_byte_identical_repeats(self, capsys):
        args = ("sample", "--state", "2,1,0", "--setup", "fig2", "--seed", "3", "--shots", "5000")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_json_distribution_payload(self, capsys):
        _, out = run_cli(
            capsys, "sample", "--state", "0,0,0", "--format", "json", "--shots", "10"
        )
        payload = json.loads(out)
        assert payload["meta"]["rng"] == "PCG64"
        assert sum(payload["counts"].values()) == 10

    def test_json_frequencies_are_the_counts_over_shots(self, capsys):
        # one shot: the outcomes not drawn have frequency 0
        _, out = run_cli(capsys, "sample", "--state", "1,0,0", "--format", "json", "--shots", "1")
        payload = json.loads(out)
        assert sorted(payload["counts"].values()) == [0, 0, 0, 1]
        assert payload["frequencies"] == {o: float(c) for o, c in payload["counts"].items()}

    def test_a_certain_outcome_has_z_zero(self, capsys, monkeypatch):
        # no state the CLI samples has an outcome of probability 1 (0.5 is the most),
        # so one is patched in: its spread is 0, and its z is 0, not a division by zero
        monkeypatch.setattr(cli, "outcome_distribution", lambda state, model: {"A0 B0": 1.0})
        _, out = run_cli(capsys, "sample", "--state", "1,0,0", "--format", "json", "--shots", "10")
        assert json.loads(out)["z_scores"] == {"A0 B0": 0.0}

    def test_zero_shots_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--state", "1,0,0", "--shots", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["sample", "--state", "1,0,0"], ["sdc"]])
    def test_shots_beyond_the_draw_usage_error(self, command, capsys):
        # numpy's multinomial overflowed with a traceback and exit 1
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--shots", "100000000000000000000"])
        assert excinfo.value.code == 2
        assert "shots must be at most 9223372036854775807, got 100000000000000000000" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["sample", "--state", "1,0,0"], ["sdc"]])
    def test_negative_seed_usage_error(self, command, capsys):
        # numpy's generator rejects a negative seed with a traceback and exit 1
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--seed", "-3"])
        assert excinfo.value.code == 2
        assert "seed must be an integer >= 0, got -3" in capsys.readouterr().err

    def test_bad_state_label_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--state", "1;0;0"])
        assert excinfo.value.code == 2

    def test_state_invalid_for_dimension(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--state", "1,0,1", "--dim", "2"])
        assert excinfo.value.code == 2


class TestSdc:
    def test_fig2_text(self, capsys):
        code, out = run_cli(capsys, "sdc", "--setup", "fig2", "--shots", "50")
        assert code == 0
        assert "accuracy 1.0" in out
        assert "bits per photon 3.585" in out

    def test_threshold_loss_conservative(self, capsys):
        code, out = run_cli(
            capsys,
            "sdc",
            "--setup",
            "fig1",
            "--model",
            "threshold",
            "--policy",
            "loss-conservative",
            "--shots",
            "20",
        )
        assert code == 0
        assert "bits per photon 2.585" in out

    def test_single_shot(self, capsys):
        code, out = run_cli(capsys, "sdc", "--setup", "fig1", "--shots", "1")
        assert code == 0
        assert "accuracy 1.0" in out

    def test_csv_is_a_usage_error(self, capsys):
        # sdc renders text and JSON only; csv used to print the text report
        with pytest.raises(SystemExit) as excinfo:
            main(["sdc", "--shots", "1", "--format", "csv"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_json_report_payload(self, capsys):
        _, out = run_cli(capsys, "sdc", "--setup", "fig1", "--shots", "5", "--format", "json")
        report = json.loads(out)["report"]
        assert report["config"]["shots"] == 5
        assert report["accuracy"] == 1.0
        assert len(report["message_counts"]) == 16
