"""Tests for the command-line surface: flags, formats, exit codes, round trips."""

import hashlib
import json
import re
import shutil
from importlib import resources

import pytest

from bellsort import GroupTable, OutcomeDistribution, SdcReport, dense_coding, grouping
from bellsort.cli import main
from test_cli_golden import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        _, out = run_cli(capsys, "tables", "--setup", "fig2", "--format", "json")
        payload = json.loads(out)
        table = GroupTable.from_dict(payload["table"])
        assert table.to_dict() == payload["table"]

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

        counted(dense_coding, "make_bell_state")
        counted(dense_coding, "make_hyper_state")
        counted(grouping, "evolve")
        code, out = run_cli(capsys, "verify")
        assert code == 0
        # 16 states per setup, each classified for three tables
        assert calls == {"make_bell_state": 16, "make_hyper_state": 16, "evolve": 96}
        assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN)[("verify",)]

    def test_perturbed_reference_detected(self, capsys, tmp_path):
        source = resources.files("bellsort") / "references"
        for name in ("table1.json", "table2.json", "capacities.json"):
            shutil.copy(str(source / name), tmp_path / name)
        data = json.loads((tmp_path / "table1.json").read_text())
        data["groups"][3]["outcomes"][0] = "A0 A1"  # swap in a wrong outcome
        (tmp_path / "table1.json").write_text(json.dumps(data))

        code, out = run_cli(capsys, "verify", "--references", str(tmp_path))
        assert code == 1
        assert "1/2 tables match" in out
        assert "reference group 4" in out
        assert "A0 A1" in out


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

    def test_json_distribution_round_trips(self, capsys):
        _, out = run_cli(
            capsys, "sample", "--state", "0,0,0", "--format", "json", "--shots", "10"
        )
        payload = json.loads(out)
        dist = OutcomeDistribution.from_dict(payload["distribution"])
        assert dist.to_dict() == payload["distribution"]
        assert payload["meta"]["rng"] == "PCG64"
        assert sum(payload["counts"].values()) == 10

    def test_zero_shots_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--state", "1,0,0", "--shots", "0"])
        assert excinfo.value.code == 2

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

    def test_json_report_round_trips(self, capsys):
        _, out = run_cli(capsys, "sdc", "--setup", "fig1", "--shots", "5", "--format", "json")
        payload = json.loads(out)
        report = SdcReport.from_dict(payload["report"])
        assert report.to_dict() == payload["report"]
