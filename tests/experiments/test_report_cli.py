"""Report generator and CLI tests."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.report import (
    EXPERIMENT_SPECS,
    generate_report,
    run_experiment,
    spec_by_id,
)


def test_all_specs_have_unique_ids():
    ids = [spec.experiment_id for spec in EXPERIMENT_SPECS]
    assert len(ids) == len(set(ids))
    assert {"E1", "E9", "E10", "A1", "A2"} <= set(ids)


def test_spec_lookup_case_insensitive():
    assert spec_by_id("e7").experiment_id == "E7"
    with pytest.raises(KeyError):
        spec_by_id("E99")


def test_run_experiment_by_id():
    result = run_experiment("E7")
    assert result.values["s_bound"] == 1_218_351


def test_generate_report_subset():
    text = generate_report(only=["E7", "E2"])
    assert "# SATIN reproduction report" in text
    assert "## E7" in text and "## E2" in text
    assert "## E9" not in text
    assert "paper vs measured:" in text


def test_generate_report_jobs_match_serial(monkeypatch):
    serial = generate_report(only=["E7", "E2"])
    assert generate_report(only=["E7", "E2"], jobs=0) == serial
    assert generate_report(only=["E7", "E2"], jobs=2) == serial

    # A failing experiment still fails the report when it runs in a worker
    # (forked workers inherit the patched module).
    from repro.experiments import report

    real_run = report.run_experiment

    def broken(experiment_id, **kwargs):
        if experiment_id == "E2":
            raise RuntimeError("E2 is broken")
        return real_run(experiment_id, **kwargs)

    monkeypatch.setattr(report, "run_experiment", broken)
    with pytest.raises(RuntimeError, match="experiment E2 failed"):
        generate_report(only=["E7", "E2"], jobs=2)


def test_generate_report_progress_callback():
    seen = []
    generate_report(only=["E7"], progress=seen.append)
    assert seen and "E7" in seen[0]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "E9" in out and "detection campaign" in out


def test_cli_experiment(capsys):
    assert main(["experiment", "E7", "-v"]) == 0
    out = capsys.readouterr().out
    assert "1,218,351" in out
    assert "paper vs measured" in out


def test_cli_experiment_unknown_id(capsys):
    assert main(["experiment", "E99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_report_unknown_id(capsys):
    assert main(["report", "--only", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'NOPE'" in err
    assert all(spec.experiment_id in err for spec in EXPERIMENT_SPECS)


def test_cli_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", "--only", "E7", "-o", str(target)]) == 0
    assert "# SATIN reproduction report" in target.read_text()


def test_cli_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
