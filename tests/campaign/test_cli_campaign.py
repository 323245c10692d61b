"""CLI integration for ``python -m repro campaign`` and ``report --jobs``."""

import pytest

from repro.cli import main


def test_cli_campaign_runs_and_prints_summary(tmp_path, capsys):
    code = main([
        "campaign", "E7", "--seeds", "3", "--jobs", "0",
        "--cache-dir", str(tmp_path), "--quiet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "# campaign E7" in out
    assert "3 total, 3 ran, 0 cached" in out


def test_cli_campaign_resume_hits_cache(tmp_path, capsys):
    args = ["campaign", "E7", "--seeds", "3", "--jobs", "0",
            "--cache-dir", str(tmp_path), "--quiet"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--resume"]) == 0
    assert "0 ran, 3 cached" in capsys.readouterr().out


def test_cli_campaign_writes_output_file(tmp_path, capsys):
    target = tmp_path / "summary.md"
    code = main([
        "campaign", "E7", "--seeds", "2", "--jobs", "0",
        "--cache-dir", str(tmp_path / "cache"), "--quiet",
        "-o", str(target),
    ])
    assert code == 0
    assert "# campaign E7" in target.read_text()


def test_cli_campaign_unknown_experiment(tmp_path, capsys):
    code = main([
        "campaign", "E99", "--seeds", "2", "--jobs", "0",
        "--cache-dir", str(tmp_path), "--quiet",
    ])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_campaign_unknown_preset(tmp_path, capsys):
    code = main([
        "campaign", "E9", "--seeds", "2", "--jobs", "0",
        "--preset", "nope", "--cache-dir", str(tmp_path), "--quiet",
    ])
    assert code == 2
    assert "unknown preset" in capsys.readouterr().err


def test_cli_report_with_jobs_matches_serial(tmp_path, capsys):
    assert main(["report", "--only", "E7", "--jobs", "0"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["report", "--only", "E7"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out


def test_cli_negative_jobs_is_a_config_error(tmp_path, capsys):
    code = main([
        "campaign", "E1", "--seeds", "1", "--jobs", "-1",
        "--cache-dir", str(tmp_path), "--quiet",
    ])
    assert code == 2
    assert "jobs must be >= 0" in capsys.readouterr().err
    assert main(["report", "--only", "E1", "--jobs", "-1"]) == 2
    assert "jobs must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["campaign", "E7"], ["chaos", "figure4"], ["submit", "E7"],
])
@pytest.mark.parametrize("retired", [
    ["--backend", "thread"], ["--backend", "queue", "--queue-dir", "q",
                              "--queue-workers", "2"],
])
def test_cli_retired_backend_options_are_usage_errors(command, retired, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(command + retired)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'thread'" in err or "--queue-workers" in err
