"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("kmp", "rnc", "splash2.fft"):
        assert name in out


def test_run_command(capsys):
    rc = main(["run", "kmp", "--sub-rings", "1", "--cores", "4",
               "--threads-per-core", "4", "--instrs", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chip IPC" in out and "MACT batching" in out


def test_run_with_shared_code(capsys):
    rc = main(["run", "search", "--sub-rings", "1", "--cores", "2",
               "--instrs", "100", "--shared-code"])
    assert rc == 0


def test_xeon_command(capsys):
    rc = main(["xeon", "kmp", "--threads", "8", "--instrs", "5000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "idle ratio" in out


def test_compare_command(capsys):
    rc = main(["compare", "kmp", "--sub-rings", "2", "--instrs", "150"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "energy-efficiency gain" in out


def test_area_power_command(capsys):
    assert main(["area-power"]) == 0
    out = capsys.readouterr().out
    assert "751" in out and "MACT" in out
    assert "DVFS operating points" in out and "nominal" in out


def test_run_energy_flag(capsys):
    rc = main(["run", "kmp", "--sub-rings", "1", "--cores", "4",
               "--threads-per-core", "4", "--instrs", "80",
               "--energy", "--dvfs", "eco"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Energy: kmp" in out and "dvfs=eco" in out
    assert "Hierarchy Ring" in out and "perf/W" in out


def test_compare_energy_flag(capsys):
    rc = main(["compare", "kmp", "--sub-rings", "1",
               "--instrs", "100", "--energy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vs Xeon perf/W" in out


def test_report_energy_section(tmp_path, capsys):
    main(["sweep", "kmp", "--kind", "compare", "--sub-rings", "1",
          "--cores", "4", "--instrs", "80", "--dvfs-points", "eco",
          "nominal", "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["report", "--results-dir", str(tmp_path),
                 "--runs-dir", str(tmp_path / "runs"), "--energy"]) == 0
    out = capsys.readouterr().out
    assert "## Energy efficiency" in out
    assert "eco" in out and "nominal" in out


def test_cdn_command(capsys):
    assert main(["cdn"]) == 0
    out = capsys.readouterr().out
    assert "400" in out


def test_sweep_command(tmp_path, capsys):
    argv = ["sweep", "kmp", "wordcount", "--seeds", "0", "1",
            "--sub-rings", "1", "--cores", "4", "--threads-per-core", "4",
            "--instrs", "80", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Sweep telemetry" in out
    assert "4 points" in out and "0 cache hits" in out
    assert len(list((tmp_path / "runs").glob("*.json"))) == 4

    # warm rerun resolves every point from the cache
    assert main(argv) == 0
    assert "4 cache hits" in capsys.readouterr().out


def test_sweep_detail_and_policy_axis(tmp_path, capsys):
    assert main(["sweep", "kmp", "--policies", "inpair", "coarse",
                 "--sub-rings", "1", "--cores", "4", "--instrs", "80",
                 "--out", str(tmp_path), "--detail"]) == 0
    out = capsys.readouterr().out
    assert "2 points" in out
    assert "throughput_ips" in out       # --detail prints full results


def test_report_includes_sweep_telemetry(tmp_path, capsys):
    main(["sweep", "kmp", "--sub-rings", "1", "--cores", "4",
          "--instrs", "80", "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["report", "--results-dir", str(tmp_path),
                 "--runs-dir", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "## Sweep telemetry" in out


def test_unknown_workload_raises():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown workload 'doom'"):
        main(["run", "doom"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_dump_docs_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--dump-docs"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "CLI reference" in out
    for command in ("run", "sweep", "soak", "perf"):
        assert f"## `{command}`" in out


def test_committed_cli_docs_are_fresh(capsys):
    """docs/cli.md must match the live parser (regenerate: make docs-cli)."""
    from pathlib import Path

    from repro.docgen import render_cli_docs

    committed = Path(__file__).resolve().parent.parent / "docs" / "cli.md"
    assert committed.read_text() == render_cli_docs(build_parser()), (
        "docs/cli.md is stale — run `make docs-cli`")
