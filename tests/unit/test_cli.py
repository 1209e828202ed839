"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.scenarios import SCENARIOS


class TestParser:
    def test_stress_defaults(self):
        args = build_parser().parse_args(["run", "udp_stress_vanilla"])
        assert args.name == "udp_stress_vanilla"
        assert args.seed == 0
        assert args.shards is None

    def test_unknown_name_lists_the_catalogue(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "no_such_run"])
        err = capsys.readouterr().err
        assert all(name in err for name in SCENARIOS)

    def test_help_lists_the_catalogue(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        out = capsys.readouterr().out
        assert all(name in out for name in SCENARIOS)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_stress_runs(self, capsys):
        assert main(["run", "udp_stress_vanilla"]) == 0
        out = capsys.readouterr().out
        assert "message rate" in out
        assert "busy cores" in out

    def test_fixed_runs_with_falcon(self, capsys):
        assert main(["run", "udp_fixed_falcon", "--seed", "3"]) == 0
        assert "overlay+falcon" in capsys.readouterr().out

    def test_tcp_runs(self, capsys):
        assert main(["run", "tcp_stream_falcon_split"]) == 0
        assert "Gbps" in capsys.readouterr().out

    def test_cluster_entry_prints_ring_totals(self, capsys):
        assert main(["run", "cluster_udp_ring_vanilla"]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s) via inline" in out
        assert "cross-shard records" in out
        assert "host 3:" in out

    def test_shards_rejected_on_single_host_entry(self, capsys):
        assert main(["run", "udp_fixed_vanilla", "--shards", "2"]) == 2
        assert "cluster entries only" in capsys.readouterr().err

    def test_figures_quick_subset(self, tmp_path, capsys):
        code = main(
            [
                "figures", "--quick", "--out", str(tmp_path),
                "--only", "fig04_interrupts",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig04_interrupts.txt").exists()
