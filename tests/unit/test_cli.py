"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.scenarios import SCENARIOS


class TestParser:
    def test_stress_defaults(self):
        args = build_parser().parse_args(["run", "udp_stress_vanilla"])
        assert args.name == "udp_stress_vanilla"
        assert args.seed == 0

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

    def test_unknown_validate_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["validate", "--suite", "differential"])
        assert exc.value.code == 2
        assert "choose from 'all', 'invariants', 'golden'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("shards", ["0", "-1"])
    def test_shards_below_one_rejected(self, shards, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "udp_fixed_vanilla", "--shards", shards])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --shards {shards}" in capsys.readouterr().err

    def test_shards_rejected_on_single_host_entry(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "udp_fixed_vanilla", "--shards", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    def test_figures_quick_subset(self, tmp_path, capsys):
        code = main(
            [
                "figures", "--quick", "--out", str(tmp_path),
                "--only", "fig04_interrupts",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig04_interrupts.txt").exists()
