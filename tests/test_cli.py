import numpy as np
import pytest

from expinstab import cli, shapes
from expinstab.cli import ConfigError, ExperimentConfig, config_text, parse_config, write_csv
from expinstab.shapes import save_shape


class TestParseConfig:
    def test_empty_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nm=2   # trailing\n")
        assert cfg.m == 2

    def test_range_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"line 1"):
            parse_config("m=0")

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"line 3.*wavelength"):
            parse_config("m=1\nbeta=2.0\nwavelength=3\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("budget=many")

    def test_round_trip(self):
        cfg = parse_config("m=2\neps_list=0.1,0.07\nproblem=farfield\nseed=9\n")
        again = parse_config(config_text(cfg))
        assert again == cfg

    def test_tuple_parsing(self):
        cfg = parse_config("a_list=1.5,2.5,3.5")
        assert cfg.a_list == (1.5, 2.5, 3.5)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("n_max=8\nscatter_quad=33\n", "scatter_quad"),
            ("n_max=8\nscatter_n_max=0\n", "scatter_n_max"),
            ("c2=1.0\nalpha2=-1\n", "alpha2"),
            ("c2=1.0\np=0\n", "p"),
        ],
    )
    def test_range_error_names_its_own_key(self, text, key):
        with pytest.raises(ConfigError, match=rf"^{key}: .*\(line 2\)$") as info:
            parse_config(text)
        assert info.value.key == key


class TestCsv:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"

    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "floats.csv"
        values = [0.1, 1 / 3, 2.0 ** -40, np.pi]
        write_csv(path, ["v"], [(v,) for v in values])
        lines = path.read_text().strip().splitlines()[1:]
        assert [float(s) for s in lines] == values

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv(path, ["x"], [(1,), (2,)])
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestSubcommands:
    def test_net_stdout(self, capsys):
        code = cli.main(["net", "--delta", "0.01,0.001", "--c2", "1.0", "--alpha2", "0.5", "--p", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("delta,n_tilde,delta_prime,psi_count,pair_count,log_bound")

    def test_net_counts_every_basis_pair(self, capsys):
        # n_tilde 25 and 30: the circle basis has 2*25+1 and 2*30+1 elements
        assert cli.main(["net", "--delta", "0.01,0.001", "--c2", "1", "--alpha2", "0.5", "--p", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [(r.split(",")[1], r.split(",")[4]) for r in rows] == [("25", "2601"), ("30", "3721")]

    def test_pack_writes_csv(self, tmp_path):
        code = cli.main([
            "--out", str(tmp_path), "--seed", "5",
            "pack", "--m", "1", "--beta", "1.0", "--eps-list", "0.1", "--samples", "4",
        ])
        assert code == 0
        body = (tmp_path / "pack.csv").read_text()
        assert body.splitlines()[0] == "pattern_id,hausdorff_to_base,min_pairwise_sampled"
        assert len(body.splitlines()) == 5
        assert (tmp_path / "config.echo").exists()

    def test_basis_outputs(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "basis", "--domain", "slit_disk_neumann", "--n-max", "3"])
        assert code == 0
        degrees = (tmp_path / "basis_degrees.csv").read_text().splitlines()
        assert degrees[0] == "index,degree,parity,multiplicity"
        assert len(degrees) == 8  # degrees 0, 1/2, ..., 3
        assert (tmp_path / "basis_decay.csv").exists()

    def test_forward_and_scatter_roundtrip(self, tmp_path):
        shape = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(256), base_radius=0.5, amplitude_cap=0.25),
        )
        shape_file = tmp_path / "shape.txt"
        save_shape(shape, shape_file)
        code = cli.main([
            "--out", str(tmp_path / "fwd"),
            "forward", "--shape-file", str(shape_file), "--a", "2.0", "--n-max", "6",
        ])
        assert code == 0
        assert (tmp_path / "fwd" / "dtn.csv").exists()
        assert (tmp_path / "fwd" / "resistance.csv").exists()

        big = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(256), base_radius=1.0, amplitude_cap=0.5),
        )
        big_file = tmp_path / "big.txt"
        save_shape(big, big_file)
        code = cli.main([
            "--out", str(tmp_path / "sc"),
            "scatter", "--shape-file", str(big_file), "--a-list", "1.0",
            "--scatter-n-max", "6", "--scatter-quad", "96",
        ])
        assert code == 0
        assert (tmp_path / "sc" / "farfield_magnitudes.csv").exists()
        assert (tmp_path / "sc" / "reciprocity.csv").exists()

    def test_instability_deterministic_bytes(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "problem=dtn\neps_list=0.1,0.06\nbudget=4\nn_max=8\nquad_nodes=128\nseed=7\n"
        )
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code = cli.main(["--config", str(config), "--out", str(out_dir), "instability"])
            assert code == 0
            outputs.append(
                (out_dir / "report.csv").read_bytes()
                + (out_dir / "plot_data.csv").read_bytes()
                + (out_dir / "summary.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_bad_config_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text("m=0\n")
        old = tmp_path / "old.cfg"
        old.write_text("threads=1\n")  # the knob is gone: an unknown key
        disk = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(256), base_radius=1.0, amplitude_cap=0.5),
        )
        save_shape(disk, tmp_path / "disk.txt")
        for argv in (
            ["--config", str(bad), "net"],
            ["--config", str(old), "net"],
            ["pack", "--eps-list", "0.1,,0.05"],
            ["--out", "d", "instability", "--eps-list", "abc"],
            ["scatter", "--shape-file", "disk.txt", "--quad", "96"],  # not --quad-nodes
            ["--threads", "4", "net"],
            ["net", "--m", "0"],
            ["pack", "--seed", "-1", "--samples", "2"],
            ["--out", "old.cfg/d", "net"],  # a file where the directory should go
        ):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects unknown flags itself
                code = exc.code
            assert code == 2, argv
        assert not (tmp_path / "d").exists()

    def test_flags_before_and_after_the_subcommand(self, capsys):
        assert cli.main(["--seed", "3", "--m", "2", "net", "--m", "4", "--delta", "0.01"]) == 0
        echo = capsys.readouterr().out
        assert "seed=3\n" in echo and "m=4\n" in echo

    def test_missing_shape_file_is_config_error(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "forward", "--shape-file", str(tmp_path / "nope.txt")])
        assert code == 2
