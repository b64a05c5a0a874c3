import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expinstab import cli, conductivity, engine, packing, shapes
from expinstab.cli import ConfigError, ExperimentConfig, config_text, parse_config, write_csv
from expinstab.shapes import save_shape

# stdout of `net --delta 0.01,0.001,1e-6 --c2 1 --alpha2 0.5`: net.csv, then
# the config echo up to its BLAS comment line; the basis is the circle's
NET_CSV = {
    "full_circle": (
        "delta,n_tilde,delta_prime,psi_count,pair_count,log_bound\n"
        "0.01,25,8.5405298916969183e-06,234177,2601,32158.328381040359\n"
        "0.001,30,6.0801233311006377e-07,3289407,3721,55838.136669468455\n"
        "9.9999999999999995e-07,45,2.8184908515378236e-10,7095996067,8281,187836.23804586398\n"
    ),
}
NET_ECHO = (
    "problem=dtn\n"
    "kind=radial_subgraph\n"
    "m=1\n"
    "beta=1\n"
    "eps_list=0.12,0.080000000000000002,0.050000000000000003,0.029999999999999999\n"
    "a=2\n"
    "a_list=1,4\n"
    "n_max=32\n"
    "quad_nodes=512\n"
    "scatter_n_max=12\n"
    "scatter_quad=192\n"
    "directions=48\n"
    "budget=200\n"
    "samples=50\n"
    "seed=0\n"
    "base_radius=0.5\n"
    "grid_size=2048\n"
    "electrodes=8\n"
    "electrode_coverage=0.5\n"
    "electrode_z=0.10000000000000001\n"
    "delta=0.01,0.001,9.9999999999999995e-07\n"
    "c2=1\n"
    "alpha2=0.5\n"
)


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
            ("c2=1.0\ndelta=\n", "delta"),
        ],
    )
    def test_range_error_names_its_own_key(self, text, key):
        with pytest.raises(ConfigError, match=rf"^{key}: .*\(line 2\)$") as info:
            parse_config(text)
        assert info.value.key == key


class TestReportColumns:
    def test_report_columns_are_pinned(self):
        # report.csv keeps these columns, in this order
        assert cli.REPORT_HEADER == [
            "eps",
            "pattern_a",
            "pattern_b",
            "hausdorff",
            "resolution",
            "op_norm_diff",
            "delta_eps",
            "packing_log_count",
            "certified_log_cardinality",
            "net_log_bound",
            "counting_ok",
            "margin",
            "sample_count",
            "norm_floored",
        ]


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
        code = cli.main(["net", "--delta", "0.01,0.001", "--c2", "1.0", "--alpha2", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("delta,n_tilde,delta_prime,psi_count,pair_count,log_bound")

    def test_net_counts_every_basis_pair(self, capsys):
        # n_tilde 25 and 30: the circle basis has 2*25+1 and 2*30+1 elements
        assert cli.main(["net", "--delta", "0.01,0.001", "--c2", "1", "--alpha2", "0.5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [(r.split(",")[1], r.split(",")[4]) for r in rows] == [("25", "2601"), ("30", "3721")]

    @pytest.mark.parametrize("basis", list(NET_CSV))
    def test_net_stdout_is_pinned(self, basis, capsys):
        argv = ["net", "--delta", "0.01,0.001,1e-6", "--c2", "1", "--alpha2", "0.5"]
        assert cli.main(argv) == 0
        body, blas = capsys.readouterr().out.split("# blas=")
        assert body == NET_CSV[basis] + NET_ECHO
        assert blas.count("\n") == 1 and blas.endswith("\n")

    def test_p_is_not_a_setting(self, tmp_path, capsys):
        # p = 1 in the plane, and every basis is the circle's: these keys,
        # their flags and the basis subcommand are gone
        argvs = [["basis"], ["net", "--domain", "full_circle"], ["net", "--r0", "0.8"]]
        for name, text in [("p", "p=1\n"), ("domain", "domain=full_circle\n"), ("r0", "r0=0.8\n")]:
            config = tmp_path / f"{name}.cfg"
            config.write_text(text)
            argvs.append(["--config", str(config), "net"])
        for argv in (["net", "--p", "1"], *argvs):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--p", "1", "net"], ["--threads", "4", "net"],
                                      ["--p=1", "net"]])
    def test_unknown_flag_before_the_subcommand_is_named(self, argv, capsys):
        # its value must not be taken for the subcommand
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        flag = argv[0].split("=")[0]
        assert err == f"config error: unrecognized flag {flag}\n"

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

    def test_pack_visits_each_unordered_pair_once(self, tmp_path, monkeypatch):
        real = shapes.hausdorff_distance
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shapes, "hausdorff_distance", counted)
        code = cli.main([
            "--out", str(tmp_path), "--seed", "3", "--grid-size", "64",
            "pack", "--eps-list", "0.05", "--samples", "50",
        ])
        assert code == 0
        # 50 distances to the base and 50 * 49 / 2 unordered pairs
        assert len(calls) == 1275
        cfg = ExperimentConfig(grid_size=64)
        cls = packing.ShapeClass(
            kind=cfg.kind, base=cfg.base_radius, m=cfg.m, beta=cfg.beta, grid_size=cfg.grid_size
        )
        family = packing.build_packing(cls, 0.05)
        built = [family.shape(p) for p in family.sample_patterns(3, 50)]
        rows = (tmp_path / "pack.csv").read_text().splitlines()[1:]
        assert len(rows) == len(built)
        for row, shape in zip(rows, built):
            brute = min(real(shape, other, samples=64) for other in built if other is not shape)
            assert float(row.split(",")[2]) == brute

    def test_forward_and_scatter_roundtrip(self, tmp_path):
        shape = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(256), base_radius=0.5),
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
            shapes.RadialProfile(np.zeros(256), base_radius=1.0),
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

    def test_forward_at_contrast_one_fits_no_decay(self, tmp_path):
        # at a = 1 the weighted difference is zero: decay_fit.csv reads nan
        disk = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(256), base_radius=0.5),
        )
        save_shape(disk, tmp_path / "disk.txt")
        argv = ["--out", str(tmp_path / "fwd"), "forward", "--shape-file", str(tmp_path / "disk.txt")]
        assert cli.main([*argv, "--a", "1.0"]) == 0
        rows = (tmp_path / "fwd" / "decay_fit.csv").read_text().splitlines()
        assert rows == ["name,value", "alpha_hat,nan", "c_hat,nan", "r_squared,nan"]

    def test_forward_solves_its_shape_once(self, tmp_path, monkeypatch):
        theta = 2 * np.pi * np.arange(256) / 256
        shape = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(0.1 * (1 + np.cos(3 * theta)), base_radius=0.5),
        )
        save_shape(shape, tmp_path / "shape.txt")
        solve = conductivity.dtn_numeric
        calls = []

        def counted(prob):
            calls.append(prob)
            return solve(prob)

        # cli imported the name itself, so both bindings are wrapped
        monkeypatch.setattr(conductivity, "dtn_numeric", counted)
        monkeypatch.setattr(cli, "dtn_numeric", counted)
        code = cli.main([
            "--out", str(tmp_path / "fwd"),
            "forward", "--shape-file", str(tmp_path / "shape.txt"), "--a", "2.0", "--n-max", "6",
        ])
        assert code == 0
        assert len(calls) == 1
        # the weighted difference formed from that one solve is delta_dtn_weighted's
        rows = (tmp_path / "fwd" / "decay_fit.csv").read_text().splitlines()[1:]
        expected = conductivity.diagonal_decay_fit(
            conductivity.delta_dtn_weighted(calls[0]), conductivity.fourier_degrees(6)
        )
        assert [float(r.split(",")[1]) for r in rows] == list(expected)

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
            shapes.RadialProfile(np.zeros(256), base_radius=1.0),
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
            assert cli.main(argv) == 2, argv
        assert not (tmp_path / "d").exists()

    def test_flags_before_and_after_the_subcommand(self, capsys):
        assert cli.main(["--seed", "3", "--m", "2", "net", "--m", "4", "--delta", "0.01"]) == 0
        echo = capsys.readouterr().out
        assert "seed=3\n" in echo and "m=4\n" in echo

    def test_out_is_checked_before_the_work(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the computation ran before --out was checked")

        # what the subcommands call, not the functions the SUBCOMMANDS table holds
        monkeypatch.setattr(cli, "run_instability", never)
        monkeypatch.setattr(cli, "load_shape", never)
        disk = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(256), base_radius=0.5),
        )
        save_shape(disk, tmp_path / "disk.txt")
        assert cli.main(["instability", "--eps-list", "0.05", "--budget", "20"]) == 2
        assert cli.main(["forward", "--shape-file", str(tmp_path / "disk.txt")]) == 2
        err = capsys.readouterr().err
        assert "instability requires --out" in err and "forward requires --out" in err

    @pytest.mark.parametrize(
        "argv, names",
        [
            (
                ["--seed", "5", "pack", "--m", "1", "--beta", "1.0", "--eps-list", "0.1", "--samples", "4"],
                ["pack.csv"],
            ),
            (
                ["net", "--delta", "0.01,0.001", "--c2", "1", "--alpha2", "0.5"],
                ["net.csv"],
            ),
            (
                ["scatter", "--shape-file", "disk.txt", "--a-list", "1.0,4.0",
                 "--scatter-n-max", "4", "--scatter-quad", "64", "--directions", "16"],
                ["farfield_magnitudes.csv", "reciprocity.csv"],
            ),
        ],
        ids=["pack", "net", "scatter"],
    )
    def test_stdout_is_the_files_in_order(self, argv, names, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        disk = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(256), base_radius=1.0),
        )
        save_shape(disk, tmp_path / "disk.txt")
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert cli.main(["--out", "files", *argv]) == 0
        written = b"".join((tmp_path / "files" / name).read_bytes() for name in [*names, "config.echo"])
        assert printed.encode() == written
        assert sorted(p.name for p in (tmp_path / "files").iterdir()) == sorted([*names, "config.echo"])

    def test_missing_shape_file_is_config_error(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "forward", "--shape-file", str(tmp_path / "nope.txt")])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["forward", "--shape-file", "no_m.txt"], "no_m.txt"),
            (["forward", "--shape-file", "word.txt"], "word.txt"),
            (["forward", "--shape-file", "flat.txt"], "flat.txt"),
            (["scatter", "--shape-file", "flat.txt"], "flat.txt"),
            (["forward", "--shape-file", "wide.txt"], "wide.txt"),
            (["forward", "--shape-file", "disk.txt", "--a", "1.0000001"], "--a"),
            (["instability", "--a", "1.0000001"], "--a"),
        ],
        ids=["missing_key", "non_numeric", "forward_flat", "scatter_flat", "past_0.8",
             "forward_contrast", "instability_contrast"],
    )
    def test_bad_input_is_a_one_line_config_error(self, argv, named, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        disk = shapes.Shape(
            shapes.RADIAL_SUBGRAPH,
            shapes.RadialProfile(np.zeros(64), base_radius=0.5),
        )
        save_shape(disk, "disk.txt")
        text = shapes.shape_to_text(disk).splitlines(keepends=True)
        (tmp_path / "no_m.txt").write_text("".join(line for line in text if not line.startswith("M=")))
        (tmp_path / "word.txt").write_text("".join(text[:4] + ["abc\n"] + text[5:]))
        save_shape(shapes.Shape(shapes.FLAT_SUBGRAPH, shapes.FlatProfile(np.zeros(64))), "flat.txt")
        wide = shapes.RadialProfile(np.full(64, 0.4), base_radius=0.5)
        save_shape(shapes.Shape(shapes.RADIAL_SUBGRAPH, wide), "wide.txt")
        code = cli.main(["--out", "out", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, eps0",
        [
            (["instability", "--budget", "2", "--eps-list", "0.5"], "eps0=0.392699"),
            (["pack", "--eps-list", "0.5"], "eps0=0.392699"),
            (["instability", "--m", "2", "--eps-list", "0.12"], "eps0=0.097668"),
        ],
        ids=["instability", "pack", "instability_m2"],
    )
    def test_eps_not_below_eps0_is_a_one_line_config_error(self, argv, eps0, tmp_path,
                                                            monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the work began before eps was checked against eps0")

        monkeypatch.chdir(tmp_path)
        for module, name in ((engine, "_make_forward"), (engine, "build_packing"),
                             (packing, "build_packing")):
            monkeypatch.setattr(module, name, never)
        code = cli.main(["--out", "out", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: eps_list: ") and err.count("\n") == 1
        assert eps0 in err
        assert not (tmp_path / "out").exists()


def test_runs_reach_no_eigen_or_least_squares_driver(tmp_path):
    # the run path calls LAPACK only for dense solves and for the SVDs behind
    # the 2-norm and cond: bump maxima come by bisection and line fits in
    # closed form, so dgeev and dgelsd are never paged in; the envelope
    # shells come from a Python set, so np.unique's sort code is not either,
    # and the far-field pair bound sums squares, so np.linalg.norm runs over
    # no axis pair (the dtn 2-norm and the far-field distance still call it)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('reached an eigen or least-squares driver or np.unique')\n"
        "np.linalg.eigvals = np.linalg.lstsq = np.polyfit = np.unique = refuse\n"
        "norm = np.linalg.norm\n"
        "def vector_or_2_norm(x, ord=None, axis=None, keepdims=False):\n"
        "    if isinstance(axis, tuple):\n"
        "        raise AssertionError('np.linalg.norm over an axis pair')\n"
        "    return norm(x, ord, axis, keepdims)\n"
        "np.linalg.norm = vector_or_2_norm\n"
        "from expinstab import cli, shapes\n"
        "out = sys.argv[1]\n"
        "tiny = ['--eps-list', '0.1,0.05', '--budget', '4', '--n-max', '4', '--quad-nodes', '64',\n"
        "        '--scatter-n-max', '4', '--scatter-quad', '64', '--directions', '8']\n"
        "for problem in ('dtn', 'electrodes', 'farfield'):\n"
        "    assert cli.main(['instability', '--problem', problem, *tiny, '--out', out + '/' + problem]) == 0\n"
        "assert cli.main(['pack', '--eps-list', '0.1', '--samples', '4', '--grid-size', '256',\n"
        "                 '--out', out + '/pack']) == 0\n"
        "theta = 2 * np.pi * np.arange(256) / 256\n"
        "for r in (0.5, 1.0):\n"
        "    profile = shapes.RadialProfile(0.1 * r * (1 + np.cos(3 * theta)), base_radius=r)\n"
        "    shapes.save_shape(shapes.Shape(shapes.RADIAL_SUBGRAPH, profile), f'{out}/shape{r}.txt')\n"
        "assert cli.main(['forward', '--shape-file', out + '/shape0.5.txt', '--a', '2.0', '--n-max', '6',\n"
        "                 '--quad-nodes', '64', '--out', out + '/forward']) == 0\n"
        "assert cli.main(['scatter', '--shape-file', out + '/shape1.0.txt', '--a-list', '1.0',\n"
        "                 '--scatter-n-max', '4', '--scatter-quad', '64', '--out', out + '/scatter']) == 0\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=root, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    summary = dict(line.split(",") for line in (tmp_path / "dtn" / "summary.csv").read_text().splitlines())
    assert float(summary["q_hat"]) > 0
    assert "nan" not in (tmp_path / "forward" / "decay_fit.csv").read_text()


def test_import_loads_no_scipy():
    # special.py is not a scipy facade: importing scipy.special raises the
    # peak RSS from about 30.5 to 52.5 MB and the import time by about 0.3 s
    code = "import sys, expinstab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_runs_load_no_numpy_random(tmp_path):
    # the patterns come from packing.random_bits and the bump maxima from
    # bisection on integer polynomials: numpy.random would add 5.6 MB of
    # resident memory to every run, numpy.polynomial 0.9 MB
    code = (
        "import sys\n"
        "from expinstab import cli\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['instability', '--eps-list', '0.1', '--budget', '4', '--n-max', '4',\n"
        "                 '--quad-nodes', '64', '--out', out + '/run']) == 0\n"
        "assert cli.main(['pack', '--eps-list', '0.1', '--samples', '4', '--grid-size', '256',\n"
        "                 '--out', out + '/pack']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'polynomial'])))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
    assert (tmp_path / "pack" / "pack.csv").read_text().count("\n") == 5
