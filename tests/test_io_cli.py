import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ustflow import cli
from ustflow.errors import ParseError, UnknownKey
from ustflow.geometry import annulus2d, box2d, box3d
from ustflow.io import (read_config, read_result, read_stmesh, write_result,
                        write_stmesh)
from ustflow.mesh import SpaceTimeMesh, validate_mesh


class TestStmeshRoundTrip:
    def test_bitwise_stable(self, tmp_path, rng):
        mesh = annulus2d(1.0, 2.0, 3, 9)
        p1 = tmp_path / "a.stmesh"
        p2 = tmp_path / "b.stmesh"
        write_stmesh(mesh, p1)
        again = read_stmesh(p1)
        write_stmesh(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(mesh.nodes, again.nodes)
        assert np.array_equal(mesh.elements, again.elements)
        assert mesh.tag_names == again.tag_names

    def test_comments_and_errors(self, tmp_path):
        path = tmp_path / "m.stmesh"
        path.write_text("# a comment\nstmesh 2 3 1 3\n0 0\n1 0  # inline\n"
                        "0 1\n0 1 2\n0 1 w\n1 2 w\n2 0 w\n")
        mesh = read_stmesh(path)
        assert mesh.n_nodes == 3
        assert mesh.tag_names == ["w"]

        bad = tmp_path / "bad.stmesh"
        bad.write_text("stmesh 2 2 0 0\n0 0\n")
        with pytest.raises(ParseError):
            read_stmesh(bad)

        bad2 = tmp_path / "bad2.stmesh"
        bad2.write_text("stmesh 2 1 0 0\n0 zz\n")
        with pytest.raises(ParseError) as err:
            read_stmesh(bad2)
        assert err.value.line == 2

    def test_trailing_lines_rejected(self, tmp_path):
        path = tmp_path / "m.stmesh"
        write_stmesh(box2d(1, 1), path)
        n_lines = len(path.read_text().splitlines())
        with open(path, "a") as f:
            f.write("# a comment is no line\n0 1 w\n0 1 w\n")
        with pytest.raises(ParseError, match="after the mesh block") as err:
            read_stmesh(path)
        assert err.value.line == n_lines + 2

    def test_17_digit_floats_survive(self, tmp_path, rng):
        mesh = box2d(2, 2)
        nodes = mesh.nodes + rng.uniform(0, 1e-7, mesh.nodes.shape)
        mesh = type(mesh)(nodes, mesh.elements, mesh.boundary_facets,
                          mesh.boundary_tags, mesh.tag_names)
        path = tmp_path / "m.stmesh"
        write_stmesh(mesh, path)
        again = read_stmesh(path)
        assert np.array_equal(mesh.nodes, again.nodes)


class TestResultRoundTrip:
    def test_spacetime_result(self, tmp_path, rng, small_st_mesh_2d):
        st = small_st_mesh_2d
        values = rng.standard_normal((st.n_nodes, 3))
        path = tmp_path / "run.dat"
        write_result(st, values, path)
        mesh2, values2 = read_result(path)
        assert isinstance(mesh2, SpaceTimeMesh)
        assert np.array_equal(values, values2)
        assert mesh2.t0 == st.t0 and mesh2.tN == st.tN

    def test_spatial_result(self, tmp_path, rng):
        mesh = box2d(3, 2)
        values = rng.standard_normal((mesh.n_nodes, 3))
        path = tmp_path / "run.dat"
        write_result(mesh, values, path)
        mesh2, values2 = read_result(path)
        assert not isinstance(mesh2, SpaceTimeMesh)
        assert np.array_equal(values, values2)

    @pytest.mark.parametrize("offset, text, message", [
        (0, "field nine 3", "expected 'field <n_nodes>"),
        (2, "1.0 zz 1.0", "bad float"),
        (10, "1.0 1.0 1.0", "after the field block"),
    ], ids=["header", "value", "trailing"])
    def test_malformed_field_reports_line(self, tmp_path, capsys, offset,
                                          text, message):
        mesh = box2d(2, 2)  # 9 nodes: field rows at offsets 1 to 9
        path = tmp_path / "run.dat"
        write_result(mesh, np.ones((mesh.n_nodes, 3)), path)
        lines = path.read_text().splitlines()
        no = (2 + mesh.n_nodes + mesh.n_elements + len(mesh.boundary_facets)
              + offset)
        lines[no - 1:no] = [text]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as err:
            read_result(path)
        assert err.value.line == no
        for argv in (["slice", "--time", "0.0"],
                     ["probe", "--points", str(path)]):
            assert cli.main(argv + ["--result", str(path), "--out",
                                    str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err.startswith(f"error: line {no}: ")


class TestConfig:
    def test_full_config(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text(
            "# scenario override\n"
            "[case]\n"
            "base = manufactured\n"
            "name = mms_small\n"
            "mode = slab\n"
            "levels = 3\n"
            "t_end = 0.25\n"
            "dt = 0.05\n"
            "[material]\n"
            "rho = 1.0\n"
            "mu = 0.07\n"
            "[rotation]\n"
            "omega = 0.0\n"
            "center = 0.0 0.0\n")
        spec = read_config(path)
        assert spec.name == "mms_small"
        assert spec.mode == "slab"
        assert spec.levels == 3
        assert spec.t_end == 0.25
        assert spec.dt == 0.05
        assert spec.material.mu == 0.07

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("[case]\nbase = manufactured\nbogus = 1\n")
        with pytest.raises(UnknownKey) as err:
            read_config(path)
        assert err.value.line == 3

    def test_missing_base(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("[material]\nrho = 1.0\n")
        with pytest.raises(ParseError):
            read_config(path)

    @pytest.mark.parametrize("value, convective", [
        ("1", True), ("True", True), ("yes", True), ("ON", True),
        ("0", False), ("false", False), ("No", False), ("off", False)])
    def test_convective_flag(self, tmp_path, value, convective):
        path = tmp_path / "case.cfg"
        path.write_text("[case]\nbase = manufactured\n[material]\n"
                        f"convective = {value}\n")
        assert read_config(path).convective is convective

    @pytest.mark.parametrize("value", ["ture", "2", "y", ""])
    def test_bad_convective_flag_reports_key_and_line(self, tmp_path, value):
        path = tmp_path / "case.cfg"
        path.write_text("[case]\nbase = manufactured\n[material]\n"
                        f"convective = {value}\n")
        with pytest.raises(ParseError, match="convective") as err:
            read_config(path)
        assert err.value.line == 4

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("[case]\nbase = manufactured\nlevels = abc\n")
        with pytest.raises(ParseError) as err:
            read_config(path)
        assert err.value.line == 3

    def test_mesh_override(self, tmp_path):
        mpath = tmp_path / "ann.stmesh"
        write_stmesh(annulus2d(1.0, 2.0, 2, 8), mpath)
        path = tmp_path / "case.cfg"
        path.write_text(f"[case]\nbase = couette2d\nmesh = {mpath}\n")
        spec = read_config(path)
        assert spec.mesh.n_elements == 32

    @pytest.mark.parametrize("lines, levels, dt", [
        ("base = couette2d\nt_end = 1.0\n", 6, 1.0 / 6),
        ("base = manufactured\nlevels = 12\n", 12, 0.5 / 12),
        ("base = couette2d\nt_end = 1.0\ndt = 0.25\n", 6, 0.25),
    ], ids=["t_end", "levels", "dt"])
    def test_dt_defaults_to_t_end_over_levels(self, tmp_path, lines, levels,
                                              dt):
        path = tmp_path / "case.cfg"
        path.write_text("[case]\n" + lines)
        spec = read_config(path)
        assert spec.levels == levels
        assert spec.dt == dt


class TestReadme:
    """The README's command lines and config file match the code."""

    @staticmethod
    def block(lang):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = text.split("## Command line", 1)[1]
        return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)

    def test_command_lines_parse(self):
        commands = [shlex.split(line) for line in
                    self.block("sh").replace("\\\n", " ").splitlines()
                    if line.startswith("ustflow ")]
        assert {argv[1] for argv in commands} == {
            "run", "mesh-gen", "slice", "probe", "validate", "convergence"}
        parser = cli._build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_config_loads(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text(self.block("ini"))
        spec = read_config(path)
        assert (spec.name, spec.mode, spec.dt) == ("stirrer2d", "slab",
                                                   0.00012)


class TestCli:
    def test_missing_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_conflicting_mode_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--case", "manufactured", "--mode", "ust",
                      "--dt", "0.1"])
        assert exc.value.code == 2

    def test_unknown_case_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--case", "nope"])
        assert exc.value.code == 2

    def test_validate_fixture_exit_0(self, capsys):
        ref = Path(__file__).resolve().parents[1] / "src" / "ustflow" / \
            "data" / "stirrer2d.stmesh"
        assert cli.main(["validate", "--mesh", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out

    def test_validate_broken_mesh_exit_1(self, tmp_path, capsys):
        mesh = box2d(2, 2)
        broken = type(mesh)(mesh.nodes, mesh.elements,
                            mesh.boundary_facets[:-1],
                            mesh.boundary_tags[:-1], mesh.tag_names)
        path = tmp_path / "broken.stmesh"
        write_stmesh(broken, path)
        assert cli.main(["validate", "--mesh", str(path)]) == 1

    def test_mesh_gen_output_is_valid(self, tmp_path):
        src = tmp_path / "disk.stmesh"
        from ustflow.geometry import disk2d
        write_stmesh(disk2d(1.0, 2, 10), src)
        spatial = read_stmesh(src)
        out = tmp_path / "st.stmesh"
        code = cli.main(["mesh-gen", "--input", str(src), "--levels", "3",
                         "--omega", "0.4", "--t-end", "0.6",
                         "--out", str(out)])
        assert code == 0
        st = read_stmesh(out)
        assert st.dim == 3
        assert st.n_elements == spatial.n_elements * 3 * 3
        assert validate_mesh(st) == []
        assert cli.main(["validate", "--mesh", str(out)]) == 0

    def test_mesh_gen_zero_axis_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "box.stmesh"
        write_stmesh(box3d(1, 1, 1), src)
        code = cli.main(["mesh-gen", "--input", str(src), "--levels", "1",
                         "--omega", "1.0", "--center", "0 0 0",
                         "--axis", "0 0 0", "--t-end", "0.1",
                         "--out", str(tmp_path / "st.stmesh")])
        assert code == 1
        assert "rotation axis" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--center", "0 x"),
                                             ("--axis", "0 0 z")])
    def test_mesh_gen_malformed_floats_are_an_error(self, tmp_path, capsys,
                                                    flag, value):
        src = tmp_path / "box.stmesh"
        write_stmesh(box3d(1, 1, 1), src)
        code = cli.main(["mesh-gen", "--input", str(src), "--levels", "1",
                         "--omega", "1.0", flag, value, "--t-end", "0.1",
                         "--out", str(tmp_path / "st.stmesh")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be space-separated floats")
        assert not (tmp_path / "st.stmesh").exists()

    @pytest.mark.parametrize("text", ["0.5 abc 0.05\n", "0.5 0.5\n0.1\n"])
    def test_probe_malformed_points_file_is_an_error(
            self, tmp_path, capsys, small_st_mesh_2d, text):
        st = small_st_mesh_2d
        result = tmp_path / "result.dat"
        write_result(st, np.column_stack([st.nodes[:, :2], st.times]), result)
        pts = tmp_path / "points.txt"
        pts.write_text(text)
        argv = ["probe", "--result", str(result), "--out",
                str(tmp_path / "probes.csv")]
        assert cli.main(argv + ["--points", str(pts)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {pts}: probe points must be rows of floats")
        assert cli.main(argv + ["--points", str(tmp_path / "none.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read ")

    @pytest.mark.parametrize("mode", ["ust", "slab"])
    def test_run_trace_records_forcing_term(self, tmp_path, mode):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("[case]\nbase = manufactured\nlevels = 2\n"
                       "t_end = 0.1\ndt = 0.05\n")
        outdir = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--mode", mode,
                         "--out", str(outdir)]) == 0
        lines = (outdir / "newton_trace.log").read_text().splitlines()
        etas = {}
        for line in lines:
            fields = dict(f.split("=") for f in line.split() if "=" in f)
            etas[fields["solve"], int(fields["iter"])] = fields["eta"]
        assert len(etas) == len(lines) > len({s for s, _ in etas})
        for (solve, it), eta in etas.items():
            # the forcing term of the solve that gave iterate it
            if it == 0:
                assert eta == "-"
            else:
                assert 0.0 < float(eta) <= 0.5
        assert etas["0", 1] == "1.000e-03"

    def test_run_slice_probe_pipeline(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("[case]\nbase = manufactured\nlevels = 2\n"
                       "t_end = 0.1\n")
        outdir = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--mode", "ust",
                         "--out", str(outdir)])
        assert code == 0
        assert (outdir / "result.dat").exists()
        trace_text = (outdir / "newton_trace.log").read_text()
        assert "newton iter=" in trace_text and "res=" in trace_text
        assert "assemble_s=" in trace_text

        vtk = tmp_path / "slice.vtk"
        code = cli.main(["slice", "--result", str(outdir / "result.dat"),
                         "--time", "0.05", "--out", str(vtk)])
        assert code == 0
        assert vtk.read_text().startswith("# vtk DataFile Version 3.0")

        pts = tmp_path / "points.txt"
        pts.write_text("0.5 0.5 0.05\n0.25 0.75 0.02\n")
        csv = tmp_path / "probes.csv"
        code = cli.main(["probe", "--result", str(outdir / "result.dat"),
                         "--points", str(pts), "--out", str(csv)])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,t,u1,u2,p"
        assert len(lines) == 3

    def test_probe_non_finite_point(self, tmp_path, small_st_mesh_2d):
        st = small_st_mesh_2d
        result = tmp_path / "result.dat"
        write_result(st, np.column_stack([st.nodes[:, :2], st.times]), result)
        pts = tmp_path / "points.txt"
        pts.write_text("nan 0.5 0.05\n0.25 0.75 0.1\n")
        csv = tmp_path / "probes.csv"
        code = cli.main(["probe", "--result", str(result),
                         "--points", str(pts), "--out", str(csv)])
        assert code == 1
        lines = csv.read_text().splitlines()
        nan_row = lines[1].split(",")
        assert nan_row[0] == "nan" and nan_row[3:] == ["", "", ""]
        row = [float(v) for v in lines[2].split(",")]
        assert row[3:] == pytest.approx([0.25, 0.75, 0.1], abs=1e-12)

    def test_run_named_case_with_levels(self, tmp_path):
        outdir = tmp_path / "case_out"
        code = cli.main(["run", "--case", "stirrer2d", "--mode", "ust",
                         "--levels", "2", "--out", str(outdir)])
        assert code == 0
        mesh, values = read_result(outdir / "result.dat")
        assert mesh.dim == 3
        assert values.shape == (mesh.n_nodes, 3)

    def test_run_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("[case]\nbase = manufactured\nlevels = 2\n"
                       "t_end = 0.1\n")
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert cli.main(["run", "--config", str(cfg), "--mode", "ust",
                         "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--mode", "ust",
                         "--out", str(out2)]) == 0
        assert (out1 / "result.dat").read_bytes() == \
            (out2 / "result.dat").read_bytes()

    def test_run_slab_mode(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("[case]\nbase = manufactured\nt_end = 0.1\n"
                       "dt = 0.05\n")
        outdir = tmp_path / "slab_out"
        code = cli.main(["run", "--config", str(cfg), "--mode", "slab",
                         "--out", str(outdir)])
        assert code == 0
        mesh, values = read_result(outdir / "result.dat")
        assert values.shape[1] == 3
        assert mesh.dim == 2

    def test_run_slab_names_failed_slab(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("[case]\nbase = manufactured\nt_end = 0.1\n"
                       "dt = 0.05\n")
        code = cli.main(["run", "--config", str(cfg), "--mode", "slab",
                         "--max-iter", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "did not reach tolerance in slab 0" in capsys.readouterr().err

    @staticmethod
    def only_error_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        return errors[0]

    @pytest.mark.parametrize("section, line, message", [
        ("material", "mu = -0.5", "mu = -0.5: need rho > 0 and mu >= 0"),
        ("material", "rho = 0", "rho = 0: need rho > 0 and mu >= 0"),
        ("case", "levels = 0", "levels must be positive, got '0'"),
        ("case", "levels = -2", "levels must be positive, got '-2'"),
        ("case", "t_end = -1", "t_end must be positive, got '-1'"),
        ("case", "dt = 0", "dt must be positive, got '0'"),
    ], ids=["mu", "rho", "levels_0", "levels_neg", "t_end", "dt"])
    def test_run_config_out_of_range_names_key_and_line(
            self, tmp_path, capsys, section, line, message):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"[case]\nbase = couette2d\n[{section}]\n{line}\n")
        code = cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")])
        assert code == 1
        assert self.only_error_line(capsys) == f"error: line 4: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--mode", "ust", "--levels", "0"], "--levels must be at least 1"),
        (["--mode", "slab", "--dt", "0"], "--dt must be positive"),
    ], ids=["levels", "dt"])
    def test_run_flag_out_of_range_is_a_usage_error(self, tmp_path, capsys,
                                                     argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--case", "couette2d", *argv, "--out",
                      str(tmp_path / "o")])
        assert exc.value.code == 2
        assert message in self.only_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_convergence_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = cli.main(["convergence", "--case", "manufactured",
                         "--mode", "ust", "--sizes", "4,8", "--out",
                         str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "size,h,err_u,err_p,order_u,order_p"
        assert len(lines) == 3
