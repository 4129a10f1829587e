import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1]


def run_cli(args, cwd, env_extra=None):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG / "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "cocyclelab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


class TestBasics:
    def test_exponent_constant(self, tmp_path):
        r = run_cli(["exponent", "--out", "o", "--generator.family=constant",
                     "--generator.entries=[2,0,0,0.5]", "--n=100", "--base.grid=256"],
                    tmp_path)
        assert r.returncode == 0, r.stderr
        data = json.loads((tmp_path / "o" / "exponent.json").read_text())
        assert abs(data["mean"] - 0.6931471805599453) < 1e-12
        csv_lines = (tmp_path / "o" / "exponent.csv").read_text().splitlines()
        assert csv_lines[0] == "x,n,log_norm_over_n"
        assert len(csv_lines) == 257

    def test_growth_exit_codes(self, tmp_path):
        ok = run_cli(["growth-test", "--out", "o", "--generator.family=rotation",
                      "--generator.offset=0.05", "--eps=0.01", "--n=100",
                      "--base.grid=256"], tmp_path)
        assert ok.returncode == 0
        bad = run_cli(["growth-test", "--out", "o2", "--generator.family=constant",
                       "--eps=0.5", "--n=50", "--base.grid=256"], tmp_path)
        assert bad.returncode == 1

    def test_config_file_and_override(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"base": {"grid": 256},
                                    "generator": {"family": "rotation", "offset": 0.1},
                                    "n": 64}))
        r = run_cli(["exponent", "--config", str(cfgf), "--out", "o3", "--n=32"],
                    tmp_path)
        assert r.returncode == 0
        data = json.loads((tmp_path / "o3" / "exponent.json").read_text())
        assert data["n"] == 32  # command line override wins

    def test_bad_config_exit_2(self, tmp_path):
        cfgf = tmp_path / "bad.json"
        cfgf.write_text("{not json")
        r = run_cli(["exponent", "--config", str(cfgf)], tmp_path)
        assert r.returncode == 2
        assert "line" in r.stderr

    @pytest.mark.parametrize("args", [
        ["growth-test", "--eps=NaN", "--n=10", "--base.grid=64"],
        ["exponent", "--base.grid=0", "--n=10"],
        ["castle", "--base.variant=circle", "--base.alpha=nan"],
        ["castle", "--base.variant=circle", "--base.alpha=abc"],
        ["exponent", "--base.variant=torus", "--base.vector=[0.38]"],
        ["exponent", "--n=10", "--base.grd=64"],
        ["exponent", "--n.x=5"],
        ["exponent", "--n=10", "--seed=5"],
        ["exponent", "--n=abc"],
        ["castle", "--castle_n=x"],
        ["exponent", "--generator.family=constant", "--generator.entries=abc"],
        ["exponent", "--generator.family=constant", "--generator.entries=[1,2]"],
        ["surgery", "--surgery.horizon=abc"],
        ["demo-hopf", "--hopf_alpha=x"],
    ], ids=["eps-nan", "grid-zero", "alpha-nan", "alpha-text", "variant-torus", "unknown-key",
            "leaf-object", "stale-key", "n-text", "castle-n-text", "entries-text",
            "entries-length", "horizon-text", "hopf-alpha-text"])
    def test_bad_value_exit_2(self, tmp_path, args):
        r = run_cli([args[0], "--out", "o", *args[1:]], tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert r.stderr.startswith("config error:") and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cfg,key", [
        ({"base": {"grd": 64}, "n": 10}, "'base.grd'"),
        ({"freq_points": {"x": 0}, "n": 10}, "'freq_points'"),
        ([1, 2], "must hold a JSON object"),
        ({"n": "abc"}, "'n'"),
    ], ids=["unknown-key", "leaf-object", "not-an-object", "value-text"])
    def test_bad_config_file_key_exit_2(self, tmp_path, cfg, key):
        cfgf = tmp_path / "typo.json"
        cfgf.write_text(json.dumps(cfg))
        r = run_cli(["exponent", "--config", str(cfgf), "--out", "o"], tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert key in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    def test_rational_angle_exit_2(self, tmp_path):
        r = run_cli(["freq-bound", "--out", "o", "--base.variant=circle",
                     "--base.alpha=0.5"], tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert "1/2 is rational" in r.stderr and "Traceback" not in r.stderr

    def test_sturmian_slope_is_base_alpha(self, tmp_path):
        for variant in ("sturmian", "circle"):
            r = run_cli(["castle", "--out", variant, "--castle_n=5", "--base.grid=512",
                         f"--base.variant={variant}", "--base.alpha=0.3819660112501051"],
                        tmp_path)
            assert r.returncode == 0, r.stdout + r.stderr
        assert ((tmp_path / "sturmian" / "castle.csv").read_bytes()
                == (tmp_path / "circle" / "castle.csv").read_bytes())

    def test_unknown_variant_exit_2(self, tmp_path):
        r = run_cli(["exponent", "--out", "o", "--base.variant=weird"], tmp_path)
        assert r.returncode == 2

    def test_env_out_dir(self, tmp_path):
        r = run_cli(["castle", "--castle_n=3", "--base.grid=512"], tmp_path,
                    env_extra={"COCYCLELAB_OUT": "envout"})
        assert r.returncode == 0
        assert (tmp_path / "envout" / "castle.json").exists()

    def test_demo_hopf(self, tmp_path):
        r = run_cli(["demo-hopf", "--out", "o", "--base.grid=1024"], tmp_path)
        assert r.returncode == 0
        data = json.loads((tmp_path / "o" / "hopf.json").read_text())
        assert data["winding"] == 1
        assert data["expansion"] >= 2 - 1e-6

    def test_freq_bound(self, tmp_path):
        r = run_cli(["freq-bound", "--out", "o", "--base.grid=512",
                     "--freq_points=[0.0,0.5]", "--freq_eps=0.2"], tmp_path)
        assert r.returncode == 0
        data = json.loads((tmp_path / "o" / "freq.json").read_text())
        assert data["sup_frequency"] < 0.2
        # boundary points are read mod 1: 1.5 and -0.5 certify exactly as 0.5
        for name, pts in (("half", "[0.5]"), ("above", "[1.5]"), ("below", "[-0.5]")):
            r = run_cli(["freq-bound", "--out", name, "--base.grid=512",
                         f"--freq_points={pts}", "--freq_eps=0.1"], tmp_path)
            assert r.returncode == 0, r.stdout + r.stderr
        want = (tmp_path / "half" / "freq.json").read_bytes()
        for name in ("above", "below"):
            assert (tmp_path / name / "freq.json").read_bytes() == want, name

    def test_steer(self, tmp_path):
        r = run_cli(["steer", "--out", "o", "--generator.family=constant",
                     "--generator.entries=[1,0,0,1]", "--eps=0.2",
                     "--steer.v_angle=0", "--steer.w_angle=1.5707963",
                     "--base.grid=256"], tmp_path)
        assert r.returncode == 0
        data = json.loads((tmp_path / "o" / "steer.json").read_text())
        assert data["m"] == 8
        assert data["max_distance"] < 0.2

    def test_plan_segment_weak_coupling(self, tmp_path):
        r = run_cli(["plan-segment", "--out", "o", "--generator.coupling=1.2",
                     "--eps=0.3", "--anchor=0.42", "--base.grid=1024"], tmp_path)
        assert r.returncode == 0, r.stderr
        data = json.loads((tmp_path / "o" / "segment.json").read_text())
        assert data["pass"] is True
        assert data["max_distance"] < 0.3

    def test_selftest(self, tmp_path):
        r = run_cli(["selftest", "--out", "o", "--base.grid=256"], tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "PASS" in r.stdout


@pytest.mark.slow
def test_surgery_subcommand(tmp_path):
    r = run_cli(["surgery", "--out", "s", "--generator.family=twisted-table",
                 "--generator.coupling=1.2", "--eps=0.4", "--base.grid=1024",
                 "--surgery.verify_grid=64"], tmp_path)
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "s" / "surgery.json").read_text())
    assert data["pass"] is True
    growth = (tmp_path / "s" / "surgery_growth.csv").read_text().splitlines()
    assert growth[0] == "x,log_growth_before,log_growth_after"
    assert (tmp_path / "s" / "surgery_table.csv").exists()


class TestDeterminism:
    CASES = [
        ["exponent", "--generator.family=schrodinger", "--generator.coupling=2.0",
         "--n=300", "--base.grid=1024"],
        ["growth-test", "--generator.family=rotation", "--generator.winding=1.0",
         "--eps=0.05", "--n=200", "--base.grid=1024"],
        ["castle", "--castle_n=6", "--base.grid=1024"],
        ["freq-bound", "--freq_points=[0.1,0.7]", "--freq_eps=0.1", "--base.grid=1024"],
        ["demo-hopf", "--base.grid=1024"],
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_threads_bitwise_identical(self, tmp_path, case):
        r1 = run_cli([case[0], "--out", "t1", "--threads", "1", *case[1:]], tmp_path)
        r8 = run_cli([case[0], "--out", "t8", "--threads", "8", *case[1:]], tmp_path)
        assert r1.returncode == r8.returncode
        d1, d8 = tmp_path / "t1", tmp_path / "t8"
        files = sorted(p.name for p in d1.iterdir())
        assert files == sorted(p.name for p in d8.iterdir())
        for name in files:
            assert filecmp.cmp(d1 / name, d8 / name, shallow=False), name
