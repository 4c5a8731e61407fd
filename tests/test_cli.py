import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnewton import cli
from distnewton.cli import ExperimentConfig, main, parse_compressor_flag
from distnewton.compressors import bernoulli, dithering, identity, natural, random_r
from distnewton.data import Dataset, load_dataset, save_dataset, synth_artificial
from distnewton.errors import DistNewtonError
from distnewton.harness import COMPRESSED_METHODS, METHOD_NAMES
from distnewton.methods import Oracles, _oracles_at, reference_optimum
from distnewton.problem import make_problem


def all_subclasses(cls) -> set:
    """The package's subclasses of cls, at any depth."""
    found = {sub for sub in cls.__subclasses__()
             if sub.__module__.startswith("distnewton.")}
    return found.union(*map(all_subclasses, found))


def base_config(tmp_path, **over):
    cfg = {
        "method": "newton",
        "seed": 7,
        "lam": 1e-2,
        "loss": "logistic",
        "n": 2,
        "shuffle_seed": 3,
        "synth": {"n": 2, "m": 10, "d": 4, "seed": 5},
        "max_iters": 5,
    }
    cfg.update(over)
    path = tmp_path / f"cfg_{over.get('method', 'newton')}_{over.get('tag', '')}.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRun:
    def test_run_writes_trace_files(self, tmp_path, capsys):
        cfg_path, cfg = base_config(tmp_path)
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gap=" in out and "bits_up=" in out
        stem = ExperimentConfig.from_dict(cfg).stem()
        assert (tmp_path / "out" / f"{stem}.csv").exists()
        assert (tmp_path / "out" / f"{stem}.json").exists()

    def test_zero_iteration_run(self, tmp_path):
        cfg_path, cfg = base_config(tmp_path, max_iters=0)
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        stem = ExperimentConfig.from_dict(cfg).stem()
        lines = (outdir / f"{stem}.csv").read_text().splitlines()
        assert len(lines) == 2  # header + initial row

    def test_missing_dataset_exits_4_and_names_path(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path)
        data = json.loads(cfg_path.read_text())
        data.pop("synth")
        data["dataset_path"] = str(tmp_path / "nope.libsvm")
        cfg_path.write_text(json.dumps(data))
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 4
        assert "nope.libsvm" in capsys.readouterr().err

    def test_non_finite_feature_exits_2_and_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.libsvm"
        data.write_text("+1 1:1 2:1\n-1 1:0.5\n+1 1:nan 2:1\n-1 2:2\n")
        cfg_path, _ = base_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg.pop("synth")
        cfg["dataset_path"] = str(data)
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_index_past_int64_exits_2_and_names_line(self, tmp_path, capsys):
        data = tmp_path / "wide.libsvm"
        data.write_text("+1 1:1\n-1 100000000000000000000:1\n")
        rc = main(["run", "--dataset", str(data), "--n", "1", "--method", "gd",
                   "--seed", "1", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "line 2: feature index" in capsys.readouterr().err

    def test_invalid_method_config_exits_2(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, method="nl1", lam=0.0,
                                  compressor={"kind": "random_r", "r": 1})
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 2
        assert "lam" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, culprit", [(["--method", "nl3"], "nl3"),
                                                (["--method", "nl2"], "compressor")])
    def test_invalid_method_exits_2_before_any_work(self, tmp_path, capsys,
                                                     flags, culprit):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(out), *flags])
        assert rc == 2
        assert culprit in capsys.readouterr().err
        assert not out.exists()          # no oracle cache, no trace

    @pytest.mark.parametrize("over, culprit", [
        ({"n": "2"}, "n"),
        ({"n": True}, "n"),
        ({"max_iters": "2"}, "max_iters"),
        ({"lam": "0.1"}, "lam"),
        ({"target_gap": "1e-3"}, "target_gap"),
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"shuffle_seed": -1}, "shuffle_seed"),
        ({"diagnostics": 1}, "diagnostics"),
        ({"synth": {"n": 2, "m": 10, "seed": 5}}, "'d'"),
        ({"synth": {"n": 2, "m": 10, "d": "4", "seed": 5}}, "synth.d"),
        ({"synth": {"n": 2, "m": 10, "d": 4, "seed": 5, "spread": 1}}, "spread"),
        ({"synth": {"n": 2, "m": 10, "d": 4, "seed": -5}}, "synth.seed"),
        ({"method": "nl2", "compressor": {"kind": "random_r", "r": "1"}}, "r must"),
        ({"method": "nl2", "compressor": {"kind": "random_r", "r": True}}, "r must"),
        ({"method": "nl2", "compressor": {"kind": "dithering", "s": 1.0}}, "s must"),
        ({"method": "nl2", "compressor": {"kind": "dithering", "q": "2"}},
         "does not read q"),                  # dithering's norm is l2, with no q
        ({"method": "nl2", "compressor": {"kind": "bernoulli", "p": "0.5",
                                          "inner": {"kind": "natural"}}}, "p must"),
        ({"method": "nl2", "compressor": {"kind": "bernoulli", "p": 0.5,
                                          "inner": "natural"}}, "'natural'"),
        ({"method": "nl2", "compressor": {"r": 1}}, "kind"),
        ({"newton_ref_iters": 20}, "unknown config field"),
        ({"tag": 3}, "tag must be str"),
        ({"method": "gd", "stepsize": float("inf")}, "stepsize"),
        ({"method": "gd", "stepsize": 0.0}, "stepsize"),
        ({"target_gap": float("nan")}, "target_gap"),
        ({"lam": float("-inf")}, "lam"),
        ({"method": "nl1", "compressor": {"kind": "random_r", "r": 1}, "eta": -0.5},
         "eta"),
        ({"method": "nl2", "compressor": {"kind": "random_r", "r": 1}, "gamma": 0.5},
         "unknown config field"),
        ({"method": "diana", "compressor": {"kind": "random_r", "r": 1}, "theta": 0},
         "theta"),
        ({"max_iters": -1}, "max_iters"),
        ({"bit_budget": -1}, "bit_budget"),
        ({"d_hint": -1}, "d_hint"),
        ({"synth": {"n": 2, "m": 10, "d": 4, "seed": 5, "mean": float("nan")}},
         "synth.mean"),
        ({"loss": "hinge"}, "loss"),
        ({"h0": "bogus"}, "unknown config field"),  # learners start at h(x0)
        ({"option": 3}, "option"),
        ({"d_hint": 7}, "d_hint"),              # a synthetic problem reads no d_hint
        ({"method": "nl2", "compressor": {"kind": "dithering", "q": 0}},
         "does not read q"),
        ({"method": "nl2", "compressor": {"kind": "dithering", "s": 3, "q": 2.0}},
         "does not read q"),
        ({"method": "nl2", "compressor": {"kind": "dithering", "q": float("inf")}},
         "does not read q"),
        ({"method": "nl2", "compressor": {"kind": "natural", "r": -5, "q": float("nan")}},
         "does not read q, r"),
        ({"method": "nl2", "compressor": {"kind": "random_r", "r": 1, "q": 0, "s": 0}},
         "does not read q, s"),
        ({"method": "dcgd", "compressor": {"kind": "identity", "zzz": 1}},
         "does not read zzz"),
        # a value the method never reads
        ({"method": "gd", "theta": 0.5, "eta": 9.0}, "'gd' reads no eta"),
        ({"method": "newton", "compressor": {"kind": "random_r", "r": 1}},
         "'newton' takes no compressor"),
        ({"method": "nl1", "compressor": {"kind": "random_r", "r": 1}, "stepsize": 7.0},
         "'nl1' reads no stepsize"),
        # an integer too large for a float
        ({"lam": 10**400}, "lam"),
        ({"method": "nl1", "compressor": {"kind": "random_r", "r": 1}, "eta": 10**400},
         "eta"),
        ({"method": "gd", "stepsize": 10**400}, "stepsize"),
        ({"method": "diana", "compressor": {"kind": "random_r", "r": 1},
          "theta": 10**400}, "theta"),
        ({"target_gap": 10**400}, "target_gap"),
        ({"synth": {"n": 2, "m": 10, "d": 4, "seed": 5, "mean": 10**400}},
         "synth.mean"),
        ({"synth": {"n": 2, "m": 10, "d": 4, "seed": 5, "variance": 10**400}},
         "synth.variance"),
        ({"method": "nl2", "compressor": {"kind": "dithering", "q": 10**400}},
         "does not read q"),
        ({"method": "nl2", "compressor": {"kind": "dithering", "s": 10**400}},
         "s >= 1"),
        # a trace file name past NAME_MAX (the config file's own name fits)
        ({"seed": 10**400}, "longer than 255 bytes"),
        ({"tag": "t" * 230}, "longer than 255 bytes"),
    ])
    def test_bad_field_value_exits_2_and_names_it(self, tmp_path, capsys,
                                                  over, culprit):
        cfg_path, _ = base_config(tmp_path, **over)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(out)])
        assert rc == 2
        assert culprit in capsys.readouterr().err
        assert not out.exists()          # no oracle cache, no trace

    @pytest.mark.parametrize("cls", sorted(all_subclasses(DistNewtonError),
                                           key=lambda c: c.__name__))
    def test_every_package_error_has_an_exit_code(self, monkeypatch, capsys, cls):
        def raise_it(args):
            raise cls.__new__(cls, "boom")
        monkeypatch.setattr(cli, "cmd_run", raise_it)
        rc = main(["run", "--synth", "2,10,4", "--seed", "1", "--method", "gd"])
        assert rc in (2, 3, 4)
        err = capsys.readouterr().err
        assert err.endswith(": boom\n") and "Traceback" not in err

    def test_an_unmapped_error_is_not_reported_as_a_config_error(self, monkeypatch):
        class Unmapped(DistNewtonError):
            pass

        def raise_it(args):
            raise Unmapped("boom")
        monkeypatch.setattr(cli, "cmd_run", raise_it)
        with pytest.raises(Unmapped):
            main(["run", "--synth", "2,10,4", "--seed", "1", "--method", "gd"])

    def test_tag_holding_a_path_separator_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--synth", "20,5,3", "--n", "2", "--seed", "1", "--method",
                   "gd", "--tag", "a/b", "--outdir", str(out)])
        assert rc == 2
        assert "'a/b'" in capsys.readouterr().err
        assert not out.exists()          # the rounds never ran

    def test_d_hint_past_the_width_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("distnewton.data.MAX_FEATURES", 4)
        data = tmp_path / "narrow.libsvm"
        data.write_text("+1 1:1\n-1 2:1\n")
        out = tmp_path / "out"
        rc = main(["run", "--dataset", str(data), "--d-hint", "5", "--n", "1",
                   "--method", "gd", "--seed", "1", "--outdir", str(out)])
        assert rc == 2
        assert "d_hint 5 exceeds the maximum width 4" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_without_features_exits_2(self, tmp_path, capsys):
        data = tmp_path / "labels_only.libsvm"
        data.write_text("1\n-1\n1\n-1\n")
        out = tmp_path / "out"
        rc = main(["refopt", "--dataset", str(data), "--n", "2", "--lam", "0.1",
                   "--seed", "1", "--outdir", str(out)])
        assert rc == 2
        assert "no features" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{\"method\": ", "[1, 2]"])
    def test_config_file_not_a_json_object_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [["run", "--config"], ["compare"]])
    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b"\xff\xfe{\x00}\x00")    # UTF-16 text of {}
        out = tmp_path / "out"
        assert main([*verb, str(cfg_path), "--outdir", str(out)]) == 2
        assert "bad.json" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json refuses an int of more than 4300 digits with a plain ValueError
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text('{"method": "gd", "seed": 1, "lam": 1' + "0" * 5000 + "}")
        assert main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    # inputs that once ended in a traceback; a scale replaces the synthetic
    # data by a LIBSVM file of features of that size
    @pytest.mark.parametrize("over, scale", [
        pytest.param({"synth": {"n": 4, "m": 5, "d": 3, "seed": 0, "variance": 2**64}},
                     None, id="synth-variance-2**64"),
        pytest.param({"method": "nl1", "eta": 5e-324}, None, id="nl1-eta-5e-324"),
        pytest.param({"method": "nl1", "lam": 1e308}, None, id="nl1-lam-1e308"),
        pytest.param({"method": "nl2", "lam": 1e308}, None, id="nl2-lam-1e308"),
        pytest.param({"method": "cnl", "lam": 1e308}, None, id="cnl-lam-1e308"),
        *(pytest.param({"method": m}, 1e120, id=f"{m}-features-1e120")
          for m in ("gd", "nl1", "nl2", "cnl")),
        *(pytest.param({"method": m}, 1e-200, id=f"{m}-features-1e-200")
          for m in ("nl1", "nl2", "cnl")),
    ])
    def test_extreme_value_ends_in_a_mapped_exit_code(self, tmp_path, capsys,
                                                      over, scale):
        if over.get("method") in COMPRESSED_METHODS:
            over = {**over, "compressor": {"kind": "random_r", "r": 1}}
        if scale is not None:
            g = np.random.default_rng(0)
            data = tmp_path / "data.txt"
            save_dataset(Dataset(features=g.standard_normal((12, 3)) * scale,
                                 labels=np.where(g.random(12) < 0.5, -1.0, 1.0)), data)
            over = {**over, "synth": None, "dataset_path": str(data)}
        cfg_path, _ = base_config(tmp_path, **over)
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
        assert rc in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("synth", ["1,2", "1,2,x"])
    def test_malformed_synth_exits_2(self, tmp_path, capsys, synth):
        rc = main(["run", "--synth", synth, "--method", "gd", "--seed", "1",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert repr(synth) in capsys.readouterr().err

    def test_synth_count_past_the_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew normals")
        monkeypatch.setattr("distnewton.data.standard_normals", no_draw)
        rc = main(["run", "--synth", "1000000000,1000000000,3", "--method", "gd",
                   "--seed", "1", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "n*m*d" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["gd", "nl1", "bfgs"])
    @pytest.mark.parametrize("x0", [[0.1, 0.2], [0.0, float("nan"), 0.0, 0.0],
                                    ["a", 0.0, 0.0, 0.0], [10**400, 0.0, 0.0, 0.0]],
                             ids=["short", "nan", "text", "huge-int"])
    def test_bad_x0_exits_2_and_names_it(self, tmp_path, capsys, method, x0):
        compressor = {"kind": "random_r", "r": 1} if method == "nl1" else None
        cfg_path, _ = base_config(tmp_path, method=method, compressor=compressor, x0=x0)
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "x0" in capsys.readouterr().err

    def test_replica_mismatch_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("distnewton.harness.verify_replicas", lambda a, b: False)
        cfg_path, _ = base_config(tmp_path, method="nl2",
                                  compressor={"kind": "random_r", "r": 1})
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
        assert rc == 3
        assert "replica mismatch" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg_path, cfg = base_config(tmp_path)
        outdir = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(outdir),
                   "--method", "gd", "--max-iters", "2"])
        assert rc == 0
        stems = {p.stem for p in outdir.glob("*.csv")}
        assert any("_gd_" in s for s in stems)

    def test_learning_method_end_to_end(self, tmp_path):
        cfg_path, cfg = base_config(tmp_path, method="nl1",
                                    compressor={"kind": "random_r", "r": 1},
                                    max_iters=10)
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        stem = ExperimentConfig.from_dict(cfg).stem()
        rows = json.loads((outdir / f"{stem}.json").read_text())["rows"]
        assert len(rows) == 11
        assert rows[-1]["gap"] < rows[0]["gap"]

    def test_config_echo_roundtrip(self, tmp_path):
        cfg_path, cfg = base_config(tmp_path, method="nl2",
                                    compressor={"kind": "random_r", "r": 2},
                                    max_iters=3)
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        stem = ExperimentConfig.from_dict(cfg).stem()
        echoed = json.loads((outdir / f"{stem}.json").read_text())["config"]
        assert ExperimentConfig.from_dict(echoed) == ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize("spread", [{}, {"mean": -2.5, "variance": 3.0}],
                             ids=["defaults", "given"])
    def test_synth_data_is_synth_artificial_bitwise(self, spread):
        synth = {"n": 2, "m": 10, "d": 4, "seed": 5, **spread}
        got = ExperimentConfig(method="gd", seed=1, synth=synth).load_data()
        want = synth_artificial(2, 10, 4, 5, **spread)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_seed_required(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path)
        data = json.loads(cfg_path.read_text())
        data.pop("seed")
        cfg_path.write_text(json.dumps(data))
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path, cfg = base_config(
            tmp_path, method="nl2", max_iters=15,
            compressor={"kind": "bernoulli", "p": 0.5,
                        "inner": {"kind": "random_r", "r": 1}})
        stem = ExperimentConfig.from_dict(cfg).stem()
        blobs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            assert main(["run", "--config", str(cfg_path),
                         "--outdir", str(outdir)]) == 0
            blobs.append((outdir / f"{stem}.csv").read_bytes())
        assert blobs[0] == blobs[1]


# fields a config file sets but no flag of their own name does
FLAGLESS_FIELDS = {"dataset_path", "synth", "compressor", "x0", "diagnostics", "timing"}


def flag_value(name: str):
    """A valid value of the field's kind, other than its default."""
    if name in cli._CHOICES:
        return cli._CHOICES[name][-1]
    kind = cli._CONFIG_KINDS[name][0]
    return {int: 3, float: 0.5, str: "gd" if name == "method" else "t"}[kind]


class TestFlags:
    def test_every_field_has_a_run_flag_that_reaches_the_config(self):
        names = [f.name for f in fields(ExperimentConfig) if f.name not in FLAGLESS_FIELDS]
        argv = ["run", "--synth", "2,10,4"]
        for name in names:
            argv += ["--" + name.replace("_", "-"), str(flag_value(name))]
        cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
        for name in names:
            assert getattr(cfg, name) == flag_value(name), name

    @pytest.mark.parametrize("verb", ["run", "refopt"])
    def test_retired_flag_exits_2(self, verb, capsys):
        # x*'s Newton loop stops itself, so its step cap is no longer a
        # field; nl2 and cnl clamp at their loss's gamma, so it is not one;
        # every learner starts at h(x0)
        for flag in ("--newton-ref-iters", "--gamma", "--h0"):
            with pytest.raises(SystemExit) as exc:
                main([verb, "--synth", "2,10,4", "--seed", "1", flag, "0.5"])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_retired_compare_flag_exits_2(self, tmp_path, capsys):
        # compare ranks at the fixed GAP_THRESHOLDS
        cfg_path, _ = base_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(cfg_path), "--gap-thresholds", "1e-3"])
        assert exc.value.code == 2
        assert "--gap-thresholds" in capsys.readouterr().err

    def test_switches_leave_the_config_file_value_unless_given(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, diagnostics=False, timing=True)
        parse = cli.build_parser().parse_args
        cfg = cli._config_from_args(parse(["run", "--config", str(cfg_path)]))
        assert (cfg.diagnostics, cfg.timing) == (False, True)
        cfg = cli._config_from_args(parse(["run", "--synth", "2,10,4", "--method", "gd",
                                           "--seed", "1", "--no-diagnostics", "--timing"]))
        assert (cfg.diagnostics, cfg.timing) == (False, True)


class TestRefopt:
    def test_squared_loss_tight_floor(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, loss="squared", lam=0.1)
        rc = main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        grad_norm = float(out.split("grad_norm=")[1].split()[0])
        assert grad_norm <= 1e-14

    def test_cache_file_deterministic(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        assert main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
        cached = list((tmp_path / "oracles").glob("*.json"))
        assert len(cached) == 1
        before = cached[0].read_bytes()
        cached[0].unlink()
        assert main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
        assert cached[0].read_bytes() == before

    def test_dataset_is_hashed_once(self, tmp_path, monkeypatch):
        keys = []
        key = cli._oracle_cache_key
        monkeypatch.setattr(cli, "_oracle_cache_key", lambda cfg: keys.append(1) or key(cfg))
        cfg_path, _ = base_config(tmp_path)
        assert main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
        assert len(keys) == 1

    def test_cache_distinguishes_lambda(self, tmp_path):
        for lam in (1e-2, 1e-3):
            cfg_path, _ = base_config(tmp_path, lam=lam)
            assert main(["refopt", "--config", str(cfg_path),
                         "--outdir", str(tmp_path)]) == 0
        assert len(list((tmp_path / "oracles").glob("*.json"))) == 2


class TestOracleCache:
    def cached_file(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        assert main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
        (cached,) = (tmp_path / "oracles").iterdir()
        return cfg_path, cached

    def test_corrupt_cache_exits_4_and_names_file(self, tmp_path, capsys):
        cfg_path, cached = self.cached_file(tmp_path)
        text = cached.read_text()
        cached.write_text(text[:len(text) // 2])
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 4
        assert cached.name in capsys.readouterr().err

    def test_cache_of_another_shape_exits_4(self, tmp_path, capsys):
        cfg_path, cached = self.cached_file(tmp_path)
        d = json.loads(cached.read_text())
        d["x_star"] = d["x_star"][:-1]
        cached.write_text(json.dumps(d))
        capsys.readouterr()
        rc = main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert cached.name in err and "x_star" in err

    @pytest.mark.parametrize("field, value", [("x_star", float("nan"))])
    def test_non_finite_cache_value_exits_4(self, tmp_path, capsys, field, value):
        # json reads NaN and Infinity, so a shape check alone lets them through
        cfg_path, cached = self.cached_file(tmp_path)
        d = json.loads(cached.read_text())
        d[field][0] = value
        cached.write_text(json.dumps(d))
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert cached.name in err and field in err

    def test_format_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path)[1])
        key = cli._oracle_cache_key(cfg)
        monkeypatch.setattr(cli, "ORACLE_FORMAT", cli.ORACLE_FORMAT + 1)
        assert cli._oracle_cache_key(cfg) != key

    def test_old_keyed_file_is_never_read(self, tmp_path, monkeypatch):
        cfg_path, cfg_dict = base_config(tmp_path)
        cfg = ExperimentConfig.from_dict(cfg_dict)
        # the unversioned key of format 1 and the key of the previous format
        unversioned = hashlib.sha256(json.dumps(
            {k: v for k, v in cfg.problem_key().items() if k != "dataset_path"},
            sort_keys=True).encode()).hexdigest()[:24]
        monkeypatch.setattr(cli, "ORACLE_FORMAT", cli.ORACLE_FORMAT - 1)
        previous = cli._oracle_cache_key(cfg)
        monkeypatch.undo()
        stale = tmp_path / "oracles"
        stale.mkdir()
        for key in (unversioned, previous):
            (stale / f"{key}.json").write_text("{not json")   # would exit 4 if read
        assert main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
        fresh = cli.oracle_path(cfg, tmp_path)
        assert fresh.name not in {f"{unversioned}.json", f"{previous}.json"}
        assert json.loads(fresh.read_text())["x_star"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("distnewton.cli.os.replace", refuse)
        cfg_path, _ = base_config(tmp_path)
        rc = main(["refopt", "--config", str(cfg_path), "--outdir", str(tmp_path)])
        assert rc == 4
        assert list((tmp_path / "oracles").iterdir()) == []


def read_only_oracles():
    """The oracles as computed, and as read back from a cache file."""
    p = make_problem(synth_artificial(2, 5, 3, seed=1), n=2, shuffle_seed=0, lam=1e-2)
    computed = reference_optimum(p)
    return computed, cli.oracles_from_json(cli.oracles_to_json(computed), p)


@pytest.mark.parametrize("source", [0, 1], ids=["computed", "cached"])
@pytest.mark.parametrize("name", ["x_star", "h_star", "hessian_star"])
def test_oracle_arrays_are_read_only(source, name):
    # a compare hands one Oracles to every config, so a write must not pass
    a = getattr(read_only_oracles()[source], name)
    with pytest.raises(ValueError):
        a[(0,) * a.ndim] = 1.0


ROUNDTRIP_PROBLEM = make_problem(synth_artificial(2, 3, 4, seed=0), n=2, shuffle_seed=0)
FINITE = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


ORACLE_FIELDS = [f.name for f in fields(Oracles)]


def assert_cache_reads_back_bitwise(o: Oracles, p) -> None:
    """The cache text of o holds x_star alone, and the oracles read back
    from it equal o bit for bit in every field."""
    text = cli.oracles_to_json(o)
    assert list(json.loads(text)) == ["x_star"]
    again = cli.oracles_from_json(text, p)
    for name in ORACLE_FIELDS:
        assert bits(getattr(again, name)) == bits(getattr(o, name)), name


@settings(max_examples=50, deadline=None)
@given(st.lists(FINITE, min_size=4, max_size=4))
def test_oracle_cache_roundtrip_is_bitwise(x_star):
    # every derived field is what _oracles_at computes at the written x*
    p = ROUNDTRIP_PROBLEM
    assert_cache_reads_back_bitwise(_oracles_at(p, np.array(x_star)), p)


def test_cached_reference_optimum_equals_the_computed_one_bitwise(a2a_1e3):
    squared = make_problem(synth_artificial(3, 8, 5, seed=2, mean=0.0, variance=1.0),
                           n=3, shuffle_seed=1, loss_kind="squared", lam=1e-2)
    for p in (a2a_1e3, squared):
        assert_cache_reads_back_bitwise(reference_optimum(p), p)


def flag_text(spec) -> str:
    """The --compressor flag that names this spec."""
    if spec.kind == "random_r":
        return f"random_r:{spec.r}"
    if spec.kind == "dithering":
        return "dithering" if spec.s is None else f"dithering:{spec.s}"
    if spec.kind == "bernoulli":
        return f"bernoulli:{spec.p!r}:{flag_text(spec.inner)}"
    return spec.kind


SPECS = st.recursive(
    st.one_of(st.just(identity()), st.just(natural()), st.just(dithering()),
              st.builds(random_r, st.integers(1, 10 ** 6)),
              st.builds(dithering, st.integers(1, 10 ** 6))),
    lambda inner: st.builds(bernoulli, inner,
                            st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    max_leaves=3)


@settings(max_examples=100, deadline=None)
@given(SPECS)
def test_compressor_flag_roundtrip(spec):
    assert parse_compressor_flag(flag_text(spec)) == spec.to_dict()


class TestCompare:
    def test_ranking_table(self, tmp_path, capsys):
        a, _ = base_config(tmp_path, method="newton", max_iters=8, tag="nw")
        b, _ = base_config(tmp_path, method="nl1", max_iters=40, tag="n1",
                           compressor={"kind": "random_r", "r": 1})
        rc = main(["compare", str(a), str(b), "--outdir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank @gap<=" in out
        combined = list((tmp_path / "out").glob("compare_*.csv"))
        assert len(combined) == 1
        header = combined[0].read_text().splitlines()[0]
        assert header == "method,iter,bits_up_cum,gap"

    def test_single_config(self, tmp_path, capsys):
        a, _ = base_config(tmp_path, method="newton", max_iters=5)
        assert main(["compare", str(a), "--outdir", str(tmp_path / "out")]) == 0
        assert "newton" in capsys.readouterr().out

    def test_identical_configs_identical_rows(self, tmp_path, capsys):
        a, _ = base_config(tmp_path, method="newton", max_iters=5)
        assert main(["compare", str(a), str(a), "--outdir", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [ln for ln in lines if ln.startswith("newton")]
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_configs_sharing_a_trace_stem_write_nothing(self, tmp_path, capsys):
        # without tags, random_r(1) and random_r(4) runs write one trace file
        a, _ = base_config(tmp_path, method="nl1", max_iters=3,
                           compressor={"kind": "random_r", "r": 1})
        b = tmp_path / "r4.json"
        b.write_text(json.dumps({**json.loads(a.read_text()),
                                 "compressor": {"kind": "random_r", "r": 4}}))
        out = tmp_path / "out"
        rc = main(["compare", str(a), str(b), "--outdir", str(out)])
        assert rc == 2
        stem = ExperimentConfig.from_dict(json.loads(a.read_text())).stem()
        err = capsys.readouterr().err
        assert stem in err and "tag" in err
        assert not out.exists()          # no trace and no oracle cache

    def test_distinct_tags_write_both_traces(self, tmp_path, capsys):
        paths, stems = [], []
        for r in (1, 4):
            path, cfg = base_config(tmp_path, method="nl1", max_iters=3, tag=f"r{r}",
                                    compressor={"kind": "random_r", "r": r})
            paths.append(str(path))
            stems.append(ExperimentConfig.from_dict(cfg).stem())
        out = tmp_path / "out"
        assert main(["compare", *paths, "--outdir", str(out)]) == 0
        assert stems[0] != stems[1]
        for stem in stems:
            assert (out / f"{stem}.csv").exists() and (out / f"{stem}.json").exists()
        assert json.loads((out / f"{stems[1]}.json").read_text())["config"][
            "compressor"] == {"kind": "random_r", "r": 4}

    def test_unknown_config_key_exits_2_and_names_it(self, tmp_path, capsys):
        a, _ = base_config(tmp_path, method="newton", step_size=0.1)
        rc = main(["compare", str(a), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "step_size" in capsys.readouterr().err

    def test_invalid_later_config_writes_nothing(self, tmp_path, capsys):
        a, _ = base_config(tmp_path, method="newton", tag="a")
        b, _ = base_config(tmp_path, method="nl2", tag="b",
                           compressor={"kind": "random_r", "r": 0})
        out = tmp_path / "out"
        rc = main(["compare", str(a), str(b), "--outdir", str(out)])
        assert rc == 2
        assert "r >= 1" in capsys.readouterr().err
        assert not out.exists()          # neither a's trace nor an oracle cache

    @pytest.mark.parametrize("method, over, culprit", [
        ("nl1", {"h0": "bogus"}, "unknown config field"),
        ("nl2", {"gamma": 0.5}, "gamma"),     # not a config field
        ("nl2", {"compressor": {"kind": "random_r", "r": 99}}, "r=99"),
        ("dcgd", {"compressor": {"kind": "random_r", "r": 5}}, "r=5"),
        ("nl1", {"x0": [0.1, 0.2]}, "x0 has shape (2,)"),
        ("dcgd", {"x0": [0.0, float("nan"), 0.0, 0.0]}, "x0 has non-finite"),
        ("nl2", {"x0": ["a", 0.0, 0.0, 0.0]}, "x0"),
        ("nl2", {"stepsize": 7.0}, "stepsize"),  # a learner has no stepsize
        ("gd", {}, "compressor"),             # gd compresses nothing
        ("nl2", {"x0": [True, False, True, False]}, "x0 is not an array of numbers"),
        ("dcgd", {"x0": ["1.5", "2", "0", "0"]}, "x0 is not an array of numbers"),
        ("nl1", {"x0": [None, 0.0, 0.0, 0.0]}, "x0 is not an array of numbers"),
        ("nl2", {"x0": [True, 1.5, 0.0, 0.0]}, "x0 is not an array of numbers"),
        # a trace name past NAME_MAX, whose config file's name still fits
        ("nl2", {"tag": "b" * 230}, "longer than 255 bytes"),
    ])
    def test_later_config_out_of_range_writes_nothing(self, tmp_path, capsys,
                                                       method, over, culprit):
        a, _ = base_config(tmp_path, method="gd", tag="a")
        over = {"compressor": {"kind": "random_r", "r": 1}, "tag": "b", **over}
        b, _ = base_config(tmp_path, method=method, **over)
        out = tmp_path / "out"
        rc = main(["compare", str(a), str(b), "--outdir", str(out)])
        assert rc == 2
        assert culprit in capsys.readouterr().err
        assert not out.exists()          # neither a's trace nor an oracle cache

    @pytest.mark.parametrize("tag", ["a/b", "a\\b", "a\x00b"],
                             ids=["slash", "backslash", "nul"])
    def test_later_config_tag_no_file_can_hold_writes_nothing(self, tmp_path, capsys,
                                                               tag):
        a, _ = base_config(tmp_path, method="gd", tag="a")
        b, _ = base_config(tmp_path, method="newton")
        cfg = json.loads(b.read_text())
        b.write_text(json.dumps({**cfg, "tag": tag}))
        out = tmp_path / "out"
        rc = main(["compare", str(a), str(b), "--outdir", str(out)])
        assert rc == 2
        assert f"not {tag!r}" in capsys.readouterr().err
        assert not out.exists()          # neither a's trace nor an oracle cache

    def test_later_nl1_config_at_zero_lam_writes_nothing(self, tmp_path, capsys):
        a, _ = base_config(tmp_path, method="gd", tag="a", lam=0.0)
        b, _ = base_config(tmp_path, method="nl1", tag="b", lam=0.0,
                           compressor={"kind": "random_r", "r": 1})
        out = tmp_path / "out"
        rc = main(["compare", str(a), str(b), "--outdir", str(out)])
        assert rc == 2
        assert "requires lam > 0" in capsys.readouterr().err
        assert not out.exists()          # neither a's trace nor an oracle cache

    @pytest.mark.parametrize("method, r", [("nl2", 10), ("dcgd", 4)])
    def test_r_up_to_the_compressed_length_runs(self, tmp_path, method, r):
        # the learners compress m = 10 coefficients, dcgd the d = 4 gradient
        a, _ = base_config(tmp_path, method=method, max_iters=2,
                           compressor={"kind": "random_r", "r": r})
        assert main(["compare", str(a), "--outdir", str(tmp_path / "out")]) == 0

    def test_mismatched_problems_rejected(self, tmp_path, capsys):
        a, _ = base_config(tmp_path, method="newton", tag="a")
        b, _ = base_config(tmp_path, method="newton", lam=1e-5, tag="b")
        rc = main(["compare", str(a), str(b), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "identical dataset" in capsys.readouterr().err


class TestGenData:
    def test_writes_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "toy.libsvm.gz"
        rc = main(["gen-data", "--n", "3", "--m", "4", "--d", "5",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        ds = load_dataset(out)
        assert len(ds) == 12 and ds.d == 5

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.libsvm"
        rc = main(["gen-data", "--n", "2", "--m", "2", "--d", "3", "--seed", "-1",
                   "--out", str(out)])
        assert rc == 2
        assert "seed keys must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_width_the_parser_cannot_read_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("distnewton.data.MAX_FEATURES", 4)
        out = tmp_path / "wide.libsvm"
        rc = main(["gen-data", "--n", "1", "--m", "2", "--d", "5", "--seed", "1",
                   "--out", str(out)])
        assert rc == 2
        assert "d 5 exceeds the maximum width 4" in capsys.readouterr().err
        assert not out.exists()


class TestCompressorFlag:
    def test_parse_variants(self):
        assert parse_compressor_flag("identity") == {"kind": "identity"}
        assert parse_compressor_flag("random_r:3") == {"kind": "random_r", "r": 3}
        assert parse_compressor_flag("natural") == {"kind": "natural"}
        d = parse_compressor_flag("dithering:11")
        assert d["kind"] == "dithering" and d["s"] == 11
        b = parse_compressor_flag("bernoulli:0.05:random_r:1")
        assert b["kind"] == "bernoulli" and b["p"] == 0.05
        assert b["inner"] == {"kind": "random_r", "r": 1}

    @pytest.mark.parametrize("flag, missing", [("random_r", "r"),
                                               ("bernoulli", "p"),
                                               ("bernoulli:0.5:random_r", "r")])
    def test_missing_argument_exits_2_and_names_it(self, tmp_path, capsys,
                                                   flag, missing):
        cfg_path, _ = base_config(tmp_path)
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path),
                   "--method", "nl2", "--compressor", flag])
        assert rc == 2
        assert f"missing {flag.split(':')[-1]}'s {missing}" in capsys.readouterr().err

    # the flag named is the one whose kind does not read the field: a
    # bernoulli's inner flag for a field after it
    @pytest.mark.parametrize("flag, named", [
        ("random_r:1:7", "random_r:1:7"), ("natural:3", "natural:3"),
        ("identity:x", "identity:x"), ("dithering:3:2.0:1", "dithering:3:2.0:1"),
        ("bernoulli:0.5:random_r:1:7", "random_r:1:7"),
        ("dithering:3:2.0", "dithering:3:2.0")])     # dithering reads no q
    def test_unread_field_exits_2_and_names_the_flag(self, tmp_path, capsys,
                                                     flag, named):
        cfg_path, _ = base_config(tmp_path)
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path),
                   "--method", "nl2", "--compressor", flag])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"compressor flag {named!r} has field(s)" in err

    def test_non_numeric_argument_exits_2(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path)
        rc = main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path),
                   "--method", "nl2", "--compressor", "random_r:one"])
        assert rc == 2
        assert "'one'" in capsys.readouterr().err

    def test_env_var_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DISTNEWTON_OUT", str(tmp_path / "envroot"))
        cfg_path, cfg = base_config(tmp_path, max_iters=1)
        assert main(["run", "--config", str(cfg_path)]) == 0
        stem = ExperimentConfig.from_dict(cfg).stem()
        assert (tmp_path / "envroot" / f"{stem}.csv").exists()


COMPRESSORS = {"dcgd": {"kind": "random_r", "r": 2},
               "diana": {"kind": "dithering", "s": 3},
               "nl1": {"kind": "random_r", "r": 1},
               "nl2": {"kind": "natural"},
               "cnl": {"kind": "bernoulli", "p": 0.5,
                       "inner": {"kind": "random_r", "r": 1}}}


class TestCompareSharesTheProblem:
    """compare builds one problem and one set of oracles for all its configs."""

    @pytest.fixture
    def configs(self, tmp_path):
        data = tmp_path / "toy.libsvm.gz"
        save_dataset(synth_artificial(3, 8, 5, seed=2, mean=0.0, variance=1.0), data)
        assert set(COMPRESSORS) == set(COMPRESSED_METHODS)
        paths = []
        for method in METHOD_NAMES:
            cfg = {"method": method, "seed": 11, "lam": 1e-2, "n": 3,
                   "shuffle_seed": 4, "dataset_path": str(data), "max_iters": 6,
                   "compressor": COMPRESSORS.get(method)}
            path = tmp_path / f"{method}.json"
            path.write_text(json.dumps(cfg))
            paths.append(str(path))
        return paths

    def test_traces_equal_runs_on_a_fresh_problem(self, tmp_path, configs):
        out, alone = tmp_path / "out", tmp_path / "alone"
        assert main(["compare", *configs, "--outdir", str(out)]) == 0
        for path in configs:
            cfg = ExperimentConfig.from_dict(json.loads(Path(path).read_text()))
            cli.execute_config(cfg, out).write(alone, cfg.stem())
            for suffix in (".csv", ".json"):
                name = cfg.stem() + suffix
                assert (out / name).read_bytes() == (alone / name).read_bytes(), name

    def test_one_parse_per_compare(self, tmp_path, configs, monkeypatch):
        loads = []
        load = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset",
                            lambda *a, **kw: loads.append(1) or load(*a, **kw))
        for calls in (1, 2):
            assert main(["compare", *configs, "--outdir", str(tmp_path)]) == 0
            assert len(loads) == calls
