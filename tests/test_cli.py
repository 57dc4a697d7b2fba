import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np

from rumour import clt, simulate
from rumour.cli import main
from rumour.model import ModelParams, preset_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_csv(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0, err
    return list(csv.DictReader(io.StringIO(out)))


# theta1 = theta2 = 0: theta = -gamma is within THETA_SNAP of 0 for gamma
# <= 1e-12, but ModelParams refuses it, since no move leaves X = 0, Y = N + 1
ZERO_THETA = ("--lambda", "1", "--theta1", "0", "--theta2", "0")


class TestLimit:
    def test_rho_zero(self, capsys):
        obj = run_json(capsys, "limit", "--preset", "rho", "--rho", "0")
        assert abs(obj["x_inf"] - 0.203188) <= 1e-5
        assert obj["u_inf"] == 0.0
        assert obj["method"] == "bisection"
        assert obj["preset"] == {"preset": "rho", "rho": 0.0}

    def test_explicit_theta_half(self, capsys):
        obj = run_json(capsys, "limit", "--lambda", "1", "--gamma", "1",
                       "--theta1", "1.5", "--theta2", "0", "--delta", "1")
        assert abs(obj["x_inf"] - 0.25) <= 1e-12

    def test_invalid_theta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--lambda", "1", "--gamma", "1",
                               "--theta1", "0", "--theta2", "0", "--delta", "1")
        assert code == 2
        assert "theta" in err
        code, _, err = run_cli(capsys, "limit", "--lambda", "1", "--gamma", "nan",
                               "--theta1", "1", "--theta2", "0", "--delta", "1")
        assert code == 2
        assert "gamma must be finite" in err

    def test_small_root_to_relative_accuracy(self, capsys):
        # theta = 0, gamma = 0.01, delta = 1; closed form x_inf = 1.37e-44
        closed = 1.368539471173853e-44
        obj = run_json(capsys, "limit", "--lambda", "1", "--gamma", "0.01",
                       "--theta1", "0.01", "--theta2", "0", "--delta", "1")
        assert abs(obj["x_inf"] - closed) <= 1e-10 * closed

    def test_underflowing_root_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "limit", "--lambda", "1", "--gamma", "1e-4",
                                 "--theta1", "1e-4", "--theta2", "0", "--delta", "1")
        assert code == 2 and out == ""
        assert "underflows" in err

    def test_requires_complete_parameters(self, capsys):
        for argv, msg in ((("--lambda", "1"), "--gamma"),
                          ((), "either --preset or the five"),
                          (("--preset", "rho"), "needs --rho")):
            code, _, err = run_cli(capsys, "limit", *argv)
            assert code == 2, argv
            assert msg in err

    def test_preset_conflicts_with_explicit(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--preset", "dk", "--delta", "0.5")
        assert code == 2
        assert "--delta" in err


class TestClt:
    def test_hayes_sigma(self, capsys):
        obj = run_json(capsys, "clt", "--preset", "hayes")
        assert abs(obj["sigma"][0][0] - 0.427204) <= 1e-5
        assert obj["v_inf"] == obj["sigma"][0][0]  # delta = 1 scalar view
        assert obj["kappa"] == 2.0

    def test_basic_dk_equals_rho_one(self, capsys):
        a = run_json(capsys, "clt", "--preset", "apq_dk",
                     "--alpha", "1", "--p", "1", "--q", "1")
        b = run_json(capsys, "clt", "--preset", "rho", "--rho", "1")
        assert a["sigma"] == b["sigma"]
        assert a["x_inf"] == b["x_inf"]

    def test_cross_check(self, capsys):
        obj = run_json(capsys, "clt", "--preset", "mt", "--cross-check")
        assert obj["cross_check"]["max_abs_deviation"] <= 1e-6

    def test_no_stderr_next_to_half(self):
        # one formula for D at every theta: nothing to warn about next to 1/2
        run = fresh_python("-m", "rumour.cli", "clt", "--lambda", "1", "--gamma", "1",
                           "--theta1", "1.49999", "--theta2", "0", "--delta", "0.6")
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout)["D"] > 0.0

    def test_t_inf_reported(self, capsys):
        obj = run_json(capsys, "clt", "--preset", "rho", "--rho", "0")
        assert abs(obj["t_inf"] - 1.5936242600400399) <= 1e-9

    DK_BUT_LAMBDA = ("--gamma", "1", "--theta1", "1", "--theta2", "0", "--delta", "1")

    def test_overflowing_t_inf_exits_2(self, capsys):
        # -log(x_inf) / lambda is past the float range: one message, no
        # output, and no numpy warning on the way (the tests make it an error)
        for argv in (["clt"], ["clt", "--cross-check"], ["fluid"],
                     ["fluid", "--t-max", "1", "--points", "2"]):
            code, out, err = run_cli(capsys, *argv, "--lambda", "1e-310", *self.DK_BUT_LAMBDA)
            assert (code, out) == (2, ""), argv
            assert err == ("error: t_inf = -log(x_inf)/lambda overflows at "
                           "lambda = 1e-310\n"), argv

    def test_t_inf_near_the_float_range(self, capsys):
        # lambda = 1e-300 leaves t_inf = 1.59e300 finite, and fluid ends there
        argv = ("--lambda", "1e-300", *self.DK_BUT_LAMBDA)
        obj = run_json(capsys, "clt", *argv, "--cross-check")
        assert obj["t_inf"] == -math.log(obj["x_inf"]) / 1e-300
        assert math.isclose(obj["t_inf"], 1.5936242600400399e300, rel_tol=1e-9)
        assert obj["cross_check"]["max_abs_deviation"] <= 1e-6
        pts = run_json(capsys, "fluid", *argv, "--points", "3")
        assert pts["t_inf"] == obj["t_inf"] == pts["points"][-1]["t"]


class TestFluid:
    def test_json_endpoints(self, capsys):
        obj = run_json(capsys, "fluid", "--preset", "mt", "--points", "11")
        pts = obj["points"]
        assert len(pts) == 11
        assert pts[0] == {"t": 0.0, "x": 1.0, "u": 0.0, "y": pts[0]["y"]}
        assert abs(pts[0]["y"]) <= 1e-14
        assert abs(pts[-1]["y"]) <= 1e-10
        assert abs(pts[-1]["t"] - obj["t_inf"]) <= 1e-15

    def test_201_points_round_trip(self, capsys):
        params = ModelParams(lam=1.3, gamma=0.7, theta1=0.4, theta2=0.55, delta=0.6)
        argv = ["fluid", "--points", "201", "--lambda", "1.3", "--gamma", "0.7",
                "--theta1", "0.4", "--theta2", "0.55", "--delta", "0.6"]
        obj = run_json(capsys, *argv)
        want = clt.fluid_trajectory(np.linspace(0.0, obj["t_inf"], 201), params)
        assert obj["points"] == want
        # every CSV value reads back as the float in the JSON row, same keys
        rows = run_csv(capsys, *argv)
        assert [{k: float(v) for k, v in r.items()} for r in rows] == obj["points"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "fluid", "--preset", "mt",
                               "--points", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,u,y"
        assert len(lines) == 6
        assert lines[1].startswith("0,1,0,")

    # the explicit interior point (theta = 0.24) of tests/test_golden.py
    EXPLICIT = ("--lambda", "0.7", "--gamma", "0.8", "--theta1", "0.832", "--theta2", "0.208",
                "--delta", "0.6")

    def test_bad_t_max_exits_2(self, capsys):
        t_inf = run_json(capsys, "fluid", "--points", "2", *self.EXPLICIT)["t_inf"]
        cases = [("--preset", "dk", t) for t in ("-1", "nan", "inf", "800")]
        # past t_inf y turns negative: at theta = 1, and 1 % past an
        # interior point's t_inf
        cases += [("--preset", "hayes", "800"), (*self.EXPLICIT, repr(1.01 * t_inf))]
        for *model, t_max in cases:
            code, out, err = run_cli(capsys, "fluid", *model, "--t-max", t_max)
            assert code == 2, (model, t_max)
            assert out == ""
            assert "--t-max" in err

    def test_t_max_at_t_inf(self, capsys):
        # dk is theta = 0, where x = exp(-lambda t) must stay above 0
        for preset in ("dk", "hayes"):
            t_inf = run_json(capsys, "fluid", "--preset", preset, "--points", "2")["t_inf"]
            pts = run_json(capsys, "fluid", "--preset", preset, "--points", "5",
                           "--t-max", repr(t_inf))["points"]
            assert pts[-1]["t"] == t_inf
            assert abs(pts[-1]["y"]) <= 1e-10


class TestSimulate:
    def test_summary_and_dump(self, capsys, tmp_path):
        dump = tmp_path / "reps.csv"
        obj = run_json(capsys, "simulate", "--preset", "dk", "--n", "50",
                       "--reps", "200", "--seed", "9", "--dump", str(dump))
        assert obj["stats"]["reps"] == 200
        assert obj["mean_u"] == 0.0
        rows = dump.read_text().strip().split("\n")
        assert rows[0] == "rep,x_final,u_final,z_final,absorption_time"
        assert len(rows) == 201
        assert rows[1].split(",")[0] == "0"
        assert rows[1].endswith(",")  # no absorption time in jump-chain mode

    def test_exact_time_mean_absorption(self, capsys):
        obj = run_json(capsys, "simulate", "--preset", "mt", "--n", "50",
                       "--reps", "100", "--seed", "9", "--mode", "exact-time")
        assert obj["mean_absorption_time"] > 0.0

    def test_missing_n_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--preset", "dk")
        assert code == 2
        assert "--n" in err


class TestVerify:
    def test_pass_and_determinism_across_workers(self, capsys):
        # mt: the early-extinction atom needs two rare stifles, so the
        # sample covariance is clean at these scales for any seed
        outs = []
        for w in ("1", "4", "16"):
            code, out, err = run_cli(
                capsys, "verify", "--preset", "mt",
                "--n", "1000", "--reps", "2000", "--seed", "42", "--workers", w,
            )
            assert code == 0, err
            outs.append(out.encode())
        assert outs[0] == outs[1] == outs[2]
        obj = json.loads(outs[0])
        assert obj["pass"] is True
        assert obj["checks"]["s11"]["ok"] is True

    def test_statistical_failure_exits_1(self, capsys):
        # at N = 20 the finite-size bias dwarfs the 4-standard-error band,
        # so the report fails deterministically
        code, out, _ = run_cli(
            capsys, "verify", "--preset", "apq_dk", "--alpha", "0.5", "--p", "0.5",
            "--q", "0.5", "--n", "20", "--reps", "500", "--seed", "1",
        )
        obj = json.loads(out)
        assert obj["pass"] is False
        assert code == 1

    def test_exact_time_reads_only_the_selection_stream(self, capsys, monkeypatch):
        # Both modes walk the same final states, so exact-time verify draws
        # no holding times (stream 1) and prints the jump-chain run's bytes
        # but for the mode it echoes.  1100 replications at N = 200 make
        # two chunks.
        philox_rows = simulate._philox_rows
        streams = []

        def recorded(master_seed, chunk_index, stream, *rest):
            streams.append(stream)
            return philox_rows(master_seed, chunk_index, stream, *rest)

        monkeypatch.setattr(simulate, "_philox_rows", recorded)
        runs = {}
        for mode in ("jump-chain", "exact-time"):
            streams.clear()
            runs[mode] = run_cli(capsys, "verify", "--preset", "mt", "--n", "200",
                                 "--reps", "1100", "--seed", "5", "--mode", mode)
            assert streams == [0, 0], mode
        (code_j, out_j, err_j), (code_e, out_e, err_e) = runs.values()
        assert (code_e, err_e) == (code_j, err_j)
        lines_j, lines_e = out_j.splitlines(), out_e.splitlines()
        assert len(lines_e) == len(lines_j)
        changed = [(a, b) for a, b in zip(lines_j, lines_e) if a != b]
        assert changed == [('  "mode": "jump-chain",', '  "mode": "exact-time",')]

    def test_too_few_reps_exits_2_before_simulating(self, capsys):
        # N = 10^6 would take minutes to simulate: the check comes first
        for reps in ("0", "1"):
            code, out, err = run_cli(capsys, "verify", "--preset", "dk", "--n", "1000000",
                                     "--reps", reps)
            assert code == 2
            assert out == ""
            assert "--reps" in err

    def test_negative_seed_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--preset", "mt", "--n", "100",
                               "--seed", "-5")
        assert code == 2
        assert "--seed" in err


class TestOracleAndPresets:
    def test_oracle_n1_dk(self, capsys):
        obj = run_json(capsys, "oracle", "--preset", "dk", "--n", "1")
        assert obj["support"] == [{"x": 0, "u": 0, "p": 1.0}]
        assert obj["total_mass"] == 1.0

    def test_oracle_csv(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--preset", "mt", "--n", "2",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "x,u,p"
        assert out.splitlines()[1] == "0,0,0.75"

    def test_oracle_n60_round_trips(self, capsys):
        # the largest n, where the support is one long table: every p reads
        # back as the double in probs, in np.nonzero order
        n = 60
        argv = ["oracle", "--n", str(n), "--preset", "apq_dk", "--alpha", "0.8", "--p", "0.7",
                "--q", "0.5"]
        obj = run_json(capsys, *argv)
        sup = obj["support"]
        probs = simulate.exact_final_distribution(n, preset_params(
            "apq_dk", alpha=0.8, p=0.7, q=0.5))
        xs, us = np.nonzero(probs)
        assert [(r["x"], r["u"]) for r in sup] == list(zip(xs.tolist(), us.tolist()))
        assert [r["p"] for r in sup] == probs[xs, us].tolist()
        assert all(type(r["x"]) is int and type(r["p"]) is float for r in sup)
        # the CSV rows are the support, ints read by int() and p by float()
        rows = run_csv(capsys, *argv)
        assert [{"x": int(r["x"]), "u": int(r["u"]), "p": float(r["p"])} for r in rows] == sup
        # the mass and the means follow from the printed support
        for key, moment in (("total_mass", lambda r: r["p"]),
                            ("mean_x", lambda r: r["x"] * r["p"] / n),
                            ("mean_u", lambda r: r["u"] * r["p"] / n)):
            assert math.isclose(obj[key], math.fsum(map(moment, sup)), rel_tol=1e-12), key

    def test_oracle_at_least_positive_theta_sum(self, capsys):
        # the least theta1 + theta2 > 0 still moves every state with y >= 1
        obj = run_json(capsys, "oracle", "--n", "4", "--lambda", "1", "--theta1", "5e-324",
                       "--theta2", "0", "--gamma", "1e-13", "--delta", "0.7")
        assert abs(obj["total_mass"] - 1.0) <= 1e-12

    def test_oracle_too_large_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--preset", "dk", "--n", "100")
        assert code == 2
        assert "60" in err

    def test_oracle_n_below_one_exits_2(self, capsys):
        for n in ("0", "-2"):
            code, _, err = run_cli(capsys, "oracle", "--preset", "dk", "--n", n)
            assert code == 2
            assert "--n" in err

    def test_presets_listing(self, capsys):
        obj = run_json(capsys, "presets")
        names = [e["name"] for e in obj["presets"]]
        assert names == sorted(names)
        assert set(names) == {"dk", "mt", "hayes", "rho", "apq_dk", "apq_mt",
                              "pearce", "kawachi"}
        by_name = {e["name"]: e for e in obj["presets"]}
        assert by_name["dk"]["params"]["theta1"] == 1.0
        assert by_name["apq_dk"]["aux"] == ["alpha", "p", "q"]


class TestConfigAndOutput:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "rho", "rho": 0.0, "n": 100,
                                   "reps": 50, "seed": 5}))
        obj = run_json(capsys, "simulate", "--config", str(cfg))
        assert obj["stats"]["reps"] == 50
        obj = run_json(capsys, "simulate", "--config", str(cfg), "--reps", "20")
        assert obj["stats"]["reps"] == 20

    def test_config_explicit_params(self, capsys, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"lambda": 1, "gamma": 1, "theta1": 1.5,
                                   "theta2": 0, "delta": 1}))
        obj = run_json(capsys, "limit", "--config", str(cfg))
        assert abs(obj["x_inf"] - 0.25) <= 1e-12

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cases = [
            ("limit", "[1, 2]", "expected a JSON object"),
            ("limit", '{"preset": "nope"}', "--preset 'nope' unknown"),
            ("limit", "{not json", "Expecting property name"),
            ("simulate", '{"preset": "dk", "n": 5, "mode": "bogus"}', "--mode must be one of"),
        ]
        for cmd, text, msg in cases:
            cfg.write_text(text)
            code, _, err = run_cli(capsys, cmd, "--config", str(cfg))
            assert code == 2, text
            assert msg in err, text
        code, _, err = run_cli(capsys, "limit", "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert "No such file" in err

    def test_non_numeric_config_value_exits_2(self, capsys, tmp_path):
        cases = [
            ("simulate", {"preset": "dk", "n": "abc"}, "--n"),
            ("limit", {"preset": "rho", "rho": "zz"}, "--rho"),
            ("limit", {"lambda": "x", "gamma": 1, "theta1": 1, "theta2": 0, "delta": 1},
             "--lambda"),
            ("oracle", {"preset": "dk", "n": [3]}, "--n"),
            # a JSON boolean is not a number, though Python takes it as one
            ("simulate", {"preset": "dk", "n": True, "reps": 3}, "--n"),
            ("simulate", {"preset": "dk", "n": 5, "reps": 3, "seed": True}, "--seed"),
            ("limit", {"preset": "rho", "rho": False}, "--rho"),
        ]
        for cmd, body, key in cases:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(body))
            code, _, err = run_cli(capsys, cmd, "--config", str(cfg))
            assert code == 2, (cmd, body)
            assert key in err

    def test_fractional_integer_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "frac.json"
        cfg.write_text(json.dumps({"preset": "dk", "n": 2.7, "reps": 5}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "--n" in err and "2.7" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        # a key the command does not read is a usage error naming the key,
        # not a silent fall-back to the default
        cases = [
            ("simulate", {"preset": "dk", "n": 10, "rpes": 5}, "'rpes'"),
            ("simulate", {"preset": "dk", "n": 10, "reps": 5, "workers": 2}, "'workers'"),
            ("verify", {"preset": "dk", "n": 10, "reps": 5, "sed": 3}, "'sed'"),
            ("limit", {"preset": "dk", "n": 10}, "'n'"),
            ("oracle", {"preset": "dk", "n": 3, "rho": 0.3}, "'rho'"),
            ("clt", {"lambda": 1, "gamma": 1, "theta1": 1, "theta2": 0, "delta": 1,
                     "alpha": 0.5}, "'alpha'"),
        ]
        for cmd, body, key in cases:
            cfg = tmp_path / "unknown.json"
            cfg.write_text(json.dumps(body))
            code, out, err = run_cli(capsys, cmd, "--config", str(cfg))
            assert (code, out) == (2, ""), (cmd, body)
            assert key in err and cmd in err, err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "limit", "--preset", "dk",
                               "--output", str(path))
        assert code == 0
        assert out == ""
        obj = json.loads(path.read_text())
        assert abs(obj["x_inf"] - 0.203188) <= 1e-5

    def test_identical_invocations_byte_identical(self, capsys):
        argv = ("clt", "--preset", "apq_dk", "--alpha", "0.8", "--p", "0.7",
                "--q", "0.6", "--cross-check")
        _, a, _ = run_cli(capsys, *argv)
        _, b, _ = run_cli(capsys, *argv)
        assert a.encode() == b.encode()

    def test_unwritable_output_exits_2(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        # both files are opened before any simulation starts
        monkeypatch.setattr(simulate, "iter_final_states", refuse)
        missing = tmp_path / "no-such-dir"
        sim = ["simulate", "--preset", "dk", "--n", "10", "--reps", "5"]
        cases = [
            (["limit", "--preset", "dk", "--output", str(missing / "x.json")], "--output"),
            (sim + ["--output", str(missing / "x.json")], "--output"),
            (sim + ["--dump", str(missing / "d.csv")], "--dump"),
        ]
        for argv, flag in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert flag in err and str(missing) in err

    def test_dump_to_the_output_file_exits_2(self, capsys, tmp_path, monkeypatch):
        # the summary would overwrite the dump; refused before any
        # simulation, under either spelling of the path, and a created
        # --output file is removed while an existing one keeps its bytes
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(simulate, "iter_final_states", refuse)
        monkeypatch.chdir(tmp_path)
        sim = ["simulate", "--preset", "dk", "--n", "3", "--reps", "2"]
        old = tmp_path / "old.csv"
        old.write_bytes(b"keep me\n")
        for output, dump in (("new.csv", "new.csv"), ("new.csv", str(tmp_path / "new.csv")),
                             ("old.csv", "old.csv"), ("old.csv", "./old.csv")):
            code, out, err = run_cli(capsys, *sim, "--output", output, "--dump", dump)
            assert (code, out) == (2, ""), (output, dump)
            assert err == f"error: --dump {dump}: the same file as --output {output}\n"
            assert not (tmp_path / "new.csv").exists()
            assert old.read_bytes() == b"keep me\n"

    def test_zero_theta_sum_exits_2(self, capsys, tmp_path, monkeypatch):
        # ModelParams refuses theta1 = theta2 = 0 before any command runs:
        # nothing on stdout, no file created and an existing one's bytes kept
        monkeypatch.chdir(tmp_path)
        old = tmp_path / "old.json"
        old.write_bytes(b"keep me\n")
        for gamma, delta in itertools.product(("1e-13", "1e-12"), ("1", "0.7")):
            model = [*ZERO_THETA, "--gamma", gamma, "--delta", delta]
            sim = [*model, "--n", "4", "--reps", "20"]
            base = [["limit", *model], ["clt", *model], ["clt", *model, "--cross-check"],
                    ["fluid", *model], ["oracle", *model, "--n", "4"]]
            base += [[cmd, *sim, *mode] for cmd in ("simulate", "verify")
                     for mode in ([], ["--mode", "exact-time"])]
            argvs = [[*argv, *out] for argv in base
                     for out in ([], ["--output", "o.json"], ["--output", "old.json"])]
            argvs += [["simulate", *sim, "--dump", "d.csv"],
                      ["simulate", *sim, "--output", "o.json", "--dump", "d.csv"],
                      ["simulate", *sim, "--output", "old.json", "--dump", "old.json"]]
            for argv in argvs:
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert err == "error: theta1 + theta2 > 0 violated (theta1 + theta2 = 0.0)\n", argv
                assert os.listdir(tmp_path) == ["old.json"], argv
                assert old.read_bytes() == b"keep me\n"

    def test_failed_command_leaves_output_untouched(self, capsys, tmp_path):
        new = tmp_path / "new.json"
        old = tmp_path / "old.json"
        old.write_bytes(b"keep me\n" * 1000)
        for path in (new, old):
            code, _, err = run_cli(capsys, "fluid", "--preset", "dk", "--points", "1",
                                   "--output", str(path))
            assert code == 2 and "--points" in err
        assert not new.exists()
        assert old.read_bytes() == b"keep me\n" * 1000
        code, _, _ = run_cli(capsys, "limit", "--preset", "dk", "--output", str(old))
        assert code == 0
        assert json.loads(old.read_text())["x_inf"] > 0.2

    def test_output_to_device(self, capsys):
        # a device cannot be truncated; the text is written all the same
        code, out, err = run_cli(capsys, "limit", "--preset", "dk", "--output", os.devnull)
        assert (code, out, err) == (0, "", "")


class TestUnreadValues:
    # a flag or --config key the command does not read is refused the
    # same way whichever route gave it, not dropped in silence
    EXPLICIT = ["--lambda", "1", "--gamma", "1", "--theta1", "1.5", "--theta2", "0",
                "--delta", "1"]

    def test_unread_flag_exits_2(self, capsys):
        cases = [
            (["limit", "--preset", "dk", "--rho", "0.5"], "--rho"),
            (["limit"] + self.EXPLICIT + ["--alpha", "0.3"], "--alpha"),
            (["clt", "--preset", "rho", "--rho", "0.5", "--q", "0.5"], "--q"),
        ]
        for argv, flag in cases:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert flag in err, err

    def test_unread_flag_exits_before_simulating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(simulate, "iter_final_states", refuse)
        code, out, err = run_cli(capsys, "verify", "--preset", "dk", "--q", "0.5",
                                 "--n", "1000000", "--reps", "2")
        assert (code, out) == (2, "")
        assert "--q" in err

    def test_unread_flag_and_config_key_named_together(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "dk", "n": 10, "reps": 5, "rpes": 5}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--alpha", "0.5")
        assert (code, out) == (2, "")
        assert "--alpha" in err and "'rpes'" in err and str(cfg) in err, err


def fresh_python(*args):
    """Run a fresh interpreter that imports rumour from this checkout."""
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


NO_SCIPY_RUN = """
import contextlib, io, json, sys
import rumour.cli

def scipy_modules():
    return [m for m in sys.modules if m.split('.')[0] == 'scipy']

before = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [rumour.cli.main(['clt', '--cross-check', '--preset', 'dk']),
             rumour.cli.main(['verify', '--preset', 'dk', '--n', '50', '--reps', '20'])]
print(json.dumps([before, codes, '"cross_check"' in out.getvalue(), scipy_modules()]))
"""


def test_import_loads_no_scipy():
    # scipy is a test dependency only: importing the CLI, integrating the
    # ODE of clt --cross-check and a small verify load none of it
    run = fresh_python("-c", NO_SCIPY_RUN)
    assert run.returncode == 0, run.stderr
    before, codes, crossed, after = json.loads(run.stdout)
    assert (before, after) == ([], [])
    assert codes[0] == 0 and codes[1] in (0, 1) and crossed


def test_few_rows_exact_time_write_no_stderr():
    # Six rows walk the kernel's windows of many jumps, and rows absorb in
    # the middle of one; the states after a row's absorption are junk, and
    # dividing by their weights would print a RuntimeWarning
    run = fresh_python("-m", "rumour.cli", "simulate", "--n", "2000", "--reps", "6",
                       "--seed", "4", "--mode", "exact-time", "--lambda", "0.7", "--gamma",
                       "0.8", "--theta1", "0.832", "--theta2", "0.208", "--delta", "0.6")
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["stats"]["reps"] == 6


def test_parser_built_once_keeps_no_state(capsys, tmp_path):
    # main parses with one parser per process; calls that differ in their
    # flags, one after another, must each print what the same argv prints
    # in a fresh process, and write a dump only when asked to
    dump = tmp_path / "finals.csv"
    sim = ["simulate", "--preset", "dk", "--n", "20", "--reps", "30", "--seed", "5"]
    oracle = ["oracle", "--preset", "mt", "--n", "6"]
    calls = [sim + ["--dump", str(dump)], sim, oracle + ["--format", "csv"], oracle,
             oracle + ["--format", "xml"], oracle]
    codes = []
    for argv in calls:
        dump.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
        captured = capsys.readouterr()
        assert dump.exists() == ("--dump" in argv), argv
        fresh = fresh_python("-m", "rumour.cli", *argv)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 0]
