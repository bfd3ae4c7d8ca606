import dataclasses
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import sidelab
from sidelab import cli
from sidelab.cli import RunConfig, dump_config, emit_plot_data, load_config, main, run
from sidelab.errors import ConfigError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SCALAR_ANALYZE = """
[system]
kind = scalar
lambda = -4
mu = 1

[task]
name = analyze

[numeric]
dt_bar = {dt_bar}

[output]
dir = {out}
"""

LINEAR = """
[system]
kind = linear
f = {f}
{noise}

[task]
name = {task}

[output]
dir = {out}
"""

STABLE = {"f": "-1 0.5 ; 0.2 -2", "noise": "g1 = 0.3 0.1 ; 0 0.2"}

#: [system] blocks of the memory cap tests
SCALAR_SYSTEM = "kind = scalar\nlambda = -1\nmu = 0.5"
CONTROLLER_SYSTEM = "kind = controller\na = 1\nkp = 2"
CAP_SYSTEMS = {
    "cps-demo": CONTROLLER_SYSTEM,
    "analyze": f"kind = linear\nf = {STABLE['f']}\n{STABLE['noise']}",
    "max-stepsize": f"kind = linear\nf = {STABLE['f']}\n{STABLE['noise']}",
}


def diagonal_system(n: int) -> str:
    """A linear system with drift -I of dimension n and no noise."""
    rows = (" ".join("-1" if j == i else "0" for j in range(n)) for i in range(n))
    return "kind = linear\nf = " + " ; ".join(rows)


def run_cli(cfg):
    """Run the CLI in a fresh interpreter; returns the finished process."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from sidelab.cli import main; sys.exit(main())",
         "--config", cfg],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(sidelab.__file__).parents[1])},
    )


SIMULATE = """
[system]
kind = scalar
lambda = -1
mu = 0.5

[task]
name = simulate

[numeric]
x0 = 1.0
dt = 0.5
t = 2.0
seed = {seed}
substeps = 4

[output]
dir = {out}
"""


class TestConfigParsing:
    def test_missing_key_names_it(self, tmp_path):
        cfg = write(
            tmp_path,
            "bad.ini",
            "[system]\nkind = scalar\nlambda = -1\n\n[task]\nname = simulate\n\n[numeric]\nt = 1.0\n",
        )
        with pytest.raises(ConfigError, match="'dt'"):
            load_config(cfg)

    def test_malformed_file(self, tmp_path):
        cfg = write(tmp_path, "bad.ini", "not an ini at all\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_unknown_task(self, tmp_path):
        cfg = write(tmp_path, "bad.ini", "[system]\nkind = scalar\nlambda = -1\n\n[task]\nname = dance\n")
        with pytest.raises(ConfigError, match="dance"):
            load_config(cfg)

    def test_matrix_rows(self, tmp_path):
        cfg = write(
            tmp_path,
            "lin.ini",
            "[system]\nkind = linear\nf = -1 0 ; 0 -2\ng1 = 0.5 0 ; 0 0.5\n\n[task]\nname = analyze\n",
        )
        parsed = load_config(cfg)
        sde = parsed.system()
        assert np.allclose(sde.drift_matrix, [[-1.0, 0.0], [0.0, -2.0]])
        assert sde.noise_dim == 1

    def test_ragged_matrix_rejected(self, tmp_path):
        cfg = write(
            tmp_path,
            "lin.ini",
            "[system]\nkind = linear\nf = -1 0 ; 0\n\n[task]\nname = analyze\n",
        )
        with pytest.raises(ConfigError, match="'f'"):
            load_config(cfg)

    def test_round_trip(self, tmp_path):
        cfg_path = write(tmp_path, "sim.ini", SIMULATE.format(seed=3, out=tmp_path / "o"))
        cfg = load_config(cfg_path)
        dumped = tmp_path / "dumped.ini"
        dump_config(cfg, dumped)
        assert load_config(dumped) == cfg

    # every [numeric] and [output] key set to a value other than its default
    NUMERIC = dict(x0=(0.5, -2.0), dt=0.25, dt_bar=0.125, horizon=3.0, p=3.0, trajectories=17,
                   seed=9, substeps=4, levels=3, driving="brownian", outdir="elsewhere")

    @pytest.mark.parametrize("system", [
        dict(kind="scalar", lam=-1.5),
        dict(kind="linear", drift=((-1.0, 0.5), (0.25, -2.0)),
             noises=(((0.3, 0.1), (0.0, 0.2)), ((0.1, 0.0), (-0.4, 0.2)))),
        dict(kind="controller", a=1.0, kp=2.0),
    ])
    def test_dump_load_round_trip_per_kind(self, tmp_path, system):
        cfg = RunConfig(task="simulate", **system, **self.NUMERIC)
        dump_config(cfg, tmp_path / "c.ini")
        assert load_config(tmp_path / "c.ini") == cfg

    def test_every_field_has_one_key(self):
        # g1, g2, ... of a linear system fill `noises`; every other field is one table key
        fields = [spec[0] for keys in cli._SYSTEM.values() for spec in keys.values()]
        fields += [spec[0] for keys in cli._NUMERIC.values() for spec in keys.values()]
        assert sorted(fields + ["noises"]) == sorted(
            f.name for f in dataclasses.fields(RunConfig) if f.name not in ("task", "kind")
        )

    @pytest.mark.parametrize("system, key", [
        # mu = 3 would make the system mean-square unstable: 2 lambda + mu^2 = 7
        ("kind = scalar\nlambda = -1\nmue = 3\n", "mue"),
        ("kind = controller\na = 1\nkp = 2\nlambda = -1\n", "lambda"),
        # g3 without g2 is past the first gap of g1, g2, ...
        ("kind = linear\nf = -1\ng1 = 0.5\ng3 = 0.5\n", "g3"),
    ])
    def test_unread_system_key_is_two(self, tmp_path, capsys, system, key):
        cfg = write(tmp_path, "s.ini", f"[system]\n{system}\n[task]\nname = analyze\n")
        assert main(["--config", cfg]) == 2
        assert f"unknown key '{key}' in [system]" in capsys.readouterr().err

    def test_unread_task_key_is_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", "[system]\nkind = scalar\nlambda = -1\n\n[task]\nname = analyze\ndt_bar = 0.4\n")
        assert main(["--config", cfg]) == 2
        assert "unknown key 'dt_bar' in [task], which reads name" in capsys.readouterr().err

    def test_unread_output_key_is_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.ini", "[system]\nkind = scalar\nlambda = -1\n\n[task]\nname = analyze\n\n"
                    f"[output]\ndir = {tmp_path / 'o'}\nformat = csv\n")
        assert main(["--config", cfg]) == 2
        assert "unknown key 'format' in [output], which reads dir" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_kind_is_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "k.ini", "[system]\nlambda = -1\n\n[task]\nname = analyze\n")
        assert main(["--config", cfg]) == 2
        assert "'kind'" in capsys.readouterr().err


class TestExitCodes:
    def test_analyze_feasible_is_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "a.ini", SCALAR_ANALYZE.format(dt_bar=0.4, out=tmp_path / "o"))
        assert main(["--config", cfg]) == 0
        assert (tmp_path / "o" / "certificate.txt").exists()

    def test_analyze_infeasible_is_one(self, tmp_path):
        cfg = write(tmp_path, "a.ini", SCALAR_ANALYZE.format(dt_bar=0.5, out=tmp_path / "o"))
        assert main(["--config", cfg]) == 1

    def test_analyze_with_a_tiny_lambda_refuses_without_a_traceback(self, tmp_path):
        # lambda^2 = 1e-600 underflows to 0: the closed-form bound once divided by it
        cfg = write(
            tmp_path,
            "a.ini",
            "[system]\nkind = scalar\nlambda = -1e-300\nmu = 0\n\n[task]\nname = analyze\n\n"
            f"[numeric]\ndt_bar = 0.5\n\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        proc = run_cli(cfg)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "verdict: infeasible\n" in report and "detail: margin at or below the 1e-12 slack\n" in report
        assert "scalar closed-form stepsize bound: 2e+300" in report

    def test_simulate_that_diverges_is_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "d.ini",
            "[system]\nkind = scalar\nlambda = 50\nmu = 3\n\n[task]\nname = simulate\n\n"
            f"[numeric]\ndt = 0.5\nt = 200\nsubsteps = 4\n\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert main(["--config", cfg]) == 1
        assert capsys.readouterr().out == "diverged: state overflowed at step 217\n"
        report = (tmp_path / "o" / "report.txt").read_text()
        assert report == "task: simulate\nverdict: diverged (state overflowed at step 217)\n"
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_converge_with_one_level_is_two(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "c.ini",
            "[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = converge\n\n"
            f"[numeric]\ndt = 0.5\nt = 1.0\ntrajectories = 8\nlevels = 1\n\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: key 'levels' in [numeric]: converge needs at least 2 levels\n"
        assert not (tmp_path / "o").exists()

    def test_bad_config_is_two(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "bad.ini",
            "[system]\nkind = scalar\nlambda = -1\n\n[task]\nname = simulate\n\n[numeric]\nt = 1.0\n",
        )
        assert main(["--config", cfg]) == 2
        assert "dt" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize(
        "task, numeric, flags",
        [
            ("exponent", "dt = 0.05\nt = 1.0\ntrajectories = 1\n", []),
            ("exponent", "dt = 0.05\nt = 1.0\n", ["--trajectories", "1"]),
            ("exponent", "dt = 0.05\nt = 1.0\np = -1\ntrajectories = 8\n", []),
            ("simulate", "dt = -0.1\nt = 1.0\n", []),
            ("simulate", "x0 = 1 2\ndt = 0.5\nt = 1.0\n", []),
            # horizons that are not a whole number of steps dt
            ("simulate", "dt = 0.2\nt = 0.5\nsubsteps = 2\n", []),
            ("simulate", "dt = 0.3\nt = 1.0\nsubsteps = 10\n", []),
            ("simulate", "dt = 2.0\nt = 1.0\n", []),
            ("exponent", "dt = 0.3\nt = 1.0\n", []),
            ("converge", "dt = 0.3\nt = 1.0\n", []),
            ("converge", "dt = 0.125\nt = 1.05\ntrajectories = 8\nlevels = 2\n", []),
            # seeds outside [0, 2**64), the range of the generator key
            ("simulate", "dt = 0.5\nt = 1.0\nseed = -1\n", []),
            ("exponent", "dt = 0.05\nt = 1.0\ntrajectories = 8\nseed = -1\n", []),
            ("converge", "dt = 0.125\nt = 1.0\ntrajectories = 8\nlevels = 2\nseed = -1\n", []),
            ("simulate", "dt = 0.5\nt = 1.0\n", ["--seed", str(2**64)]),
            ("exponent", "dt = 0.05\nt = 1.0\ntrajectories = 8\n", ["--seed", str(2**64)]),
            ("converge", "dt = 0.125\nt = 1.0\ntrajectories = 8\nlevels = 2\n", ["--seed", str(2**64)]),
        ],
    )
    def test_invalid_numeric_input_is_two(self, tmp_path, capsys, task, numeric, flags):
        # the library's ValueError is invalid input, not a crash
        cfg = write(
            tmp_path,
            "v.ini",
            f"[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = {task}\n\n"
            f"[numeric]\n{numeric}\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert main(["--config", cfg, *flags]) == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["simulate", "exponent", "converge"])
    def test_x0_of_the_wrong_length_is_two(self, tmp_path, capsys, task):
        # no x0 key: the default (1,) does not fit a 2-d system, whatever the task
        cfg = write(
            tmp_path,
            "x.ini",
            f"[system]\nkind = linear\nf = {STABLE['f']}\n{STABLE['noise']}\n\n[task]\nname = {task}\n\n"
            f"[numeric]\ndt = 0.25\nt = 1.0\ntrajectories = 8\nlevels = 2\n\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err == "invalid input: x0 must have length 2, got 1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "task, numeric",
        [
            ("simulate", "substeps = 0\n"),
            ("simulate", "substeps = -2\n"),
            ("simulate", "substeps = 6\ndriving = brownian\n"),
            ("converge", "substeps = 1\n"),
            ("converge", "substeps = 6\n"),
        ],
    )
    def test_bad_substeps_is_named(self, tmp_path, capsys, task, numeric):
        cfg = write(
            tmp_path,
            "s.ini",
            f"[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = {task}\n\n"
            f"[numeric]\ndt = 0.5\nt = 1.0\ntrajectories = 8\nlevels = 2\n{numeric}\n"
            f"[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: key 'substeps' in [numeric]: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "task, numeric, key",
        [
            ("converge", "levels = 1100\n", "levels"),
            ("converge", f"substeps = {2**1100}\n", "substeps"),
            ("simulate", f"substeps = {2**1100}\n", "substeps"),
        ],
        ids=["converge-levels", "converge-substeps", "simulate-substeps"],
    )
    def test_finest_stepsize_that_is_not_a_positive_float_is_named(self, tmp_path, capsys, task, numeric, key):
        # dt / 2**1099 underflows to 0, and dt / 2**1100 overflows the int's conversion
        cfg = write(
            tmp_path,
            "h.ini",
            f"[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = {task}\n\n"
            f"[numeric]\ndt = 0.5\nt = 1.0\ntrajectories = 8\n{numeric}\n"
            f"[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: key '{key}' in [numeric]: the finest stepsize it sets is not a positive float\n"
        )
        assert not (tmp_path / "o").exists()

    def test_exponent_takes_only_xi_driving(self, tmp_path, capsys):
        # an ensemble has no physical path to couple to: its scheme reads the impulse stream
        cfg = write(
            tmp_path,
            "e.ini",
            "[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = exponent\n\n"
            f"[numeric]\ndt = 0.05\nt = 1.0\ntrajectories = 8\ndriving = brownian\n\n"
            f"[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: key 'driving' in [numeric]: task 'exponent' takes only xi, got 'brownian'\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, task", [
        ("numeric", "x0", "simulate"),
        ("numeric", "x0", "exponent"),
        ("numeric", "p", "exponent"),
        ("numeric", "dt_bar", "analyze"),
        ("system", "mu", "simulate"),
        ("numeric", "dt", "simulate"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_is_named(self, tmp_path, capsys, section, key, task, value):
        blocks = {"system": {"kind": "scalar", "lambda": "-1", "mu": "0.5"},
                  "task": {"name": task},
                  "numeric": {"dt": "0.5", "t": "1.0", "trajectories": "8"},
                  "output": {"dir": str(tmp_path / "o")}}
        blocks[section][key] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                       for name, keys in blocks.items())
        assert main(["--config", write(tmp_path, "n.ini", text)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: key '{key}' in [{section}]: bad value '{value}' (")
        assert not (tmp_path / "o").exists()

    def test_overflow_is_reported_without_warnings(self, tmp_path):
        cfg = write(
            tmp_path,
            "o.ini",
            "[system]\nkind = scalar\nlambda = 1e6\nmu = 0.5\n\n[task]\nname = simulate\n\n"
            f"[numeric]\nx0 = 1\ndt = 0.5\nt = 4\nsubsteps = 32\n\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        done = run_cli(cfg)
        assert done.returncode == 1
        assert done.stderr == ""
        assert "diverged: state overflowed at substep 74" in done.stdout

    @pytest.mark.parametrize("task, system, numeric, message", [
        ("simulate", SCALAR_SYSTEM, "dt = 0.5\nt = 1\nsubsteps = 1000000000000\n",
         "key 'substeps' in [numeric]: the task would hold 12000000000018 floats (2000000000003 samples of 6), "
         "past the cap of 8388608"),
        ("simulate", SCALAR_SYSTEM, "dt = 0.5\nt = 1000000\nsubsteps = 2\n",
         "key 't' in [numeric]: the task would hold 36000006 floats (6000001 samples of 6), past the cap of 8388608"),
        ("exponent", SCALAR_SYSTEM, "dt = 0.05\nt = 1\ntrajectories = 1000000000000\n",
         "key 'trajectories' in [numeric]: the task would hold 1000000000000 paths, past the cap of 8388608"),
        ("exponent", SCALAR_SYSTEM, "dt = 0.05\nt = 1000000\ntrajectories = 8\n",
         "key 't' in [numeric]: the task would hold 20000000 steps of dt, past the cap of 4194304"),
        ("cps-demo", CONTROLLER_SYSTEM, "dt = 0.1\nt = 1000000000\n",
         "key 't' in [numeric]: the task would hold 320000000002 floats (160000000001 samples of 2), "
         "past the cap of 8388608"),
        ("analyze", diagonal_system(91), "dt_bar = 0.1\n",
         "key 'f' in [system]: the task would hold 91 state dimensions, past the cap of 90"),
        ("max-stepsize", diagonal_system(91), "",
         "key 'f' in [system]: the task would hold 91 state dimensions, past the cap of 90"),
    ], ids=["simulate-substeps", "simulate-t", "exponent-trajectories", "exponent-t", "cps-demo-t",
            "analyze-f", "max-stepsize-f"])
    def test_config_past_a_memory_cap_is_two(self, tmp_path, task, system, numeric, message):
        # terabytes of draws or of per-path sums, or hours of steps, are
        # refused before anything is allocated: the address space is capped
        # so that no host could grant them
        cfg = write(
            tmp_path,
            "m.ini",
            f"[system]\n{system}\n\n[task]\nname = {task}\n\n"
            f"[numeric]\n{numeric}\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        cap = 2 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-c", "import sys; from sidelab.cli import main; sys.exit(main())", "--config", cfg],
            capture_output=True, text=True, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": str(Path(sidelab.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"config error: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task, numeric, cap, key", [
        # 2 intervals of 1 + 4 substeps: 11 samples of 3 + 2 + 1 floats
        ("simulate", "t = 1.0\nsubsteps = 4\n", ("_MAX_SAMPLE_FLOATS", 66), None),
        ("simulate", "t = 1.0\nsubsteps = 5\n", ("_MAX_SAMPLE_FLOATS", 66), "substeps"),
        # 6 intervals would hold 13 samples even at one substep
        ("simulate", "t = 3.0\nsubsteps = 1\n", ("_MAX_SAMPLE_FLOATS", 66), "t"),
        ("exponent", "t = 10.0\ntrajectories = 8\n", ("_MAX_TRAJECTORIES", 8), None),
        ("exponent", "t = 10.0\ntrajectories = 9\n", ("_MAX_TRAJECTORIES", 8), "trajectories"),
        ("exponent", "t = 10.0\ntrajectories = 8\n", ("_MAX_STEPS", 20), None),
        ("exponent", "t = 10.5\ntrajectories = 8\n", ("_MAX_STEPS", 20), "t"),
        # 2 intervals of 16 samples and the start: 33 samples of t and x
        ("cps-demo", "t = 1.0\n", ("_MAX_SAMPLE_FLOATS", 66), None),
        ("cps-demo", "t = 1.5\n", ("_MAX_SAMPLE_FLOATS", 66), "t"),
        # the 2-dimensional system of CAP_SYSTEMS
        ("analyze", "dt_bar = 0.1\n", ("_MAX_CERTIFICATE_DIM", 2), None),
        ("analyze", "dt_bar = 0.1\n", ("_MAX_CERTIFICATE_DIM", 1), "f"),
        ("max-stepsize", "", ("_MAX_CERTIFICATE_DIM", 2), None),
        ("max-stepsize", "", ("_MAX_CERTIFICATE_DIM", 1), "f"),
    ])
    def test_memory_caps_admit_their_bound(self, tmp_path, capsys, monkeypatch, task, numeric, cap, key):
        monkeypatch.setattr(cli, *cap)
        cfg = write(
            tmp_path,
            "b.ini",
            f"[system]\n{CAP_SYSTEMS.get(task, SCALAR_SYSTEM)}\n\n[task]\nname = {task}\n\n"
            f"[numeric]\ndt = 0.5\n{numeric}\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        code = main(["--config", cfg])
        err = capsys.readouterr().err
        section = "system" if key == "f" else "numeric"
        if key is None:
            assert code in (0, 1) and err == ""
        else:
            assert code == 2 and err.startswith(f"config error: key '{key}' in [{section}]: the task would hold ")
            assert f"past the cap of {cap[1]}\n" in err
            assert not (tmp_path / "o").exists()

    def test_out_of_memory_is_an_error(self, tmp_path, capsys, monkeypatch):
        # a config within every cap can still meet a host that has less to give
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 GiB for an array with shape (134217728,) and data type float64")

        monkeypatch.setattr(cli.simulate, "simulate_cps", exhausted)
        cfg = write(tmp_path, "m.ini", SIMULATE.format(seed=0, out=tmp_path / "o"))
        assert main(["--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: out of memory: Unable to allocate 1.00 GiB for an array with shape (134217728,) "
            "and data type float64\n"
        )
        assert not (tmp_path / "o").exists()

    def test_singular_operator_is_a_boundary_without_warnings(self, tmp_path):
        cfg = write(tmp_path, "z.ini", LINEAR.format(f="0 0 ; 0 0", noise="", task="analyze", out=tmp_path / "o"))
        done = run_cli(cfg)
        assert done.returncode == 1
        assert done.stderr == ""
        assert "verdict: infeasible" in done.stdout and "boundary" in done.stdout

    @pytest.mark.parametrize("task, verdict", [
        ("analyze", "detail: boundary: residual nan exceeds"),
        ("max-stepsize", "verdict: infeasible (unstable base system)"),
    ])
    def test_nan_residual_is_a_boundary_without_warnings(self, tmp_path, task, verdict):
        # the solve's P overflows, its residual is NaN, and a NaN once passed the gate
        f = "-1e-300 0 ; 1e300 -1e-300"
        cfg = write(tmp_path, "r.ini", LINEAR.format(f=f, noise="", task=task, out=tmp_path / "o"))
        done = run_cli(cfg)
        assert (done.returncode, done.stderr) == (1, "")
        assert verdict in done.stdout

    def test_arnoldi_no_convergence_is_an_error(self, tmp_path, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", stalled)
        cfg = write(tmp_path, "s.ini", LINEAR.format(**STABLE, task="max-stepsize", out=tmp_path / "o"))
        assert main(["--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3-coordinate operator" in err
        assert "Traceback" not in err

    def test_max_stepsize_builds_and_factors_l0_once(self, tmp_path, capsys, monkeypatch):
        calls = {"ct_operator": 0, "lu_factor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        build = sidelab.matrix_kernels.ct_operator
        for module in (sidelab.matrix_kernels, sidelab.stability):
            monkeypatch.setattr(module, "ct_operator", counted("ct_operator", build))
        monkeypatch.setattr(scipy.linalg, "lu_factor", counted("lu_factor", scipy.linalg.lu_factor))
        cfg = write(tmp_path, "s.ini", LINEAR.format(**STABLE, task="max-stepsize", out=tmp_path / "o"))
        assert main(["--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "max stepsize: " in out and "verdict: feasible" in out
        assert calls == {"ct_operator": 1, "lu_factor": 1}

    def test_task_override(self, tmp_path):
        cfg = write(tmp_path, "a.ini", SCALAR_ANALYZE.format(dt_bar=0.4, out=tmp_path / "o"))
        assert main(["max-stepsize", "--config", cfg]) == 0
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "max stepsize" in report and "0.4375" in report
        assert report.splitlines()[1] == "max stepsize: 0.4375"

    def test_python_dash_m_runs_without_warnings(self, tmp_path):
        cfg = write(tmp_path, "s.ini", SIMULATE.format(seed=1, out=tmp_path / "o"))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sidelab", "--config", cfg],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(sidelab.__file__).parents[1])},
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert "task: simulate" in done.stdout

    def test_cps_demo_stepsize_too_large_is_one(self, tmp_path):
        cfg = write(
            tmp_path,
            "d.ini",
            "[system]\nkind = controller\na = 1\nkp = 2\n\n[task]\nname = cps-demo\n\n"
            f"[numeric]\nx0 = 1\ndt = 0.8\nt = 4\n\n[output]\ndir = {tmp_path/'o'}\n",
        )
        assert main(["--config", cfg]) == 1

    @pytest.mark.parametrize("x0", ["1 5", ""])
    def test_cps_demo_takes_one_x0(self, tmp_path, capsys, x0):
        cfg = write(
            tmp_path,
            "d.ini",
            "[system]\nkind = controller\na = 1\nkp = 2\n\n[task]\nname = cps-demo\n\n"
            f"[numeric]\nx0 = {x0}\ndt = 0.5\nt = 5\n\n[output]\ndir = {tmp_path/'o'}\n",
        )
        assert main(["--config", cfg]) == 2
        count = len(x0.split())
        assert capsys.readouterr().err == (
            f"config error: key 'x0' in [numeric]: task 'cps-demo' takes one value, got {count}\n"
        )

    def test_cps_demo_ok(self, tmp_path):
        cfg = write(
            tmp_path,
            "d.ini",
            "[system]\nkind = controller\na = 1\nkp = 2\n\n[task]\nname = cps-demo\n\n"
            f"[numeric]\nx0 = 1\ndt = 0.5\nt = 5\n\n[output]\ndir = {tmp_path/'o'}\n",
        )
        assert main(["--config", cfg]) == 0
        assert (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.parametrize("x0", ["1", "-1"])
    def test_cps_demo_at_a_long_horizon_is_zero(self, tmp_path, capsys, x0):
        # X_k underflows to 0 near t = 670: the checks read the one-step factor, not the samples
        cfg = write(
            tmp_path,
            "d.ini",
            f"[system]\n{CONTROLLER_SYSTEM}\n\n[task]\nname = cps-demo\n\n"
            f"[numeric]\nx0 = {x0}\ndt = 0.1\nt = 1000\n\n[output]\ndir = {tmp_path/'o'}\n",
        )
        assert main(["--config", cfg]) == 0
        out = capsys.readouterr().out
        for check in ("cyber strictly decreasing", "first-interval decay bound", "sign preserved"):
            assert f"\n{check}: True\n" in out

    def test_cps_demo_horizon_of_no_whole_steps_is_two(self, tmp_path, capsys):
        # 1.05 / 0.1 intervals were once rounded up, with samples past the horizon
        cfg = write(
            tmp_path,
            "d.ini",
            f"[system]\n{CONTROLLER_SYSTEM}\n\n[task]\nname = cps-demo\n\n"
            f"[numeric]\nx0 = 1\ndt = 0.1\nt = 1.05\n\n[output]\ndir = {tmp_path/'o'}\n",
        )
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err == "invalid input: horizon t=1.05 is not a whole number of steps dt=0.1\n"
        assert not (tmp_path / "o").exists()


class TestArtifacts:
    def test_simulate_row_count(self, tmp_path):
        out = tmp_path / "o"
        cfg = write(tmp_path, "s.ini", SIMULATE.format(seed=1, out=out))
        assert main(["--config", cfg]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        # header + N substeps + impulse doubles + initial row
        n_steps, n_impulses = 4 * 4, 4
        assert len(lines) == 1 + n_steps + n_impulses + 1
        assert lines[0] == "t,x_1,y_1,X_1,impulse_flag"

    def test_simulate_deterministic_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write(tmp_path, "sa.ini", SIMULATE.format(seed=11, out=out_a))
        cfg_b = write(tmp_path, "sb.ini", SIMULATE.format(seed=11, out=out_b))
        assert main(["--config", cfg_a]) == 0
        assert main(["--config", cfg_b]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    def test_converge_rows_match_levels(self, tmp_path):
        out = tmp_path / "o"
        cfg = write(
            tmp_path,
            "c.ini",
            "[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = converge\n\n"
            f"[numeric]\nx0 = 1\ndt = 0.0625\nt = 1.0\nlevels = 4\ntrajectories = 64\nseed = 2\n\n"
            f"[output]\ndir = {out}\n",
        )
        assert main(["--config", cfg]) == 0
        lines = (out / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "level,dt,error,stderr"
        assert len(lines) == 1 + 4

    def test_converge_artifacts_are_pinned(self, tmp_path):
        # digests of the whole-array study's output; the streamed study, which
        # walks these 1280 finest steps in chunks, must write the same bytes
        out = tmp_path / "o"
        cfg = write(
            tmp_path,
            "g.ini",
            "[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = converge\n\n"
            f"[numeric]\nx0 = 1\ndt = 0.0625\nt = 2.5\nlevels = 5\ntrajectories = 64\nseed = 3\n\n"
            f"[output]\ndir = {out}\n",
        )
        assert main(["--config", cfg]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("errors.csv", "report.txt")}
        assert digests == {
            "errors.csv": "79cdab7aee1055b00cd7353db9f9713aa98f7486003998cda89c2d299ed27d98",
            "report.txt": "05be85b870ac734ec9c5162fbb359d761b3179f3cdef4ac753ba7eb9ac657807",
        }
        # digests of `simulate` on a 2-d system with two noise matrices; the
        # trajectories round the scheme's step as x + (dt f + g w), the substep
        # of the hybrid integrators
        pinned = {
            "xi": ("3ea44f9c2c18c165659daf1b6d11ee65c0eecd26f1c7dac3a25ba4031ddb24e9",
                   "329ca147de3a82fbb085cfe4bce9f02f513812ba1eeaea7c232ce4f25e91abe3"),
            "brownian": ("ad9a4043bb851ad2888f0ab561aa3288ca659795c864ff33632fcc8f2c8e6ea9",
                         "665a09b78f1c77438b2e7629177548573321ee65ca27833f6d5df8b5617910cb"),
        }
        for driving, want in pinned.items():
            out = tmp_path / driving
            cfg = write(
                tmp_path,
                f"{driving}.ini",
                "[system]\nkind = linear\nf = -1 0.3 ; 0.2 -2\ng1 = 0.4 0 ; 0.1 0.2\n"
                "g2 = 0.1 0.3 ; 0 0.2\n\n[task]\nname = simulate\n\n"
                f"[numeric]\nx0 = 1 -0.5\ndt = 0.25\nt = 2\nsubsteps = 8\nseed = 3\n"
                f"driving = {driving}\n\n[output]\ndir = {out}\n",
            )
            assert main(["--config", cfg]) == 0
            got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("trajectory.csv", "report.txt"))
            assert got == want, driving

    def test_exponent_fit_has_window_rows(self, tmp_path):
        out = tmp_path / "o"
        cfg = write(
            tmp_path,
            "e.ini",
            "[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = exponent\n\n"
            f"[numeric]\nx0 = 1\ndt = 0.05\nt = 2.0\np = 2\ntrajectories = 200\nseed = 3\n\n"
            f"[output]\ndir = {out}\n",
        )
        assert main(["--config", cfg]) == 0
        lines = (out / "exponent_fit.csv").read_text().strip().splitlines()
        assert lines[0] == "t,log_mean_moment"
        assert len(lines) - 1 >= 10

    @pytest.mark.parametrize("system, numeric, code, diverged, digest", [
        ("kind = linear\nf = -1 0.3 ; 0.2 -2\ng1 = 0.4 0 ; 0.1 0.2\ng2 = 0.1 0.3 ; 0 0.2\n",
         "x0 = 1 -0.5\ndt = 0.01\nt = 1.0\ntrajectories = 300\nseed = 4\n", 0, 0,
         "c156ba9acc799793c29bfcb5c6f0b52132a1992e71c0f7230b3ac1e969f3b5b6"),
        # |1 + 50 dt| = 26 per step: every path overflows long before t = 200
        ("kind = scalar\nlambda = 50\nmu = 3\n",
         "x0 = 1\ndt = 0.5\nt = 200\ntrajectories = 4\nseed = 1\n", 1, 4,
         "827074887f9a895954bedf54861d89f98ab4dbc363c4cba3b2407189a9c2facb"),
    ], ids=["stable", "overflowing"])
    def test_exponent_report_ends_with_diverged_count(self, tmp_path, system, numeric, code, diverged, digest):
        # the digest is of the report without its diverged line: the other
        # lines must not change (the overflowing case's pathwise section
        # reported -inf with 4 zero trajectories until overflow counted as
        # divergence)
        out = tmp_path / "o"
        cfg = write(tmp_path, "e.ini", f"[system]\n{system}\n[task]\nname = exponent\n\n"
                    f"[numeric]\n{numeric}\n[output]\ndir = {out}\n")
        assert main(["--config", cfg]) == code
        *lines, last = (out / "report.txt").read_text().splitlines()
        assert last == f"diverged trajectories: {diverged}"
        assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest
        if diverged:
            pathwise = lines[lines.index("pathwise exponent:"):]
            assert "exponent: inf" in pathwise and "zero trajectories: 0" in pathwise

    def test_run_api_overrides(self, tmp_path):
        out = tmp_path / "alt"
        cfg = write(tmp_path, "s.ini", SIMULATE.format(seed=1, out=tmp_path / "orig"))
        code = run(cfg, {"out": str(out), "seed": 5, "dump_config": True})
        assert code == 0
        assert (out / "config.ini").exists()
        reloaded = load_config(out / "config.ini")
        assert reloaded.seed == 5 and reloaded.outdir == str(out)


class TestPublicNames:
    # the names `sidelab.__all__` listed before the import block became the
    # only list, less `NoisePlan`, which the library no longer builds, and
    # less the Lipschitz spot check, deleted with the constants it checked,
    # and less `lyapunov_ito_feasible`, an alias of cp_lyapunov_feasible(sde, 0.0)
    NAMES = [
        "cli", "errors", "estimate", "matrix_kernels", "models", "noise", "simulate", "stability",
        "ConvergenceStudy", "Ensemble", "ExponentEstimate", "as_exponent", "moment_exponent",
        "scalar_onestep_factor", "strong_error_sup",
        "decay_rate", "is_positive_definite", "solve_ct_lyapunov", "solve_dt_lyapunov",
        "ImpulseSchedule", "LinearSde", "SideSystem",
        "VectorFieldSde", "make_cps",
        "DiscretePath", "HybridTrajectory", "CpsTrajectory", "euler_maruyama", "exact_gbm",
        "simulate_cps", "simulate_scalar_cps_demo", "simulate_side",
        "ConditionConstants", "StabilityCertificate", "check_thm1", "check_thm2", "check_thm4",
        "check_thm5", "check_thm6", "cp_lyapunov_feasible", "discrete_ms_stable",
        "max_stepsize", "quadratic_condition_constants",
        "scalar_max_stepsize", "stepsize_certificate",
    ]

    def test_package_exposes_every_public_name(self):
        assert len(set(self.NAMES)) == 45
        assert sorted(name for name in dir(sidelab) if not name.startswith("_")) == sorted(self.NAMES)

    def test_star_import_exposes_them(self):
        namespace = {}
        exec("from sidelab import *", namespace)
        assert set(self.NAMES) <= set(namespace)

    def test_tasks_keep_their_order(self):
        # the order of the CLI's choices and of the unknown-task message
        assert cli.TASKS == ("simulate", "analyze", "max-stepsize", "exponent", "converge", "cps-demo")


class TestEmitPlotData:
    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data([], tmp_path)

    def test_writes_header_and_rows(self, tmp_path):
        paths = emit_plot_data([("s.csv", ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])], tmp_path)
        text = paths[0].read_text().splitlines()
        assert text[0] == "a,b" and len(text) == 3
