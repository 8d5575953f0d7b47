import hashlib
import math
import os
import subprocess
import sys

import pytest

from ssmd import cli, harness, utility
from ssmd.cli import main
from ssmd.harness import build_instance, parse_config
from ssmd.sets import CappedBox
from ssmd.utility import reference_gap, reference_solution

SMALL = """regime = compact
instance = inline
n = 4
cap = 1.0
budget = 1.5
a = 0.5, 1.0
iterations = 10
runs = 3
seed = 11
"""

SC = """regime = strongly_convex
instance = inline
n = 4
cap = 1.0
budget = 1.5
lambda = 50
iterations = 10
runs = 3
seed = 11
"""


@pytest.fixture
def built(monkeypatch):
    """Every instance a command builds, through harness.build_instance under
    both names it is called by."""
    instances = []

    def counting(cfg):
        instances.append(build_instance(cfg))
        return instances[-1]

    monkeypatch.setattr(harness, "build_instance", counting)
    monkeypatch.setattr(cli, "build_instance", counting)
    return instances


def test_experiment_compact_sweep(tmp_path, capsys, built, monkeypatch):
    # six runs in chunks of one share the one instance the command builds
    monkeypatch.setattr(harness, "BATCH_RUNS", 1)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    code = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert code == 0 and len(built) == 1
    assert (out / "experiment_a0.csv").exists()
    assert (out / "experiment_a1.csv").exists()
    assert (out / "experiment_a0.csv.meta").exists()
    assert "a = 0.5" in capsys.readouterr().out


def test_experiment_strongly_convex(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "experiment.csv").exists()


def test_experiment_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("experiment.csv", "experiment.csv.meta"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("regime = compact\nruns = 0\n")
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "runs must be >= 1" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path):
    assert main(["experiment", "--config", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path)]) == 1


def test_usage_error_exit_code():
    assert main(["experiment"]) == 1  # missing required flags


def test_experiment_without_out_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC)
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_out_is_not_a_config_key(tmp_path, capsys):
    # the output directory comes from --out alone
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC + "out = results\n")
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'out'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_command(capsys):
    assert main(["verify", "--kmax", "2000"]) == 0
    out = capsys.readouterr().out
    assert "PASS step_condition[tseng]" in out
    assert "FAIL" not in out


def test_verify_output_lines(capsys, monkeypatch):
    # every check on its own line, in the suite's order; one failing check
    # prints its first violating k and makes the status 2
    assert main(["verify", "--kmax", "10"]) == 0
    assert capsys.readouterr().out == "".join(f"PASS {name}\n" for name in (
        "step_condition[tseng]", "step_condition[nesterov]", "alpha_sq_sum[tseng]",
        "alpha_sq_sum[nesterov]", "sqrt_sum_growth[a=0.1]", "sqrt_sum_growth[a=1]",
        "sqrt_sum_growth[a=10]", "alpha_cap[tseng]", "alpha_cap[nesterov]"))
    monkeypatch.setattr(cli, "verify_suite", lambda k_max: [("ok", None), ("bad", 7)])
    assert main(["verify", "--kmax", "10"]) == 2
    assert capsys.readouterr().out == "PASS ok\nFAIL bad (first violating k = 7)\n"


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--kmax", "0"], "--kmax"),
    (["verify", "--kmax", "-3"], "--kmax"),
    (["experiment", "--config", "unused.txt", "--workers", "0"], "--workers"),
    (["experiment", "--config", "unused.txt", "--workers", "-2"], "--workers"),
])
def test_count_below_one_exits_1(capsys, argv, flag):
    assert main(argv) == 1
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


def test_reference_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC)
    assert main(["reference", "--config", str(cfg)]) == 0
    f_ref, f_lower = map(float, capsys.readouterr().out.splitlines())
    assert f_ref < 1.0  # utility minimum sits below the flat envelope level
    # the second line is the certified floor, within reference_tol = 1e-6
    assert f_ref - 1e-6 <= f_lower <= f_ref


def test_reference_without_convergence_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(utility, "REFERENCE_ITERATIONS", 2)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC)
    assert main(["reference", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("ssmd: error: no convergence to tol=")


def test_reference_stops_when_its_iterate_cycles(tmp_path, capsys, monkeypatch):
    # at lambda = 1e5 the projected gradient enters a 2-cycle at a gap of about
    # 9e-12; the step depends on x alone, so the solver stops there at once
    # instead of running out its iteration cap
    calls, gap = [], utility.reference_gap

    def spy(instance, x):
        calls.append(x)
        return gap(instance, x)

    monkeypatch.setattr(utility, "reference_gap", spy)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("regime = strongly_convex\ninstance = test1\nlambda = 1e5\n"
                   "reference_tol = 1e-12\niterations = 10\nruns = 1\n")
    assert main(["reference", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ssmd: error: no convergence to tol=1e-12: iterates cycle at gap ")
    assert len(calls) < 100


def test_strongly_convex_small_n_exits_0(tmp_path):
    # n = 3 < 2(floor(budget/cap) + 1): the diameter still has a closed form
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC.replace("n = 4", "n = 3").replace("budget = 1.5", "budget = 2"))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "experiment.csv").exists()


def test_compact_reference_from_the_origin_exits_0(tmp_path):
    # lambda = 0 and x0 = 0, a kink of f: the reference descends on grad_f
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("regime = compact\ninstance = test1\na = 10\niterations = 10\n"
                   "runs = 1\ncompute_reference = true\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    meta = (out / "experiment_a0.csv.meta").read_text(encoding="utf-8").splitlines()
    f_ref = float(next(line for line in meta if line.startswith("f_ref = ")).split("=")[1])
    assert abs(f_ref - (-0.18)) < 1e-6


def test_bounds_command(tmp_path, capsys, built):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL)
    assert main(["bounds", "--config", str(cfg)]) == 0 and len(built) == 1
    out = capsys.readouterr().out
    assert "# a = 0.5" in out
    assert "k,bound" in out
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert len(rows) == 2 * 11  # two a values, k = 0..10 each


def test_bom_and_crlf_config_reads_as_the_plain_file(tmp_path, capsys):
    # editors such as Notepad write UTF-8 with a byte-order mark and CRLF ends
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(SMALL)
    marked.write_bytes(b"\xef\xbb\xbf" + SMALL.replace("\n", "\r\n").encode())
    assert main(["bounds", "--config", str(plain)]) == 0
    want = capsys.readouterr().out
    assert main(["bounds", "--config", str(marked)]) == 0
    assert capsys.readouterr().out == want


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # a Latin-1 e-acute in a comment is byte 0xe9, which UTF-8 cannot decode
    cfg = tmp_path / "latin1.txt"
    cfg.write_bytes("# résumé\n".encode("latin-1") + SMALL.encode())
    assert main(["bounds", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ssmd: config error: cannot read config {cfg}: 'utf-8' codec")


INLINE = "regime = compact\ninstance = inline\nn = 4\ncap = 1.0\nbudget = 1.5\n"
NAMED = "regime = compact\ninstance = test1\n"
SC_NAMED = "regime = strongly_convex\ninstance = test1\n"
# the ends of the accepted range of cap, budget, every a and a positive lambda
# (sets.MAGNITUDES), and the floats one ulp outside them
LO, HI = 2.0 ** -60, 2.0 ** 60
BELOW, ABOVE = math.nextafter(LO, 0.0), math.nextafter(HI, math.inf)


@pytest.mark.parametrize("text, key", [
    pytest.param(NAMED + "lambda = nan\n", "lambda", id="lambda-nan"),
    pytest.param(NAMED + "lambda = inf\n", "lambda", id="lambda-inf"),
    pytest.param(NAMED + "a = nan\n", "a", id="a-nan"),
    pytest.param(NAMED + "a = 1, inf\n", "a", id="a-inf"),
    pytest.param(NAMED + "reference_tol = nan\n", "reference_tol", id="reference_tol-nan"),
    pytest.param(NAMED + "reference_tol = 0\n", "reference_tol", id="reference_tol-0"),
    pytest.param(NAMED + "reference_tol = inf\n", "reference_tol", id="reference_tol-inf"),
    pytest.param("regime = compact\ninstance = test9\n", "instance", id="instance-unknown"),
    # a/sqrt(k+1) is not certified for the strongly convex engine, and no
    # schedule key selects it
    pytest.param(SC_NAMED + "schedule = step-3\n", "schedule", id="schedule-unknown"),
    pytest.param(INLINE.replace("cap = 1.0", "cap = inf"), "cap", id="cap-inf"),
    pytest.param(INLINE.replace("budget = 1.5", "budget = nan"), "budget", id="budget-nan"),
    pytest.param(INLINE.replace("n = 4", "n = 0"), "n", id="n-0"),
    pytest.param(NAMED + "n = 100\n", "n", id="n-named"),
    pytest.param(NAMED + "cap = 10\n", "cap", id="cap-named"),
    pytest.param(NAMED + "budget = 10\n", "budget", id="budget-named"),
    # one ulp outside either end of the accepted range
    *[pytest.param(text.format(value), key, id=f"{key}-{end}-range")
      for key, text in (("cap", INLINE.replace("cap = 1.0", "cap = {!r}")),
                        ("budget", INLINE.replace("budget = 1.5", "budget = {!r}")),
                        ("a", NAMED + "a = 1, {!r}\n"),
                        ("lambda", SC_NAMED + "lambda = {!r}\n"))
      for end, value in (("below", BELOW), ("above", ABOVE))],
    # configs whose float expressions used to overflow are now out of range:
    # the weight sum of sqrt(k+1)/a over 1000 iterations
    pytest.param(NAMED + "a = 1, 1e-305\n", "a", id="a-weight-sum-overflows"),
    pytest.param(NAMED + "a = 1e-300\nruns = 1\n", "a", id="a-tiny-weight-sum-finite"),
    # 1/lambda, and lambda**2 at lambda = 1e-300
    pytest.param(SC_NAMED + "lambda = 1e-320\n", "lambda", id="lambda-inverse-overflows"),
    pytest.param(SC_NAMED + "lambda = 1e-300\nruns = 1\niterations = 3\n", "lambda",
                 id="lambda-tiny-square-underflows"),
    # the constant C^2 + nu^2 of the bound
    pytest.param(SC_NAMED + "lambda = 1e200\n", "lambda", id="lambda-constants-overflow"),
    pytest.param("regime = strongly_convex\ninstance = inline\nn = 3\ncap = 1e300\n"
                 "budget = 1e300\nlambda = 1\n", "cap", id="cap-inline-constants-overflow"),
    # the gap bound 2 (C^2 + nu^2) / lambda
    pytest.param(SC_NAMED + "lambda = 1e-308\n", "lambda", id="lambda-gap-bound-overflows"),
    # budget / cap, with the clamp at n that the diameter then takes
    pytest.param(SMALL.replace("n = 4", "n = 3").replace("cap = 1.0", "cap = 1e-10")
                 .replace("budget = 1.5", "budget = 1e300"), "budget",
                 id="budget-over-cap-overflows"),
    # the diameter n cap^2 / 2, where d^2 / a did not at a = 1e300
    pytest.param("regime = compact\ninstance = inline\nn = 50\ncap = 1e300\nbudget = 1e300\n"
                 "a = 1e300, 1\niterations = 3\nruns = 1\n", "cap", id="cap-diameter-overflows"),
])
def test_bad_config_value_exits_1_naming_the_key(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(text)
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{key} must be" in err or f"{key} applies only" in err


def test_tiny_a_with_a_finite_weight_sum_runs(tmp_path, capsys):
    # sum_k sqrt(k+1)/a is about 2.4e22 at the smallest a, 2^-60, and K = 1000;
    # warnings are errors here, so exit 0 also means no overflow warning
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(NAMED + f"a = {LO!r}\nruns = 1\n")
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "experiment_a0.csv").read_text().splitlines()
    assert len(rows) == 1002 and "nan" not in "".join(rows)


def test_tiny_lambda_runs_without_warning(tmp_path, capsys):
    # the smallest lambda, 2^-60: the step scale 1/lambda and the distance
    # bound's Ct^2 / lambda^2 are large and finite
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC_NAMED + f"lambda = {LO!r}\nruns = 1\niterations = 3\n")
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


EXTREME = "regime = compact\ninstance = inline\nn = 50\ncap = {0}\nbudget = {0}\n"
CORNER = "instance = inline\niterations = 3\nruns = 2\nregime = "


def _column_values(text: str, *columns: str) -> list:
    """The values of the named columns in a CSV, or in every block of bounds
    output, as floats."""
    values = []
    for block in text.split("# a = "):
        rows = [line.split(",") for line in block.splitlines() if "," in line]
        if rows:
            at = [rows[0].index(column) for column in columns]
            values += [float(row[i]) for row in rows[1:] for i in at]
    return values


@pytest.mark.parametrize("command, text, code", [
    *[pytest.param("reference", f"regime = {regime}\ninstance = {name}\n", 0,
                   id=f"reference-{regime}-{name}")
      for regime in ("compact", "strongly_convex")
      for name in ("test1", "test2", "test3", "test4")],
    # a reference stopped on its projected-gradient residual stalled on these
    *[pytest.param("reference", f"regime = strongly_convex\ninstance = {name}\nlambda = 1e5\n",
                   0, id=f"reference-lambda-1e5-{name}")
      for name in ("test1", "test2", "test3", "test4")],
    pytest.param("reference", CORNER + f"strongly_convex\nn = 1000\ncap = {HI!r}\nbudget = 1\n"
                  "lambda = 8192\n", 0, id="reference-cap-2^60"),
    pytest.param("bounds", EXTREME.format("1e-300"), 1, id="bounds-cap-1e-300"),
    pytest.param("bounds", EXTREME.format("1e300"), 1, id="bounds-cap-1e300"),
    pytest.param("bounds", EXTREME.format("1e307"), 1, id="bounds-n-cap-overflows"),
    # corners of the accepted range: the largest f and constants (n = 1000 with
    # cap, budget and lambda at 2^60), the largest d^2 / a and a Ct^2, the
    # longest engine steps (cap, budget, a and lambda at 2^60: about 2^180), a
    # budget 2^120 caps (clamped at n in the diameter), and the smallest box
    # and lambda
    *[pytest.param(command, CORNER + text, 0, id=f"{command}-corner-{name}")
      for name, text in (
          ("largest-f", f"strongly_convex\nn = 1000\ncap = {HI!r}\nbudget = {HI!r}\n"
                        f"lambda = {HI!r}\n"),
          ("largest-d2", f"compact\nn = 50\ncap = {HI!r}\nbudget = {HI!r}\n"
                         f"a = {HI!r}, {LO!r}\n"),
          ("largest-step", f"compact\nn = 50\ncap = {HI!r}\nbudget = {HI!r}\na = {HI!r}\n"
                           f"lambda = {HI!r}\n"),
          ("budget-over-cap", f"compact\nn = 50\ncap = {LO!r}\nbudget = {HI!r}\n"
                              f"a = {LO!r}, {HI!r}\nlambda = {LO!r}\n"),
          ("smallest", f"strongly_convex\nn = 1\ncap = {LO!r}\nbudget = {LO!r}\n"
                       f"lambda = {LO!r}\nschedule = step-2\n"))
      for command in ("experiment", "bounds")],
])
def test_every_accepted_config_runs(tmp_path, capsys, monkeypatch, request, command, text,
                                    code):
    # the reference stops on the flat optima of test2 and test4, and at
    # lambda = 1e5 and cap = 2^60; the corners of the accepted range run with
    # finite columns and no warning (warnings are errors here), and caps
    # outside it are rejected.  At the top corners the engine's steps bind, so
    # CappedBox.project shifts them, x - r up to about 2^180, without an
    # overflow warning
    callers, tau = [], CappedBox._tau

    def spy(self, *args):
        callers.append(sys._getframe(2).f_code.co_name)  # the caller of project
        return tau(self, *args)

    monkeypatch.setattr(CappedBox, "_tau", spy)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    assert main(argv + ["--out", str(out)] if command == "experiment" else argv) == code
    if request.node.callspec.id in ("experiment-corner-largest-d2",
                                    "experiment-corner-largest-step"):
        assert "prox_step" in callers
    captured = capsys.readouterr()
    assert "cap must be" in captured.err if code else not captured.err
    if command == "bounds" and not code:
        values = _column_values(captured.out, "bound")
        assert values and all(map(math.isfinite, values))
    if command == "experiment":
        csvs = sorted(out.glob("*.csv"))
        assert csvs
        for csv in csvs:
            values = _column_values(csv.read_text(), "stderr_f_avg", "bound")
            assert values and all(map(math.isfinite, values)), csv.name


def test_reference_falls_back_to_config_tol(tmp_path, capsys):
    text = "regime = strongly_convex\ninstance = test1\nlambda = 100\n"
    instance = build_instance(parse_config(text))
    loose = reference_solution(instance, 1e-2)
    tight = reference_solution(instance, 1e-6)
    assert loose[1] != tight[1]
    for name, tol, (x, f) in (("loose", "reference_tol = 1e-2\n", loose), ("tight", "", tight)):
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(text + tol)
        assert main(["reference", "--config", str(cfg)]) == 0
        # f_ref, then the floor f_ref - gap
        assert capsys.readouterr().out == f"{f!r}\n{f - reference_gap(instance, x)!r}\n"


def test_strongly_convex_runs_only_the_first_a(tmp_path, capsys):
    # a plays no part in the strongly convex regime: a = 1, 2, 3 runs once, as a = 1
    swept, single = tmp_path / "swept.txt", tmp_path / "single.txt"
    swept.write_text(SC + "a = 1, 2, 3\n")
    single.write_text(SC + "a = 1\n")
    for cfg in (swept, single):
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
    assert sorted(p.name for p in (tmp_path / "swept").iterdir()) == \
        ["experiment.csv", "experiment.csv.meta"]
    assert (tmp_path / "swept" / "experiment.csv").read_bytes() == \
        (tmp_path / "single" / "experiment.csv").read_bytes()
    capsys.readouterr()
    assert main(["bounds", "--config", str(swept)]) == 0
    out = capsys.readouterr().out
    assert out.count("k,bound") == 1 and "# a =" not in out
    assert len(out.splitlines()) == 1 + 11  # header, k = 0..10


def _fresh_env(**settings) -> dict:
    """os.environ for a child interpreter that imports this ssmd: settings
    whose value is None are removed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for key, value in settings.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _cli_process(argv) -> subprocess.CompletedProcess:
    """`python -m ssmd.cli argv`, which exits through cli.run, with stdout
    buffered as it is by default."""
    return subprocess.run([sys.executable, "-m", "ssmd.cli", *argv], capture_output=True,
                          env=_fresh_env(PYTHONUNBUFFERED=None), timeout=120)


class _ClosedPipe:
    """A stdout whose reader has left: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("command", ["experiment", "bounds", "verify", "reference"])
def test_closed_stdout_keeps_files_and_status(tmp_path, capsys, monkeypatch, command):
    # the command runs to its end whatever stdout does, and says nothing on stderr
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL.replace("a = 0.5, 1.0", "a = 0.5, 1.0, 2.0"))
    argv = {"experiment": ["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")],
            "bounds": ["bounds", "--config", str(cfg)],
            "verify": ["verify", "--kmax", "200"],
            "reference": ["reference", "--config", str(cfg)]}[command]
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(argv)
    sys.stdout.close()  # the null device that stdout was pointed at
    assert code == 0
    assert capsys.readouterr().err == ""
    if command == "experiment":
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            f"experiment_a{i}.csv{ext}" for i in range(3) for ext in ("", ".meta")]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_reader_leaving_a_real_pipe_is_quiet(tmp_path, unbuffered):
    # > 64 KiB of bounds, so the pipe fills and the reader closes it mid-write;
    # buffered or not, the exit status is 0 and stderr stays empty
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL.replace("iterations = 10", "iterations = 20000"))
    env = _fresh_env(PYTHONUNBUFFERED=unbuffered or None)
    proc = subprocess.Popen([sys.executable, "-m", "ssmd.cli", "bounds", "--config", str(cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"#"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


# sha256 of the outputs of the criterion-13 config, of a strongly convex
# step-2 one and of the four benchmark workloads, with their configs as
# benchmarks/run.py writes them at seed 41: a change that moves any output
# byte fails here, and one that means to records the new digests
PINNED = {
    "regime = compact\ninstance = inline\nn = 6\ncap = 1.0\nbudget = 2.5\na = 0.7\n"
    "iterations = 60\nruns = 8\nseed = 3\n": {
        "experiment_a0.csv": "3d362bf873b33de5ebfbd8de3175e6f26ac30a7b860146658d8cd8bde29cecd0",
        "experiment_a0.csv.meta":
            "61f4e7ace0fc1600fedd6b2a55e54024987c7a65b3efe2de2ac34f800fabd60f",
        "bounds": "b36ebffdb65421c20213f050e70c4d75b53da5b84cc9c8b8aa69b74339e02ba1",
    },
    "regime = strongly_convex\ninstance = inline\nn = 6\ncap = 1.0\nbudget = 2.5\n"
    "lambda = 3\nschedule = step-2\niterations = 60\nruns = 8\nseed = 3\n": {
        "experiment.csv": "449161c8ac97a4487fa941676c41b9c203f842d16f8e262964ac1f8efb2c0a85",
        "experiment.csv.meta": "09e268c720762d1f06c5cce1ce5c95548ab35f8d2afc7fcb5ff631d24dc67018",
        "bounds": "7d8d4a27370f1bd0201dc43da100e22694089c3773176aad33710e1de8949c92",
    },
    # sc_test1
    "regime = strongly_convex\ninstance = test1\nlambda = 100\nschedule = step-1\n"
    "iterations = 100\nruns = 20\ncompute_reference = true\nseed = 41\n"
    "workers = 1\n": {
        "experiment.csv":
            "309c98f008fa18b2275805b53f5d1ffec0f2fd2727e589d5ae40d41434f36621",
        "experiment.csv.meta":
            "b3da5199365d486dd3bfe41c58dd69636020103057c20b0c48aee283212d3884",
        "bounds": "ef96269ccdd73dc00264e9eda2d17b97033bd81acf7bf744d39d0dec83532675",
    },
    # compact_test1_sweep
    "regime = compact\ninstance = test1\na = 1, 10, 30\niterations = 1000\n"
    "runs = 1\nseed = 41\nworkers = 1\n": {
        "experiment_a0.csv":
            "3285bb531d958d09c9902d164588df43a3b9bc74ac76fcc53f911f91bda2cce4",
        "experiment_a0.csv.meta":
            "b97b5f9397ac09b21562dfa18e04ac8faf3c6f9643fd14b2d3a7e345ce45b15a",
        "experiment_a1.csv":
            "1bfdfb8119178317322f97ad67803af09ca5a0259ac8fd07ab6492fbfe24a8df",
        "experiment_a1.csv.meta":
            "d0a858d40ad887be705fbc688d740e0db0638f7f57ab6b687fff8c9d26d4f671",
        "experiment_a2.csv":
            "368bcbbeeca057bad626e03eec1949aa400e5bed77390d358a72ff775778468c",
        "experiment_a2.csv.meta":
            "1db1e4c788969ab22414db8c33d469ff90fe67e8c7f58d1c2a2c589e4af20ad7",
        "bounds": "9a77731449c6a250900026a6ce93be22a2c3444944833ea8db07081270caf14c",
    },
    # compact_bind_n1000
    "regime = compact\ninstance = inline\nn = 1000\ncap = 1\nbudget = 1\na = 1\n"
    "iterations = 1000\nruns = 1\nseed = 41\nworkers = 1\n": {
        "experiment_a0.csv":
            "51b774179cb58c5f4645ad6d182a624259b570b51cfabf39da60d0605162af54",
        "experiment_a0.csv.meta":
            "b6a1626f48deff2e5c41ce63772435302f96bf89c26d60d6e2a2073847ff5a5b",
        "bounds": "828ac2546830c08a85be19e2cfab96eb42aa1b197190a4f3459963a7f630cd54",
    },
    # sampled_test1
    "regime = compact\ninstance = test1\na = 10\niterations = 2\nruns = 1\n"
    "analytic_f = false\nseed = 41\nworkers = 1\n": {
        "experiment_a0.csv":
            "0ec32c8e422a4fb849c9ea703ae6cd983a1c16f5075e6e72b78a839af03f3c22",
        "experiment_a0.csv.meta":
            "d330a649e475ae09de607e43d4f0d0407e695a42c06a9a0543e8c87059d7c97d",
        "bounds": "16c666e62450f04fca0e5271b9f0a74ad0dc51d96cb98de8afe5e4a4ac6258ec",
    },
}
# math.erfc, from the platform libm, where the digests were recorded
ERFC_PROBE = {-3.0: "0x1.fffe8d6209afdp+0", -0.5: "0x1.853f7ae0c76e9p+0",
              0.1: "0x1.c66b42bb6099ap-1", 1.0: "0x1.4226162fbddd5p-3",
              2.5: "0x1.aab859b20ac9ep-12", 10.0: "0x1.7d8a7f2a8a2d0p-149"}


def _pinned_digests(tmp_path, ssmd) -> list:
    """The digests of each PINNED config's outputs, as ssmd(argv), which
    returns stdout, writes them."""
    if any(math.erfc(x).hex() != want for x, want in ERFC_PROBE.items()):
        pytest.skip("this libm's erfc differs from the one the digests were recorded with")
    digests = []
    for i, text in enumerate(PINNED):
        cfg = tmp_path / f"cfg{i}.txt"
        cfg.write_text(text)
        out = tmp_path / f"out{i}"
        ssmd(["experiment", "--config", str(cfg), "--out", str(out)])
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        got["bounds"] = hashlib.sha256(ssmd(["bounds", "--config", str(cfg)])).hexdigest()
        digests.append(got)
    return digests


def test_output_bytes_are_pinned(tmp_path, capsys):
    def ssmd(argv):
        assert main(argv) == 0
        return capsys.readouterr().out.encode()

    assert _pinned_digests(tmp_path, ssmd) == list(PINNED.values())


def test_cli_process_writes_the_pinned_bytes(tmp_path):
    # the same bytes when the process exits through cli.run, without teardown
    def ssmd(argv):
        proc = _cli_process(argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    assert _pinned_digests(tmp_path, ssmd) == list(PINNED.values())


@pytest.mark.parametrize("case, code, stream, text", [
    ("bad-config", 1, "stderr", b"ssmd: config error: runs must be >= 1"),
    ("out-is-a-file", 2, "stderr", b"ssmd: error: "),
    # argparse prints the help without a flush, so it is run's flush that writes it
    ("help", 0, "stdout", b"usage: ssmd"),
])
def test_cli_process_exit_status(tmp_path, case, code, stream, text):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL.replace("runs = 3", "runs = 0") if case == "bad-config" else SMALL)
    (tmp_path / "taken").write_text("")
    argv = ["--help"] if case == "help" else \
        ["experiment", "--config", str(cfg), "--out", str(tmp_path / "taken")]
    proc = _cli_process(argv)
    assert proc.returncode == code
    assert text in getattr(proc, stream)


PROBE = "import os, {}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


@pytest.mark.parametrize("module, preset, want", [
    ("ssmd.cli", None, "1"),
    ("ssmd.cli", "3", "3"),
    ("ssmd", None, "None"),
])
def test_cli_runs_blas_on_one_thread_unless_set(module, preset, want):
    # set before ssmd.cli loads numpy, so OpenBLAS starts no pool of threads;
    # the package root alone has no side effect
    proc = subprocess.run([sys.executable, "-c", PROBE.format(module)], capture_output=True,
                          text=True, env=_fresh_env(OPENBLAS_NUM_THREADS=preset), timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, want)
