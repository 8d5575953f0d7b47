import pytest

from ssmd.cli import main
from ssmd.harness import build_instance, parse_config
from ssmd.utility import reference_solution

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


def test_experiment_compact_sweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    code = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert code == 0
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
    assert (out1 / "experiment.csv").read_bytes() == (out2 / "experiment.csv").read_bytes()


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


def test_verify_command(capsys):
    assert main(["verify", "--kmax", "2000"]) == 0
    out = capsys.readouterr().out
    assert "PASS step_condition[tseng]" in out
    assert "FAIL" not in out


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
    assert main(["reference", "--config", str(cfg), "--tol", "1e-6"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val < 1.0  # utility minimum sits below the flat envelope level


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_reference_bad_tol_exits_1(tmp_path, capsys, tol):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SC)
    assert main(["reference", "--config", str(cfg), "--tol", tol]) == 1
    assert "--tol" in capsys.readouterr().err


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


def test_bounds_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL)
    assert main(["bounds", "--config", str(cfg)]) == 0
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


def test_bounds_with_budget_over_cap_overflowing_exits_0(tmp_path, capsys):
    # budget / cap = 1e310 overflows to inf; the budget never binds, and the
    # diameter is the box's, n cap^2 / 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL.replace("n = 4", "n = 3").replace("cap = 1.0", "cap = 1e-10")
                   .replace("budget = 1.5", "budget = 1e300"))
    assert main(["bounds", "--config", str(cfg)]) == 0
    assert "k,bound" in capsys.readouterr().out


INLINE = "regime = compact\ninstance = inline\nn = 4\ncap = 1.0\nbudget = 1.5\n"
NAMED = "regime = compact\ninstance = test1\n"


@pytest.mark.parametrize("text, key", [
    pytest.param(NAMED + "lambda = nan\n", "lambda", id="lambda-nan"),
    pytest.param(NAMED + "lambda = inf\n", "lambda", id="lambda-inf"),
    pytest.param(NAMED + "a = nan\n", "a", id="a-nan"),
    pytest.param(NAMED + "a = 1, inf\n", "a", id="a-inf"),
    pytest.param(NAMED + "reference_tol = nan\n", "reference_tol", id="reference_tol-nan"),
    pytest.param(INLINE.replace("cap = 1.0", "cap = inf"), "cap", id="cap-inf"),
    pytest.param(INLINE.replace("budget = 1.5", "budget = nan"), "budget", id="budget-nan"),
    pytest.param(INLINE.replace("n = 4", "n = 0"), "n", id="n-0"),
    pytest.param(NAMED + "n = 100\n", "n", id="n-named"),
    pytest.param(NAMED + "cap = 10\n", "cap", id="cap-named"),
    pytest.param(NAMED + "budget = 10\n", "budget", id="budget-named"),
])
def test_bad_config_value_exits_1_naming_the_key(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(text)
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{key} must be" in err or f"{key} applies only" in err


EXTREME = "regime = compact\ninstance = inline\nn = 50\ncap = {0}\nbudget = {0}\n"


@pytest.mark.parametrize("command, text, code", [
    *[pytest.param("reference", f"regime = {regime}\ninstance = {name}\n", 0,
                   id=f"reference-{regime}-{name}")
      for regime in ("compact", "strongly_convex")
      for name in ("test1", "test2", "test3", "test4")],
    pytest.param("bounds", EXTREME.format("1e-300"), 0, id="bounds-cap-1e-300"),
    pytest.param("bounds", EXTREME.format("1e300"), 0, id="bounds-cap-1e300"),
    pytest.param("bounds", EXTREME.format("1e307"), 1, id="bounds-n-cap-overflows"),
])
def test_every_accepted_config_runs(tmp_path, capsys, command, text, code):
    # the reference stops on the flat optima of test2 and test4; caps at both
    # ends of the float range project, and one too large for n is rejected
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert "cap must be" in err if code else not err


def test_reference_falls_back_to_config_tol(tmp_path, capsys):
    text = "regime = strongly_convex\ninstance = test1\nlambda = 100\nreference_tol = 1e-2\n"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    instance = build_instance(parse_config(text))
    loose = reference_solution(instance, 1e-2)[1]
    tight = reference_solution(instance, 1e-6)[1]
    assert loose != tight
    assert main(["reference", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == f"{loose!r}\n"
    assert main(["reference", "--config", str(cfg), "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out == f"{tight!r}\n"


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
