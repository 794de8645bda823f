import json
import subprocess
import sys

import pytest

from hyplab import arith, cli, hyperbola


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hyplab.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_shortsum_sieve_example():
    r = run_cli("shortsum", "--function", "tau_k", "--k", "2", "--x", "100", "--y", "10", "--method", "sieve")
    assert r.returncode == 0
    row = r.stdout.splitlines()[1].split(",")
    assert row[0] == "sieve" and row[3] == "56"


def test_shortsum_methods_agree():
    r = run_cli(
        "shortsum", "--function", "tau_k", "--k", "2",
        "--x", "100000", "--y", "400", "--method", "sieve,hyperbola",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    sieve = lines[1].split(",")
    hyper = lines[2].split(",")
    assert sieve[3] == hyper[3]


def test_shortsum_explicit_split_point():
    r = run_cli(
        "shortsum", "--function", "mu_k", "--k", "2",
        "--x", "50000", "--y", "300", "--method", "sieve,hyperbola", "--T", "400.5",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1].split(",")[3] == lines[2].split(",")[3]


def test_shortsum_zero_window_is_usage_error():
    r = run_cli("shortsum", "--function", "tau_k", "--k", "2", "--x", "100", "--y", "0")
    assert r.returncode == 2


def test_shortsum_inadmissible_names_range():
    r = run_cli("shortsum", "--function", "tau_k", "--k", "2", "--x", "100000", "--y", "5")
    assert r.returncode == 3
    assert "admissible" in r.stderr


def test_delta_examples():
    r = run_cli("delta", "--n", "12", "--r", "2")
    assert r.returncode == 0
    row = r.stdout.splitlines()[1].split(",")
    assert row[2] == "3"
    assert abs(float(row[3]) - 0.6931471805599453) < 1e-6

    r = run_cli("delta", "--n", "1", "--r", "3")
    assert r.stdout.splitlines()[1].split(",")[2] == "1"

    r = run_cli("delta", "--n", "12", "--r", "1")
    assert r.returncode == 2


def test_delta_bound_column():
    r = run_cli("delta", "--n", "12", "--r", "2", "--check-lemma5", "2")
    head = r.stdout.splitlines()[0].split(",")
    row = r.stdout.splitlines()[1].split(",")
    vals = dict(zip(head, row))
    assert vals["bound_lhs"] == "2"
    assert vals["bound_holds"] == "true"


def test_delta_work_cap_exit():
    r = run_cli("delta", "--n", "720720", "--r", "4", "--work-cap", "10")
    assert r.returncode == 4
    assert "cap" in r.stderr


_VERIFY_TAU2 = ("verify", "--entry", "cor2_tau_k", "--k", "2")


@pytest.mark.parametrize(
    "argv,config",
    [
        ((*_VERIFY_TAU2, "--xgrid", "abc"), None),
        ((*_VERIFY_TAU2, "--xgrid", "1e6", "--ylist", "nan"), None),
        ((*_VERIFY_TAU2, "--xgrid", "inf"), None),
        ((*_VERIFY_TAU2, "--xgrid", "1e5", "--ylist", "10.7"), None),
        (("--config", "{cfg}", "selftest"), None),  # no such file
        (("--config", "{cfg}", "selftest"), "threads=x\n"),
        (("--config", "{cfg}", "delta", "--n", "12", "--r", "2"), "format=xml\n"),
        (("--config", "{cfg}", "selftest"), "threads\n"),
        (("--config", "{cfg}", "selftest"), "thread=4\n"),
    ],
    ids=[
        "xgrid-abc", "ylist-nan", "xgrid-inf", "ylist-10.7", "config-missing",
        "config-threads-x", "config-format-xml", "config-no-equals", "config-unknown-key",
    ],
)
def test_malformed_number_or_config_is_usage_error(argv, config, tmp_path):
    cfg = tmp_path / "lab.cfg"
    if config is not None:
        cfg.write_text(config)
    r = run_cli(*(a.format(cfg=cfg) for a in argv))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_grid_integers_stay_exact():
    assert cli._parse_grid("9007199254740993, 2e5,4.5e6") == [
        9007199254740993, 200000, 4500000
    ]


def test_verify_csv_shape_and_json_match():
    args = ("verify", "--entry", "cor2_tau_k", "--k", "4", "--xgrid", "1e5,2e5")
    csv = run_cli(*args, "--format", "csv")
    assert csv.returncode == 0
    lines = csv.stdout.splitlines()
    assert lines[0] == "x,y,exact,main,abs_err,env1,env2,env3,norm_err,admissible"
    assert len(lines) == 3
    js = run_cli(*args, "--format", "json")
    rows = json.loads(js.stdout)["rows"]
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert parts[0] == str(row["x"]) and parts[2] == str(row["exact"])
        assert float(parts[8]) == float(row["norm_err"])


def test_verify_unknown_entry_lists_registry():
    r = run_cli("verify", "--entry", "bogus", "--xgrid", "1e5")
    assert r.returncode == 2
    assert "cor2_tau_k" in r.stderr


def test_verify_explicit_ylist_flags_rows():
    r = run_cli(
        "verify", "--entry", "cor2_tau_k", "--k", "2",
        "--xgrid", "1e5", "--ylist", "10,1413",
    )
    assert r.returncode == 0
    rows = [line.split(",") for line in r.stdout.splitlines()[1:]]
    flags = {row[1]: row[9] for row in rows}
    assert flags == {"10": "false", "1413": "true"}


def test_verify_reproducible_and_thread_independent():
    args = ("verify", "--entry", "cor4_tau_paren_k", "--k", "2", "--xgrid", "1e5,3e5")
    a = run_cli(*args, "--threads", "1")
    b = run_cli(*args, "--threads", "1")
    c = run_cli(*args, "--threads", "4")
    assert a.stdout == b.stdout == c.stdout


def test_envelopes_prop1_contains_spec_row():
    r = run_cli("envelopes", "--which", "prop1", "--m", "1", "--grid", "small")
    assert r.returncode == 0
    first = r.stdout.splitlines()[1].split(",")
    assert first[:4] == ["100", "4", "4", "1"]
    assert abs(float(first[4]) - 3.125) < 1e-12
    assert r.stdout.splitlines()[-1].startswith("fitted_constant,")


def test_envelopes_lemma4_rows():
    r = run_cli("envelopes", "--which", "lemma4", "--r", "2", "--x", "1e3,2e3,4e3")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 5  # header + 3 rows + fitted line
    for line in lines[1:4]:
        ratio = float(line.split(",")[4])
        assert 0 < ratio < 1e-30


def test_envelopes_psi_fitted_line():
    r = run_cli("envelopes", "--which", "psi", "--grid", "small", "--H", "4,16")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "H,t,lhs,envelope,ratio"
    assert lines[-1].startswith("fitted_constant,")
    assert float(lines[-1].split(",")[1]) <= 3.0


def test_envelopes_lemma2_columns():
    r = run_cli("envelopes", "--which", "lemma2", "--grid", "small")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "N,x,y,H,sigma,integral,remainder,envelope,ratio"
    row = lines[1].split(",")
    assert abs(float(row[5]) + float(row[6]) - float(row[4])) < 1e-9


def test_envelopes_empty_grid_usage_error():
    r = run_cli("envelopes", "--which", "lemma4", "--x", ",")
    assert r.returncode == 2


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("format=json\nthreads=2\n")
    r = run_cli("delta", "--n", "6", "--r", "2", "--config", str(cfg))
    assert r.returncode == 0
    assert json.loads(r.stdout)["rows"][0]["value"] == 2
    # flags override the file
    r2 = run_cli("delta", "--n", "6", "--r", "2", "--config", str(cfg), "--format", "csv")
    assert r2.stdout.splitlines()[0].startswith("n,r,value")


def test_cache_dir_flag_round_trip(tmp_path):
    args = ("verify", "--entry", "cor2_tau_k", "--k", "2", "--xgrid", "1e5")
    plain = run_cli(*args)
    cold = run_cli(*args, "--cache-dir", str(tmp_path))
    warm = run_cli(*args, "--cache-dir", str(tmp_path))
    assert plain.stdout == cold.stdout == warm.stdout
    assert any(p.suffix == ".vt" for p in tmp_path.iterdir())


def test_cache_dir_env_var(tmp_path):
    import os

    env = dict(os.environ, HYPLAB_CACHE_DIR=str(tmp_path))
    r = subprocess.run(
        [sys.executable, "-m", "hyplab.cli", "verify", "--entry", "cor2_tau_k",
         "--k", "2", "--xgrid", "1e5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert r.returncode == 0
    assert any(p.suffix == ".vt" for p in tmp_path.iterdir())


def test_verify_real_valued_entry():
    r = run_cli("verify", "--entry", "cor8_log_k", "--k", "1", "--xgrid", "1e5")
    assert r.returncode == 0
    row = r.stdout.splitlines()[1].split(",")
    assert float(row[2]) > 0  # exact sum of a positive convolution


def test_selftest_passes():
    r = run_cli("selftest")
    assert r.returncode == 0
    assert "FAIL" not in r.stdout


def test_shortsum_far_window_over_cap_refused_at_once():
    # the far-window sweep would need prefix arrays of isqrt(x) = 2^31
    # entries; it is refused before any allocation or prime sieve
    r = subprocess.run(
        [
            sys.executable, "-m", "hyplab.cli", "shortsum", "--function", "lambda_k",
            "--k", "1", "--x", "4611686018427387904", "--y", "10",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode == 4
    assert "segment cap" in r.stderr


def test_shortsum_multiplicative_over_cap_refused_at_once():
    # engine 1 at x = 2^62 would sieve primes up to 2^31; that sieve is
    # refused before it is allocated.  The window is admissible (y >= 5.97e8
    # at this x), so the envelope check, which comes first, lets it through
    r = subprocess.run(
        [
            sys.executable, "-m", "hyplab.cli", "shortsum", "--function", "tau_k",
            "--k", "2", "--x", "4611686018427387904", "--y", "1000000000",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode == 4
    assert "segment cap" in r.stderr


def test_shortsum_refuses_inadmissible_window_before_summing(monkeypatch):
    # y = 10^4 lies below the admissible range at x = 10^10; the refusal
    # comes before the hyperbola split sieves anything
    def never(*args, **kwargs):
        raise AssertionError("summed an inadmissible window")

    monkeypatch.setattr(arith, "short_sum_bruteforce", never)
    monkeypatch.setattr(hyperbola, "short_hyperbola", never)
    argv = "shortsum --function tau_k --k 3 --x 10000000000 --y 10000 --method hyperbola"
    assert cli.main(argv.split()) == 3


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    argv = ["delta", "--n", "12", "--r", "2"]
    assert cli.main([*argv, "--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("n,r,value")


def test_each_run_installs_its_own_cache(tmp_path, monkeypatch, capsys):
    # a run without --cache-dir must not write into an earlier run's directory
    monkeypatch.delenv("HYPLAB_CACHE_DIR", raising=False)
    first = ["shortsum", "--function", "tau_k", "--k", "2", "--x", "1000", "--y", "50"]
    second = ["shortsum", "--function", "tau_k", "--k", "2", "--x", "2000", "--y", "50"]
    try:
        assert cli.main([*first, "--cache-dir", str(tmp_path)]) == 0
        assert len(list(tmp_path.iterdir())) == 1
        assert cli.main(second) == 0
    finally:
        arith.set_segment_cache(None)
    assert len(list(tmp_path.iterdir())) == 1
    capsys.readouterr()


@pytest.mark.parametrize("where", ["under-a-file", "a-file"])
def test_unusable_cache_dir_is_usage_error(where, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "sub" if where == "under-a-file" else blocker
    argv = ["shortsum", "--function", "tau_k", "--k", "2", "--x", "1000", "--y", "50"]
    try:
        assert cli.main([*argv, "--cache-dir", str(path)]) == 2
    finally:
        arith.set_segment_cache(None)
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("hyplab: usage: cache directory")
