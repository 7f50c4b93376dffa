import argparse
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import curveseq
from curveseq import cartier, cli, frobenius, modpspace
from curveseq.cartier import legendre_hasse
from curveseq.cli import main, report_from_json
from curveseq.series import TruncatedSeries


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_seq_golden(capsys):
    code, out = run_cli(["seq", "--init", "0,1,2,-1/8,-1/2", "--n", "6"], capsys)
    assert code == 0
    assert "c_5 = -77/128" in out


def test_congruence_pass(capsys):
    code, out = run_cli(["congruence", "--p", "5", "--rmax", "1", "--nmax", "125"], capsys)
    assert code == 0
    assert "congruences" in out


def test_congruence_failure_exit_code(tmp_path, capsys):
    # non-special data loses 7-integrality: the scan fails and exit is 1,
    # and every failed check carries a witness in the JSON report
    path = tmp_path / "fail.json"
    code, out = run_cli(
        ["congruence", "--init", "0,0,0,0,1", "--p", "7", "--rmax", "1",
         "--nmax", "120", "--json", str(path)],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out
    data = json.loads(path.read_text())
    failed = [c for c in data["checks"] if c["status"] == "fail"]
    assert failed and all(c["witness"] is not None for c in failed)


def test_congruence_details_name_the_levels_scanned(tmp_path, capsys):
    # at p = 3, n <= 3 only level r = 0 has a pair: --rmax 5 scans r <= 0
    path = tmp_path / "cong.json"
    code, _ = run_cli(["congruence", "--p", "3", "--nmax", "3", "--rmax", "5", "--json", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert data["params"]["rmax"] == 5
    (check,) = [c for c in data["checks"] if c["name"] == "congruences"]
    assert check["details"] == "p=3, r<=0, n<=3"
    code, _ = run_cli(["congruence", "--p", "3", "--nmax", "27", "--rmax", "5", "--json", str(path)], capsys)
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"] == "congruences"]
    assert check["details"] == "p=3, r<=2, n<=27"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--bogus-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["modp-space", "--p", "13"],  # bad reduction
        ["cartier", "--p", "4"],  # not prime
        ["asd", "--p", "3"],  # below 5
        ["asd", "--curve", "1,1", "--p", "31"],  # singular mod p
        ["modp-space"],  # neither --p nor --pmax
        ["seq", "--n", "-3"],
        ["closed-forms", "--n", "3"],  # the pinned tables need 5 rows
        ["congruence", "--nmax", "-5"],
        ["congruence", "--rmax", "-1"],
        ["congruence", "--p", "7", "--nmax", "5"],  # no k p <= nmax
        ["congruence", "--p", "2", "--nmax", "2", "--rmax", "0"],  # c_n is not 2-integral
        ["denom", "--n", "-4"],
        ["cartier", "--kmax", "-2"],
        ["cartier", "--pmax", "-3"],
        ["asd", "--rmax", "0"],
        ["asd", "--nmax", "0"],
        ["modp-space", "--pmax", "1"],
        ["frobenius", "--pmax", "0"],
        ["frobenius", "--vp-limit", "4"],  # no prime below 5 is expanded
        ["modp-space", "--p", "7", "--pmax", "10"],  # both
        ["seq", "--init", "1/0,1,2,3,4"],  # zero denominator
        ["congruence", "--init", "0,1,2,3,1/0"],
        ["modp-space", "--pmax", "43", "--seed", "3"],  # the tabulation draws nothing
        ["seq", "--init", "1,2"],  # too few values
        ["seq", "--init", "0,1,2,3,x"],  # not a rational
        ["frobenius", "--curve", "1"],  # one value
        ["asd", "--curve", "1,b"],  # not an integer
        ["frobenius", "--curve"],  # no value
        ["all", "--seed", "-1"],  # Random(-n) draws what Random(n) draws
        ["cartier", "--seed", "-2"],
        ["modp-space", "--p", "41", "--seed", "-3"],
        ["all", "--quick"],  # retired: all runs one battery
        ["modp-space", "--p", "7", "--seed", "5"],  # the union check is exhaustive: nothing drawn
        ["modp-space", "--p", "318665857834031151167461"],  # psi_12, a strong pseudoprime to bases 2..37
    ],
)
def test_domain_error_exit_code(argv, capsys):
    # an input outside the domain is a usage error: exit 2, one message line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: " in err.strip().splitlines()[-1]
    assert not re.search(r"\b_\w+", err), err  # no private function named


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["frobenius", "--pmax", "40", "--vp-limit", "20"], "--curve", "-1,5"),
        (["asd", "--p", "7", "--rmax", "2", "--nmax", "3"], "--curve", "-1,5"),
        (["seq", "--n", "8"], "--init", "-1,0,2,-1/8,-1/2"),
    ],
    ids=["frobenius", "asd", "seq"],
)
def test_negative_value_parses(argv, flag, value, tmp_path, capsys):
    # argparse reads "-1,5" as an option unless it is joined to the flag
    outputs = []
    for value_args in ([flag, value], [f"{flag}={value}"]):
        path = tmp_path / "report.json"
        code, out = run_cli([argv[0], *value_args, *argv[1:], "--json", str(path)], capsys)
        outputs.append((code, out, path.read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_modp_space_and_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(["modp-space", "--p", "7", "--json", str(path)], capsys)
    assert code == 0
    assert "dim V_7 = 2" in out
    data = json.loads(path.read_text())
    assert data["command"] == "modp-space"
    assert data["params"] == {"p": 7, "pmax": None, "seed": None}
    assert set(data.keys()) == {"command", "params", "version", "checks"}
    for check in data["checks"]:
        assert set(check.keys()) == {"name", "status", "details", "witness"}
        assert check["status"] in ("pass", "fail", "skip")
    rep = report_from_json(path.read_text())
    assert rep.to_dict() == data  # parse(emit(report)) round-trips


def test_modp_space_pmax_tabulation(capsys):
    code, out = run_cli(["modp-space", "--pmax", "23"], capsys)
    assert code == 0
    assert "cartier form" in out and "23" in out


def test_json_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    # refused before any check runs: no table, one error line, exit 2
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--n", "3", "--json", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines()[-1].startswith("curveseq: error: --json ")
    assert not (tmp_path / "missing").exists()


def check_statuses(argv, tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli([*argv, "--json", str(path)], capsys)
    assert code == 0
    return {c["name"]: (c["status"], c["details"]) for c in json.loads(path.read_text())["checks"]}


def test_modp_space_large_prime_without_seed_skips_the_union_check(tmp_path, capsys):
    # above the exhaustive limit the union theorem runs only on a seeded sample
    name = "C_p = C_1 iff proportional to special"
    status, details = check_statuses(["modp-space", "--p", "41"], tmp_path, capsys)[name]
    assert status == "skip" and "--seed" in details
    assert check_statuses(["modp-space", "--p", "41", "--seed", "3"], tmp_path, capsys)[name][0] == "pass"
    assert check_statuses(["modp-space", "--p", "31"], tmp_path, capsys)[name][0] == "pass"


def test_closed_forms_below_l5_skips(tmp_path, capsys):
    assert check_statuses(["closed-forms", "--n", "4"], tmp_path, capsys)["l_5 = -154"] == (
        "skip", "--n 4 stops before l_5"
    )
    assert check_statuses(["closed-forms", "--n", "5"], tmp_path, capsys)["l_5 = -154"][0] == "pass"


def test_seq_main_data_below_c5_skips(tmp_path, capsys):
    assert check_statuses(["seq", "--n", "5"], tmp_path, capsys)["golden-c5"] == ("skip", "--n 5 stops before c_5")
    assert check_statuses(["seq", "--n", "6"], tmp_path, capsys)["golden-c5"][0] == "pass"
    # other data has no golden value: nothing to skip
    assert "golden-c5" not in check_statuses(["seq", "--init", "0,0,0,0,1", "--n", "5"], tmp_path, capsys)


def test_denom_other_data_skips_the_main_data_bound(tmp_path, capsys):
    # 2^(2n-3) c_n is integral for the main data; on other data that check
    # is reported as skipped, not dropped
    checks = check_statuses(["denom", "--init", "0,1,0,0,0", "--n", "50"], tmp_path, capsys)
    assert list(checks) == ["denominator-bound", "2^(2n-3) c_n integral"]
    assert checks["2^(2n-3) c_n integral"] == ("skip", "the bound is stated for the main data")
    assert check_statuses(["denom", "--n", "50"], tmp_path, capsys)["2^(2n-3) c_n integral"][0] == "pass"


def test_seq_extend_is_decided_on_the_printed_terms(monkeypatch, tmp_path, capsys):
    # --n 5 takes no step, so nothing is checked; a term moved off the
    # recurrence fails, and the witness names it
    assert check_statuses(["seq", "--n", "5"], tmp_path, capsys)["extend"][0] == "skip"
    assert check_statuses(["seq", "--n", "6"], tmp_path, capsys)["extend"] == ("pass", "6 terms")
    real = cli.extend_rational

    def corrupt_c8(spec, init, n):
        seq = real(spec, init, n)
        return seq[:8] + [seq[8] + 1] + seq[9:]

    monkeypatch.setattr(cli, "extend_rational", corrupt_c8)
    path = tmp_path / "seq.json"
    code, out = run_cli(["seq", "--n", "12", "--json", str(path)], capsys)
    assert code == 1 and "[FAIL] extend" in out
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"] == "extend"]
    assert check["witness"] == {"first_violated_index": 8}


def test_modp_space_pmax_without_good_prime_skips(tmp_path, capsys):
    # the tabulation starts at p = 7: below it nothing is examined
    path = tmp_path / "modp.json"
    code, out = run_cli(["modp-space", "--pmax", "3", "--json", str(path)], capsys)
    assert code == 0
    checks = json.loads(path.read_text())["checks"]
    assert len(checks) == 1
    assert checks[0]["status"] == "skip" and checks[0]["details"]


def test_identities_command(capsys):
    code, out = run_cli(["identities"], capsys)
    assert code == 0
    assert "0 failed" in out


def test_closed_forms_command(capsys):
    code, out = run_cli(["closed-forms", "--n", "10"], capsys)
    assert code == 0
    assert "-154" in out


def test_asd_command(capsys):
    code, out = run_cli(["asd", "--curve", "0,1", "--p", "5", "--rmax", "2", "--nmax", "3"], capsys)
    assert code == 0


def test_cartier_command(capsys):
    code, out = run_cli(["cartier", "--p", "7", "--pmax", "40"], capsys)
    assert code == 0


def test_cartier_decides_its_claims_on_one_expansion(monkeypatch, capsys):
    # the four Cartier claims share one chart at (0, 2): one Newton series
    # of Q(x)^(-1/2) beyond length 1 (the length-1 calls are place checks)
    real = TruncatedSeries.inverse_sqrt
    lengths = []

    def counted(series, root0):
        lengths.append(series.precision)
        return real(series, root0)

    monkeypatch.setattr(TruncatedSeries, "inverse_sqrt", counted)
    code, _ = run_cli(["cartier", "--p", "11"], capsys)
    assert code == 0
    assert len([n for n in lengths if n > 1]) == 1


def test_cartier_scan_reports_the_primes_it_scanned(tmp_path, capsys):
    # --pmax 3 scans p = 3 alone
    path = tmp_path / "cartier.json"
    code, _ = run_cli(["cartier", "--p", "7", "--pmax", "3", "--json", str(path)], capsys)
    assert code == 0
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"].endswith("for good p <= 3")]
    assert check["status"] == "pass"
    assert check["details"] == "1 good primes"


def test_cartier_refuted_invariant_is_a_failure_with_a_witness(monkeypatch, tmp_path, capsys):
    # beta' moved by one: C(eta) = beta' omega fails at exponent 0, where
    # the difference -omega starts; the run reports it instead of raising
    window = cartier.hasse_window

    def beta_off_by_one(f_coeffs, p, n):
        a = window(f_coeffs, p, n)
        return (*a[:2], (a[2] + 1) % p, a[3])

    monkeypatch.setattr(cartier, "hasse_window", beta_off_by_one)
    path = tmp_path / "cartier.json"
    code, out = run_cli(["cartier", "--p", "7", "--pmax", "3", "--json", str(path)], capsys)
    assert code == 1
    assert "[FAIL] (alpha', beta') != (0,0) at p=7" in out
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"] == "(alpha', beta') != (0,0) at p=7"]
    assert check["status"] == "fail"
    assert check["witness"] == {"eta": 0}


def test_cartier_tabulation_is_decided_by_the_trace_of_frobenius(monkeypatch, tmp_path, capsys):
    path = tmp_path / "cartier.json"
    code, _ = run_cli(["cartier", "--p", "7", "--pmax", "100", "--json", str(path)], capsys)
    assert code == 0
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"] == "invariant pair tabulation"]
    # the scan reads 22 good primes <= 100; all but p = 3 are point-counted
    assert check["status"] == "pass"
    assert check["details"].endswith("; alpha' = trace of Frobenius mod p at 21 primes")
    # below 7 the route reads no prime, and the tabulation decides nothing
    code, _ = run_cli(["cartier", "--p", "7", "--pmax", "5", "--json", str(path)], capsys)
    assert code == 0
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"] == "invariant pair tabulation"]
    assert check["status"] == "skip" and check["details"].endswith("at 0 primes")
    # alpha' shifted by one at every prime: the trace route refutes it at each
    real = cartier.alphabeta_quartic

    def alpha_shifted(p):
        inv = real(p)
        return cartier.CartierInvariants(p, (inv.alpha + 1) % p, inv.beta)

    monkeypatch.setattr(cli, "alphabeta_quartic", alpha_shifted)
    code, out = run_cli(["cartier", "--p", "7", "--pmax", "30", "--json", str(path)], capsys)
    assert code == 1
    assert "[FAIL] invariant pair tabulation" in out
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"] == "invariant pair tabulation"]
    assert check["witness"] == {"alpha_off_trace": [7, 11, 17, 19, 23, 29]}


def test_cartier_report_names_lambda_0_and_the_hasse_values(tmp_path, capsys):
    path = tmp_path / "cartier.json"
    for p, seed in ((7, 0), (11, 5), (23, 9)):
        code, _ = run_cli(["cartier", "--p", str(p), "--pmax", "3", "--seed", str(seed), "--json", str(path)], capsys)
        assert code == 0
        lam0 = random.Random(seed).randrange(2, p)
        data = legendre_hasse(lam0, p)
        (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"] == "K' = -(m+1) H identity"]
        assert check["details"] == f"lambda_0={lam0}, H_m={data.h_m}, H_(m-1)={data.h_m1}"


def test_frobenius_command(capsys):
    code, out = run_cli(["frobenius", "--pmax", "20", "--vp-limit", "11"], capsys)
    assert code == 0


def test_frobenius_routes_must_agree(monkeypatch, tmp_path, capsys):
    # a formula that disagrees with the expansion is a failure with a witness
    honda = frobenius.omega_coefficient

    def off_by_p(a, b, n, p, r):
        return (honda(a, b, n, p, r) + p) % p**r

    monkeypatch.setattr(frobenius, "omega_coefficient", off_by_p)
    path = tmp_path / "frob.json"
    code, out = run_cli(["frobenius", "--pmax", "20", "--json", str(path)], capsys)
    assert code == 1
    (check,) = [c for c in json.loads(path.read_text())["checks"] if c["name"].startswith("v_p(c_(p^2)) = 1")]
    assert check["status"] == "fail"
    assert [w["p"] for w in check["witness"]["routes_disagree"]] == [5, 11, 17]


def test_refuting_self_check_is_a_failure_with_a_witness(monkeypatch, tmp_path, capsys):
    # a tail vector off the closed form trips compute_vp's self-check: the
    # run reports the refutation (exit 1, witness in the report), no traceback
    monkeypatch.setattr(modpspace, "tail_vector_mod", lambda p: (1, 0, 0, 0))
    path = tmp_path / "modp.json"
    code = main(["modp-space", "--p", "7", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert "[FAIL] kernel self-check" in captured.out
    report = json.loads(path.read_text())
    assert report["params"] == {"p": 7, "pmax": None, "seed": None}
    (check,) = report["checks"]
    assert check["status"] == "fail"
    assert check["witness"] == {"refutation": "basis vector (1, 0, 0, 0) escapes the closed form at p = 7"}


def test_frobenius_vp_limit_bounds_the_cross_check_only(tmp_path, capsys):
    path = tmp_path / "frob.json"
    code, out = run_cli(["frobenius", "--pmax", "20", "--vp-limit", "11", "--json", str(path)], capsys)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    assert checks["v_p(c_(p^2)) = 1 at supersingular p"]["details"] == (
        "3 by Honda's formula, 2 cross-checked by expansion"
    )
    skipped = checks["v_p(c_(p^2)) above --vp-limit"]
    assert skipped["status"] == "skip" and skipped["details"] == "expansion cross-check not run at p in [17]"


def test_frobenius_no_good_prime_skips(tmp_path, capsys):
    # every prime is bad for y^2 = x^3: nothing is compared, so nothing passes
    path = tmp_path / "frob.json"
    code, out = run_cli(["frobenius", "--curve", "0,0", "--json", str(path)], capsys)
    assert code == 0
    checks = json.loads(path.read_text())["checks"]
    assert len(checks) == 3
    assert all(c["status"] == "skip" and c["details"] for c in checks)


def test_all_quick(capsys):
    # the one battery (the --quick subset is retired) stays quick
    import time

    t0 = time.time()
    code, out = run_cli(["all", "--seed", "1"], capsys)
    assert code == 0
    assert "0 failed" in out
    assert time.time() - t0 < 120  # comfortably inside the stated budgets


def test_all_is_its_subcommands(tmp_path, capsys):
    # all parses each step as a command line: its checks are those of the
    # standalone runs, in order
    def checks(argv):
        path = tmp_path / "report.json"
        run_cli([*argv, "--json", str(path)], capsys)
        return json.loads(path.read_text())["checks"]

    steps = [
        ["identities"],
        ["closed-forms", "--n", "60"],
        ["congruence", "--p", "3", "--rmax", "2", "--nmax", "500"],
        ["denom", "--n", "300"],
        ["modp-space", "--p", "7"],
        ["cartier", "--p", "7", "--pmax", "100", "--seed", "1"],
        ["frobenius", "--pmax", "50"],
        ["asd", "--p", "5", "--rmax", "2", "--nmax", "5"],
    ]
    assert checks(["all", "--seed", "1"]) == [c for argv in steps for c in checks(argv)]


def test_all_keeps_the_other_steps_when_a_self_check_trips(monkeypatch, tmp_path, capsys):
    # a refutation in modp-space is one failed check in that step's place;
    # the steps before and after it still report (exit 1)
    def checks(argv):
        path = tmp_path / "report.json"
        code, _ = run_cli([*argv, "--json", str(path)], capsys)
        return code, json.loads(path.read_text())["checks"]

    _, whole = checks(["all", "--seed", "7"])
    _, step = checks(["modp-space", "--p", "7"])
    monkeypatch.setattr(modpspace, "tail_vector_mod", lambda p: (1, 0, 0, 0))
    code, patched = checks(["all", "--seed", "7"])
    assert code == 1
    (i,) = [i for i, c in enumerate(patched) if c["status"] == "fail"]
    refutation = "basis vector (1, 0, 0, 0) escapes the closed form at p = 7"
    assert patched[i] == {
        "name": "kernel self-check",
        "status": "fail",
        "details": f"modp-space --p 7: {refutation}",
        "witness": {"refutation": refutation},
    }
    assert whole[i : i + len(step)] == step
    assert patched[:i] == whole[:i] and patched[i + 1 :] == whole[i + len(step) :]
    assert patched[:i] and patched[i + 1 :]


def test_a_self_check_that_trips_keeps_the_checks_decided_before_it(monkeypatch, tmp_path, capsys):
    # the refutation joins the report the command was filling, alone or as
    # a step of all
    def trip(init4, p):
        raise AssertionError(f"extendability routes disagree at p = {p}")

    monkeypatch.setattr(cli, "extendability_test", trip)
    path = tmp_path / "report.json"
    code, _ = run_cli(["modp-space", "--p", "7", "--json", str(path)], capsys)
    assert code == 1
    assert [(c["name"], c["status"]) for c in json.loads(path.read_text())["checks"]] == [
        ("dim V_7 = 2", "pass"),
        ("tails satisfy recurrence", "pass"),
        ("sigma_0, sigma_1 independent", "pass"),
        ("kernel self-check", "fail"),
    ]
    code, _ = run_cli(["all", "--seed", "7", "--json", str(path)], capsys)
    assert code == 1
    checks = json.loads(path.read_text())["checks"]
    assert len(checks) == 43
    assert [c["details"] for c in checks if c["status"] == "fail"] == [
        "modp-space --p 7: extendability routes disagree at p = 7"
    ]


def test_report_params_are_the_parsed_options(tmp_path, capsys):
    # one rule for every command: each option but --json, as parsed (None
    # where it was not given, --init as its values)
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    argvs = {
        "seq": ["--n", "3"],
        "congruence": ["--p", "3", "--nmax", "9"],
        "denom": ["--init", "1,1,2,-1/8,-1/2", "--n", "5"],
        "identities": [],
        "closed-forms": ["--n", "5"],
        "modp-space": ["--pmax", "3"],
        "cartier": ["--p", "11", "--pmax", "20", "--kmax", "3", "--seed", "9"],
        "frobenius": ["--pmax", "20", "--vp-limit", "11"],
        "asd": ["--rmax", "1", "--nmax", "1"],
        "all": [],
    }
    assert set(argvs) == set(sub.choices)
    path = tmp_path / "report.json"
    params = {}
    for name, rest in argvs.items():
        run_cli([name, *rest, "--json", str(path)], capsys)
        params[name] = json.loads(path.read_text())["params"]
        assert set(params[name]) == {a.dest for a in sub.choices[name]._actions} - {"help", "json"}, name
    assert params["cartier"] == {"p": 11, "pmax": 20, "kmax": 3, "seed": 9}
    assert params["modp-space"] == {"p": None, "pmax": 3, "seed": None}
    assert params["frobenius"] == {"curve": [0, 1], "pmax": 20, "vp_limit": 11}
    assert params["denom"] == {"init": ["1/1", "1/1", "2/1", "-1/8", "-1/2"], "n": 5}


def test_closed_stdout_pipe_exits_quietly_with_141():
    """`curveseq modp-space --pmax 400 | head -1`: the reader has gone when
    the report is written.  Exit 128 + SIGPIPE, not 1 (a refuted claim), and
    no traceback."""
    src = Path(curveseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curveseq.cli", "modp-space", "--pmax", "400"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_report_scalars_serialize_exactly():
    from fractions import Fraction

    from curveseq.cli import json_scalar

    assert json_scalar(Fraction(-77, 128)) == "-77/128"
    assert json_scalar([Fraction(1, 2), 5]) == ["1/2", 5]


def test_all_checks_match_the_benchmark_pin(tmp_path, capsys):
    # the benchmark gates `suite` on these (name, status) pairs; a renamed
    # check fails here first
    pinned = json.loads((Path(__file__).parents[1] / "perfbench" / "suite_checks.json").read_text())
    path = tmp_path / "all.json"
    code, out = run_cli(["all", "--seed", "7", "--json", str(path)], capsys)
    assert code == 0
    checks = json.loads(path.read_text())["checks"]
    assert Counter((c["name"], c["status"]) for c in checks) == Counter(map(tuple, pinned))
