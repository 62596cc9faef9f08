"""End-to-end CLI behaviour: determinism, golden output, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from gsvkit import cherncalc, cli, indices
from gsvkit.cli import load_job, main, render_report, run_job
from gsvkit.localring import MACAULAY_MAX_DEGREE

REPO = Path(__file__).resolve().parent.parent
GOLDEN_JOB = REPO / "golden" / "total_gsv_worked_example.job"
GOLDEN_JOBS = sorted((REPO / "golden").glob("*.job"))

TIMING = re.compile(r'"timing": [0-9.e+-]+')


def normalize(text: str) -> str:
    return TIMING.sub('"timing": 0.0', text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_job(tmp_path, text):
    path = tmp_path / "job.ini"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# golden run

def test_golden_total_gsv_results(capsys):
    code, out, err = run_cli(capsys, "total-gsv", "--job", str(GOLDEN_JOB))
    assert code == 0
    report = json.loads(out)
    results = report["results"]
    assert results["closed_form"] == -6
    assert results["local_sum"] == -6
    assert results["per_point"] == [-1, -5]
    assert results["consistent"] is True
    assert report["anomalies"] == []
    assert "total-gsv" in err  # table on stderr


def test_golden_byte_determinism(capsys):
    _, first, _ = run_cli(capsys, "total-gsv", "--job", str(GOLDEN_JOB),
                          "--quiet")
    _, second, _ = run_cli(capsys, "total-gsv", "--job", str(GOLDEN_JOB),
                           "--quiet")
    assert normalize(first) == normalize(second)


def assert_matches_fixture(capsys, mode, job):
    # golden/<name>.job prints golden/<name>.expected.json, timing aside
    code, out, _ = run_cli(capsys, mode, "--job", str(job), "--quiet")
    assert code == 0, job.name
    expected = job.with_name(job.stem + ".expected.json").read_text()
    assert normalize(out).strip() == normalize(expected).strip(), job.name


def test_golden_matches_stored_fixture(capsys):
    # every golden job, in the mode its file names
    assert len(GOLDEN_JOBS) >= 4
    for job in GOLDEN_JOBS:
        assert_matches_fixture(capsys, load_job(job.read_text()).mode, job)


def test_chern_check_golden_matches_stored_fixture(capsys):
    assert_matches_fixture(capsys, "chern-check",
                           REPO / "golden" / "chern_check_m13.job")


def test_golden_oracle_agrees(capsys):
    code, out, _ = run_cli(capsys, "total-gsv", "--job", str(GOLDEN_JOB),
                           "--oracle", "--quiet")
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["agreement"] is True
    assert report["oracle"]["dimensions_checked"] == 6


def test_quiet_suppresses_table(capsys):
    _, _, err = run_cli(capsys, "total-gsv", "--job", str(GOLDEN_JOB),
                        "--quiet")
    assert err == ""


# ---------------------------------------------------------------------------
# other modes

BOUNDS_JOB = """
[job]
mode = bounds
ambient = 3

[parameters]
r = 2
tau = 2
"""


def test_bounds_mode(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bounds", "--job",
                           write_job(tmp_path, BOUNDS_JOB), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["lo"] == -2
    assert results["hi"] == -1
    assert results["eps_r"] == 0
    assert results["published_row"]["matches_formula"] is True


def test_bounds_computes_its_constants_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = indices.nondegenerate_bound_constants

    def counted(m, r):
        calls.append((m, r))
        return original(m, r)

    monkeypatch.setattr(indices, "nondegenerate_bound_constants", counted)
    monkeypatch.setattr(cli, "nondegenerate_bound_constants", counted)
    job = BOUNDS_JOB.replace("ambient = 3", "ambient = 7") + "rho = 4\n"
    code, out, _ = run_cli(capsys, "bounds", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0
    assert calls == [(7, 2)]
    results = json.loads(out)["results"]
    monkeypatch.undo()
    assert (results["lo"], results["hi"]) == \
        indices.gsv_bounds_nondegenerate(7, 2, 2)
    assert (results["gsv_at_rho"], results["positive_at_rho"]) == \
        indices.gsv_from_rho(7, 2, 2, 4)


def test_bounds_mode_bigint_folding(tmp_path, capsys):
    big_tau = 2 ** 60
    job = BOUNDS_JOB.replace("tau = 2", f"tau = {big_tau}")
    code, out, _ = run_cli(capsys, "bounds", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["lo"] == str(-big_tau)
    assert results["lo_bigint"] is True
    assert results["hi"] == str(1 - big_tau)
    assert results["hi_bigint"] is True


def test_bounds_mode_large_ambient(tmp_path, capsys):
    # the constants have about 6000 digits, past the interpreter's default
    # cap on int-to-str conversion; the table on stderr prints them too
    job = BOUNDS_JOB.replace("ambient = 3", "ambient = 20000").replace(
        "r = 2", "r = 10000")
    code, out, err = run_cli(capsys, "bounds", "--job",
                             write_job(tmp_path, job))
    assert code == 0
    results = {key: int(Decimal(value)) for key, value in
               json.loads(out)["results"].items() if isinstance(value, str)}
    binom = math.comb(19998, 9999)
    assert results["hi"] - results["lo"] == binom
    assert results["alpha"] - results["eps_r"] == -binom
    assert str(Decimal(results["alpha"])) in err


def test_bounds_divergent_published_row(tmp_path, capsys):
    # m = 4, r = 1 is covered only by the published "m-1" row, the one
    # that disagrees with the proved bounds
    job = BOUNDS_JOB.replace("r = 2", "r = 1").replace("ambient = 3",
                                                       "ambient = 4")
    code, out, _ = run_cli(capsys, "bounds", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0  # a documented table discrepancy is not a run anomaly
    results = json.loads(out)["results"]
    assert results["published_row"]["row"] == "m-1"
    assert results["published_row"]["matches_formula"] is False


def test_bounds_published_row_labels(tmp_path, capsys):
    # the labels collide at m = 3 (r = 1 fits "2" and "m-1", r = 2 fits
    # "1" and "m-2") and at m = 4 (r = 2 fits "2" and "m-2"); the row of
    # the smaller dim V = m - r wins
    for m in range(2, 13):
        for r in range(1, m):
            job = BOUNDS_JOB.replace("ambient = 3", f"ambient = {m}").replace(
                "r = 2", f"r = {r}")
            code, out, _ = run_cli(capsys, "bounds", "--job",
                                   write_job(tmp_path, job), "--quiet")
            assert code == 0, (m, r)
            results = json.loads(out)["results"]
            if r == m - 1:
                row = "1"
            elif r == m - 2:
                row = "2"
            elif r == 2:
                row = "m-2"
            elif r == 1:
                row = "m-1"
            else:
                assert "published_row" not in results, (m, r)
                continue
            assert results["published_row"]["row"] == row, (m, r)


POINCARE_JOB = """
[job]
mode = poincare
ambient = 3

[foliation]
degree = 1

[curve]
equations = "z0^2*z1 - z2^3", "z3^2 - z0*z1"
multidegree = 3, 2

[parameters]
milnors = 2, 6
"""


def test_poincare_mode(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "poincare", "--job",
                           write_job(tmp_path, POINCARE_JOB), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["gsv"] == -6
    assert results["inequality_holds"] is False
    assert results["equivalence_ok"] is True
    assert results["milnor_bound"] == {"lhs": 6, "rhs": 6, "holds": True}


PLANE_POINCARE_JOB = """
[job]
mode = poincare
ambient = 2

[parameters]
k = 1
degree = 3
"""


def test_poincare_parameters_only(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "poincare", "--job",
                           write_job(tmp_path, PLANE_POINCARE_JOB), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["gsv"] == 4
    assert results["plane_bound"]["holds"] is True


CHERN_JOB = """
[job]
mode = chern-check
ambient = 3

[foliation]
degree = 1

[curve]
equations = "z0^2*z1 - z2^3", "z3^2 - z0*z1"
multidegree = 3, 2
"""


def test_chern_check_mode(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "chern-check", "--job",
                           write_job(tmp_path, CHERN_JOB), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["triple_agreement"] is True
    assert results["integral"] == -6
    assert results["closed_form"] == -6
    assert results["equal"] is True


def test_chern_check_at_the_ambient_cap(tmp_path, capsys):
    job = ("[job]\nmode = chern-check\n"
           f"ambient = {cli.CHERN_CHECK_MAX_AMBIENT}\n"
           "[parameters]\nk = 3\ndegree = 2\n")
    code, out, _ = run_cli(capsys, "chern-check", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["triple_agreement"] is True
    assert results["integral"] == results["closed_form"] == 262143
    assert results["equal"] is True


def test_chern_check_calls_each_route_once(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("chern_difference_recursion", "chern_difference_expansion",
                 "chern_difference_inversion"):
        route = getattr(cli, name)

        def counted(*args, name=name, route=route):
            calls.append(name)
            return route(*args)

        monkeypatch.setattr(cli, name, counted)
    # only the expansion builds the partition table, in cherncalc
    build = cherncalc.signed_partition_table

    def counted_table(*args):
        calls.append("signed_partition_table")
        return build(*args)

    monkeypatch.setattr(cherncalc, "signed_partition_table", counted_table)
    path = write_job(tmp_path, CHERN_JOB)
    for jobs in (1, 2):
        code, out, _ = run_cli(capsys, "chern-check", "--job", path, "--quiet")
        assert code == 0
        assert json.loads(out)["results"]["triple_agreement"] is True
        assert sorted(calls) == sorted(jobs * [
            "chern_difference_expansion", "chern_difference_inversion",
            "chern_difference_recursion", "signed_partition_table"])


def test_chern_check_route_disagreement_exit_2(tmp_path, capsys,
                                                monkeypatch):
    route = cli.chern_difference_inversion

    def wrong_top_class(c_tx, c_n):
        classes = route(c_tx, c_n)
        return classes[:-1] + (2 * classes[-1],)

    monkeypatch.setattr(cli, "chern_difference_inversion", wrong_top_class)
    code, out, _ = run_cli(capsys, "chern-check", "--job",
                           write_job(tmp_path, CHERN_JOB), "--quiet")
    assert code == 2
    report = json.loads(out)
    assert report["results"]["triple_agreement"] is False
    assert report["results"]["equal"] is True
    assert report["anomalies"] == [
        "difference-class identities disagree symbolically"]


def test_arithmetic_modes_ignore_the_oracle(tmp_path, capsys):
    for mode, job in (("bounds", BOUNDS_JOB), ("poincare", POINCARE_JOB),
                      ("chern-check", CHERN_JOB)):
        path = write_job(tmp_path, job)
        code, out, _ = run_cli(capsys, mode, "--job", path, "--quiet")
        with_code, with_out, _ = run_cli(capsys, mode, "--job", path,
                                         "--oracle", "--quiet")
        report, with_oracle = json.loads(out), json.loads(with_out)
        assert with_code == code == 0, mode
        assert with_oracle["results"] == report["results"], mode
        assert "oracle" not in with_oracle and "oracle" not in report, mode


def test_bigint_inside_a_list(tmp_path, capsys):
    # a list entry has no key for a sibling flag, so it folds in place
    job = POINCARE_JOB.replace("milnors = 2, 6",
                               "milnors = 9007199254740993, 2")
    code, out, _ = run_cli(capsys, "poincare", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0
    assert json.loads(out)["inputs"]["parameters"]["milnors"] == [
        {"_bigint": True, "value": "9007199254740993"}, 2]


SCHWARTZ_JOB = """
[job]
mode = schwartz
ambient = 3

[foliation]
degree = 1
components = "z0", "7*z1", "3*z2", "4*z3"

[curve]
equations = "z0^2*z1 - z2^3", "z3^2 - z0*z1"
multidegree = 3, 2
order = 2, 1

[points]
point = 0 : 0, 0, 0
point = 1 : 0, 0, 0
"""


def test_schwartz_mode_with_chain_order(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "schwartz", "--job",
                           write_job(tmp_path, SCHWARTZ_JOB), "--quiet")
    assert code == 0
    detail = json.loads(out)["results"]["per_point_detail"]
    assert [d["schwartz"] for d in detail] == [1, 1]
    assert [d["milnor"] for d in detail] == [2, 6]
    assert all(d["quasihomogeneous"] for d in detail)


def test_euler_mode(tmp_path, capsys):
    job = SCHWARTZ_JOB.replace("mode = schwartz", "mode = euler")
    code, out, _ = run_cli(capsys, "euler", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["chi"] == 2
    assert results["l"] == 2
    assert results["chi_at_least_l"] is True


def test_tjurina_and_milnor_modes(tmp_path, capsys):
    base = """
[job]
mode = MODE
ambient = 3

[curve]
equations = "z3^2 - z0*z1", "z0^2*z1 - z2^3"
multidegree = 2, 3

[points]
point = 0 : 0, 0, 0
point = 1 : 0, 0, 0
"""
    code, out, _ = run_cli(
        capsys, "tjurina",
        "--job", write_job(tmp_path, base.replace("MODE", "tjurina")),
        "--quiet", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["per_point"] == [2, 6]
    # one "tau" ideal per point
    assert report["oracle"] == {"agreement": True, "dimensions_checked": 2}
    code, out, _ = run_cli(
        capsys, "milnor",
        "--job", write_job(tmp_path, base.replace("MODE", "milnor")),
        "--quiet", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["per_point"] == [2, 6]
    # chain steps 1 and 2 at each of the two points
    assert report["oracle"] == {"agreement": True, "dimensions_checked": 4}


P4_ORACLE_JOB = """
[job]
mode = total-gsv
ambient = 4

[foliation]
degree = 1
components = "-9*z0", "-5*z1", "-8*z2", "-19/3*z3", "-7*z4"

[curve]
equations = "z2^4 + 3*z0^3*z1", "z3^3 + 2*z0*z1^2", "z4^2 - 5*z0*z1"

[points]
point = 0 : 0, 0, 0, 0
point = 1 : 0, 0, 0, 0
"""


def test_p4_oracle_agrees(tmp_path, capsys):
    # the Tjurina ideals have non-unit coefficients; at chart 1 a partial
    # scaling of the Macaulay rows gave 53 instead of 59
    code, out, _ = run_cli(capsys, "total-gsv", "--job",
                           write_job(tmp_path, P4_ORACLE_JOB), "--oracle",
                           "--quiet")
    assert code == 0
    report = json.loads(out)
    assert report["oracle"] == {"agreement": True, "dimensions_checked": 6}
    assert report["anomalies"] == []
    taus = [d["tau"] for d in report["results"]["per_point_detail"]]
    assert taus == [39, 59]


def test_local_gsv_mode(tmp_path, capsys):
    job = SCHWARTZ_JOB.replace("mode = schwartz", "mode = local-gsv")
    code, out, _ = run_cli(capsys, "local-gsv", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["per_point"] == [-1, -5]
    assert "closed_form" not in results


# ---------------------------------------------------------------------------
# error paths

def test_malformed_polynomial_exit_1(tmp_path, capsys):
    job = SCHWARTZ_JOB.replace('"7*z1"', '"7*z1 + z1*("')
    code, out, err = run_cli(capsys, "schwartz", "--job",
                             write_job(tmp_path, job))
    assert code == 1
    assert "byte offset" in json.loads(out)["error"]
    assert "byte offset" in err


def test_unknown_variable_exit_1(tmp_path, capsys):
    job = SCHWARTZ_JOB.replace('"7*z1"', '"7*w"')
    code, out, _ = run_cli(capsys, "schwartz", "--job",
                           write_job(tmp_path, job))
    assert code == 1
    assert "unknown variable" in json.loads(out)["error"]


def test_offsets_count_utf8_bytes(tmp_path, capsys):
    # an e-acute (2 bytes) before the section and a no-break space (2 bytes)
    # inside the string: both offsets are byte indexes into the file
    job = ("# \u00e9\n[job]\nmode = tjurina\nambient = 3\n[curve]\n"
           'equations = "z0^2*z1 - z2^3", "z3^2 - z0*\u00a0w"\n'
           "[points]\npoint = 0 : 0, 0, 0\n").encode()
    path = tmp_path / "job.ini"
    path.write_bytes(job)
    code, out, _ = run_cli(capsys, "tjurina", "--job", str(path), "--quiet")
    assert code == 1
    assert job.index(b"w\"") == 89
    assert json.loads(out)["error"] == (
        "[curve] equations: unknown variable 'w' (byte offset 12) -- file "
        "byte offset 89")


def test_offsets_count_crlf_bytes(tmp_path, capsys):
    # each CRLF line end is two bytes of the file, not one newline
    job = ('[job]\r\nmode = tjurina\r\nambient = 3\r\n[curve]\r\n'
           'equations = "z0 - w*z1", "z3^2 - z0*z2"\r\n'
           '[points]\r\npoint = 0 : 0, 0, 0\r\n').encode()
    path = tmp_path / "job.ini"
    path.write_bytes(job)
    code, out, _ = run_cli(capsys, "tjurina", "--job", str(path), "--quiet")
    assert code == 1
    assert job.index(b"w*") == 63
    assert json.loads(out)["error"] == (
        "[curve] equations: unknown variable 'w' (byte offset 5) -- file "
        "byte offset 63")


def test_missing_point_exit_2(tmp_path, capsys):
    job = "\n".join(line for line in SCHWARTZ_JOB.splitlines()
                    if not line.startswith("point = 1"))
    job = job.replace("mode = schwartz", "mode = total-gsv")
    code, out, _ = run_cli(capsys, "total-gsv", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 2
    report = json.loads(out)
    assert report["results"]["consistent"] is False
    assert report["anomalies"]


def test_missing_point_oracle_still_agrees(tmp_path, capsys):
    # a total-index mismatch is not an oracle disagreement: staircase and
    # Macaulay agree on the one point given
    job = "\n".join(line for line in GOLDEN_JOB.read_text().splitlines()
                    if not line.startswith("point = 1"))
    code, out, _ = run_cli(capsys, "total-gsv", "--job",
                           write_job(tmp_path, job), "--oracle", "--quiet")
    assert code == 2
    report = json.loads(out)
    assert report["oracle"] == {"agreement": True, "dimensions_checked": 3}
    assert len(report["anomalies"]) == 1
    assert report["anomalies"][0].startswith("total index mismatch")


def test_duplicate_point_schwartz_exit_1(tmp_path, capsys):
    job = SCHWARTZ_JOB.replace("point = 1 : 0, 0, 0",
                               "point = 1 : 0, 0, 0\npoint = 0 : 0, 0, 0")
    for mode in ("schwartz", "tjurina", "milnor"):
        path = write_job(tmp_path, job.replace("mode = schwartz",
                                               f"mode = {mode}"))
        for extra in ((), ("--oracle",)):
            code, out, _ = run_cli(capsys, mode, "--job", path, "--quiet",
                                   *extra)
            assert code == 1
            assert "points 1 and 3 name the same projective point" \
                in json.loads(out)["error"]


def test_unknown_key_exit_1(tmp_path, capsys):
    job = BOUNDS_JOB + "\nrho_max = 3\n"
    code, out, _ = run_cli(capsys, "bounds", "--job",
                           write_job(tmp_path, job))
    assert code == 1
    assert "rho_max" in json.loads(out)["error"]


def test_mode_mismatch_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "total-gsv", "--job",
                           write_job(tmp_path, BOUNDS_JOB))
    assert code == 1
    assert "mode" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "--job", "/nonexistent/file.job")
    assert code == 1
    assert "cannot read" in err


def test_job_file_not_utf8_exit_1(tmp_path, capsys):
    # the offset counts bytes: the e-acute before the bad byte is two
    path = tmp_path / "job.ini"
    path.write_bytes(b"# caf\xc3\xa9 \xff\xfe\n" + BOUNDS_JOB.encode())
    code, out, err = run_cli(capsys, "bounds", "--job", str(path))
    assert code == 1
    assert out == ""
    assert err == ("gsvkit: cannot read job file: not valid UTF-8 at byte "
                   "offset 8\n")


def test_bad_argv_exit_1(capsys):
    code, _, err = run_cli(capsys, "not-a-mode", "--job", "x")
    assert code == 1


def test_shared_parser_carries_no_state(tmp_path, capsys):
    good = ["bounds", "--job", write_job(tmp_path, BOUNDS_JOB), "--quiet"]
    bads = (["bounds", "--oracle"], ["not-a-mode", "--job", "x"],
            ["bounds", "--job", "x", "--fast"], [])

    def call(argv, fresh):
        if fresh:
            cli._argument_parser.cache_clear()
        code, out, err = run_cli(capsys, *argv)
        return code, normalize(out), err

    for bad in bads:
        for first, second in ((bad, good), (good, bad)):
            want = [call(first, True), call(second, True)]
            cli._argument_parser.cache_clear()
            assert [call(first, False), call(second, False)] == want
    assert call(good, False)[0] == 0
    assert cli._argument_parser() is cli._argument_parser()


def test_import_builds_no_parser():
    probe = ("import gsvkit.cli as c; "
             "print(c._argument_parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_point_off_curve_named_field(tmp_path, capsys):
    for mode in ("schwartz", "tjurina", "total-gsv"):
        job = SCHWARTZ_JOB.replace("point = 0 : 0, 0, 0",
                                   "point = 0 : 2, 0, 0")
        job = job.replace("mode = schwartz", f"mode = {mode}")
        code, out, _ = run_cli(capsys, mode, "--job",
                               write_job(tmp_path, job))
        assert code == 1
        error = json.loads(out)["error"]
        assert "equation 1 does not vanish at chart 0 point" in error, mode


SURFACE_JOB = """
[job]
mode = MODE
ambient = 3

[foliation]
degree = 1
components = "z0", "2*z1", "3*z2", "5*z3"

[curve]
equations = "z0*z1 - z2^2"

[points]
point = 0 : 0, 0, 0
"""


@pytest.mark.parametrize("mode", ["local-gsv", "total-gsv", "schwartz",
                                  "euler", "milnor"])
def test_curve_modes_reject_a_surface(tmp_path, capsys, mode):
    job = SURFACE_JOB.replace("MODE", mode)
    code, out, _ = run_cli(capsys, mode, "--job", write_job(tmp_path, job))
    assert code == 1
    assert json.loads(out)["error"] == (
        f"[curve] equations: {mode} needs a curve, 2 equations in P^3, got 1")


def test_tjurina_accepts_a_surface(tmp_path, capsys):
    job = SURFACE_JOB.replace("MODE", "tjurina")
    code, out, _ = run_cli(capsys, "tjurina", "--job",
                           write_job(tmp_path, job), "--oracle", "--quiet")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["per_point"] == [0]
    assert report["oracle"] == {"agreement": True, "dimensions_checked": 1}


ORACLE_CAP_JOB = """
[job]
mode = tjurina
ambient = 2

[curve]
equations = "z1^2*z0^28 - z2^30"

[points]
point = 0 : 0, 0
"""


@pytest.mark.parametrize("mode,label", [("tjurina", "tau"),
                                        ("milnor", "chain step 1")])
def test_oracle_above_its_cap_keeps_the_results(tmp_path, capsys, mode,
                                                label):
    # an A_29 point: the staircase decides tau = mu = 29, the oracle would
    # need degree 30, above MACAULAY_MAX_DEGREE
    path = write_job(tmp_path, ORACLE_CAP_JOB.replace("tjurina", mode))
    code, out, _ = run_cli(capsys, mode, "--job", path, "--quiet")
    assert code == 0
    plain = json.loads(out)
    assert plain["results"]["per_point"] == [29]
    code, out, _ = run_cli(capsys, mode, "--job", path, "--oracle", "--quiet")
    assert code == 2
    report = json.loads(out)
    assert report["results"] == plain["results"]
    assert report["oracle"] == {"agreement": False, "dimensions_checked": 0}
    assert report["anomalies"] == [
        "oracle undecided at chart 0 point ['0', '0']: the Macaulay corank "
        f"of {label} did not stabilize by degree {MACAULAY_MAX_DEGREE}; "
        "staircase 29"]


BARE_MULTIDEGREE_JOB = """
[job]
mode = poincare
ambient = 3

[foliation]
degree = 1

[curve]
multidegree = 3, 2
"""


def test_bare_multidegree_feeds_arithmetic_modes(tmp_path, capsys):
    for mode, key in (("poincare", "gsv"), ("chern-check", "integral")):
        job = BARE_MULTIDEGREE_JOB.replace("poincare", mode)
        code, out, _ = run_cli(capsys, mode, "--job",
                               write_job(tmp_path, job), "--quiet")
        assert code == 0, mode
        report = json.loads(out)
        assert report["results"][key] == -6, mode
        assert report["inputs"]["curve"] == {"multidegree": [3, 2]}, mode


# (mode, job text, field the error must name)
FIELD_ERRORS = [
    ("poincare", POINCARE_JOB.replace("milnors = 2, 6", "milnors = 0, 2"),
     "[parameters] milnors"),
    ("poincare", PLANE_POINCARE_JOB + "milnors = 0, 2\n",
     "[parameters] milnors"),
    ("bounds", BOUNDS_JOB.replace("tau = 2", "tau = -1"), "[parameters] tau"),
    ("chern-check", CHERN_JOB.replace("degree = 1", "degree = -1"),
     "[foliation] degree"),
    ("poincare", POINCARE_JOB.replace("degree = 1", "degree = -1"),
     "[foliation] degree"),
    ("poincare", PLANE_POINCARE_JOB.replace("k = 1", "k = 0"),
     "[parameters] k"),
    ("chern-check", PLANE_POINCARE_JOB.replace("poincare", "chern-check")
     .replace("ambient = 2", "ambient = 3").replace("k = 1", "k = 0"),
     "[parameters] k"),
    ("chern-check", PLANE_POINCARE_JOB.replace("poincare", "chern-check")
     .replace("ambient = 2", "ambient = 19").replace("k = 1", "k = 2")
     .replace("degree = 3", "degree = 1"),
     "[job] ambient"),
    ("bounds", BOUNDS_JOB.replace("ambient = 3", "ambient = 1"),
     "[job] ambient"),
    ("poincare", PLANE_POINCARE_JOB.replace("ambient = 2", "ambient = 1"),
     "[job] ambient"),
    ("chern-check", PLANE_POINCARE_JOB.replace("poincare", "chern-check")
     .replace("ambient = 2", "ambient = 0"),
     "[job] ambient"),
    ("total-gsv", GOLDEN_JOB.read_text().replace("ambient = 3", "ambient = 0"),
     "[job] ambient"),
    ("poincare", BARE_MULTIDEGREE_JOB + "order = 2, 1\n", "[curve] order"),
    # a superscript digit passes str.isdigit() but not int()
    ("tjurina", SCHWARTZ_JOB.replace("mode = schwartz", "mode = tjurina")
     .replace('"z0^2*z1', '"z0^\u00b2*z1'), "[curve] equations"),
]


def test_bad_values_name_their_field(tmp_path, capsys):
    for mode, job, field in FIELD_ERRORS:
        code, out, err = run_cli(capsys, mode, "--job",
                                 write_job(tmp_path, job))
        assert code == 1, (mode, field)
        assert json.loads(out)["error"].startswith(field + ": "), (mode, field)
        assert "Traceback" not in err


SCHWARTZ_NO_AMBIENT = SCHWARTZ_JOB.replace("ambient = 3\n", "")

# (mode, job text, the exact error): every job-file error of load_job and the
# arithmetic runners that no other test reaches
JOB_FILE_ERRORS = [
    ("bounds", "[job\nmode = bounds\n",
     "unterminated section header at byte offset 0"),
    ("bounds", "[job]\nmode bounds\n",
     "expected 'key = value' at byte offset 6: 'mode bounds'"),
    ("bounds", "mode = bounds\n",
     "key/value outside any [section] at byte offset 0"),
    ("bounds", BOUNDS_JOB + "[extra]\nx = 1\n", "unknown section [extra]"),
    ("bounds", BOUNDS_JOB + "tau = 3\n",
     "[parameters] tau: given more than once"),
    ("bounds", BOUNDS_JOB.replace("mode = bounds\n", ""),
     "[job] mode: required field is missing"),
    ("bounds", BOUNDS_JOB.replace("mode = bounds", "mode = bound"),
     "[job] mode: unknown mode 'bound'; expected one of local-gsv, "
     "total-gsv, bounds, poincare, chern-check, tjurina, milnor, schwartz, "
     "euler"),
    ("bounds", BOUNDS_JOB.replace("ambient = 3", "ambient = three"),
     "[job] ambient: expected an integer, got 'three'"),
    ("poincare", POINCARE_JOB.replace("multidegree = 3, 2",
                                      "multidegree = 3, two"),
     "[curve] multidegree: expected a comma-separated integer list, "
     "got 'two'"),
    ("schwartz", SCHWARTZ_JOB.replace('"z0", "7*z1"', 'z0, "7*z1"'),
     "[foliation] components: expected a double-quoted string at byte "
     "offset 72"),
    ("schwartz", SCHWARTZ_JOB.replace('"4*z3"', '"4*z3'),
     "[foliation] components: unterminated string at byte offset 94"),
    ("schwartz", SCHWARTZ_JOB.replace('"3*z2", "4*z3"', '"3*z2" "4*z3"'),
     "[foliation] components: expected ',' between strings at byte "
     "offset 93"),
    ("schwartz", SCHWARTZ_JOB.replace("point = 1 : 0", "point = 1  0"),
     "[points] point: expected 'chart : a1, ..., a3'"),
    ("schwartz", SCHWARTZ_JOB.replace("point = 1 :", "point = one :"),
     "[points] point: chart must be an integer, got 'one'"),
    ("schwartz", SCHWARTZ_JOB.replace("point = 1 :", "point = 4 :"),
     "[points] point: chart must lie in 0..3"),
    ("schwartz", SCHWARTZ_JOB.replace("point = 1 : 0, 0, 0",
                                      "point = 1 : 0, 0"),
     "[points] point: expected 3 affine coordinates, got 2"),
    ("schwartz", SCHWARTZ_JOB.replace("point = 1 : 0, 0, 0",
                                      "point = 1 : 0, 1/0, 0"),
     "[points] point: expected a rational number p or p/q, got '1/0'"),
    ("schwartz", SCHWARTZ_NO_AMBIENT,
     "[job] ambient: required with a foliation"),
    ("tjurina", SCHWARTZ_NO_AMBIENT.replace("mode = schwartz", "mode = tjurina")
     .replace('components = "z0", "7*z1", "3*z2", "4*z3"\n', ""),
     "[job] ambient: required with a curve"),
    ("bounds", "[job]\nmode = bounds\n[points]\npoint = 0 : 0, 0, 0\n",
     "[job] ambient: required with points"),
    ("schwartz", SCHWARTZ_JOB.replace("degree = 1\n", ""),
     "[foliation] degree: required field is missing"),
    ("schwartz", SCHWARTZ_JOB.replace(', "4*z3"', ""),
     "[foliation] components: need m+1 = 4 components, got 3"),
    ("schwartz", SCHWARTZ_JOB.replace("multidegree = 3, 2",
                                      "multidegree = 3, 3"),
     "[curve] equations: equation 1 is not homogeneous of degree 3"),
    ("schwartz", SCHWARTZ_JOB.replace("order = 2, 1", "order = 1, 1"),
     "[curve] order: must be a permutation of 1..2"),
    ("bounds", BOUNDS_JOB.replace("r = 2", "r = 3"),
     "[parameters] r: need m >= 2 and 1 <= r <= m-1, got m=3, r=3"),
    ("bounds", BOUNDS_JOB + "rho = 99\n",
     "[parameters] rho: rho must lie in [0, 1], got 99"),
    ("bounds", BOUNDS_JOB.replace("tau = 2", "tau = -1"),
     "[parameters] tau: tau must be non-negative"),
    ("poincare", POINCARE_JOB.replace("milnors = 2, 6", "milnors = 0"),
     "[parameters] milnors: each listed singular point needs mu >= 1"),
    ("poincare", POINCARE_JOB.replace("ambient = 3", "ambient = 4"),
     "[curve] multidegree: the curve bound needs a multidegree of length m-1"),
    ("poincare", "[job]\nmode = poincare\nambient = 3\n"
     "[parameters]\ndegree = 1\n",
     "[curve] multidegree or [parameters] k: required"),
    ("poincare", "[job]\nmode = poincare\nambient = 3\n[parameters]\nk = 2\n",
     "[foliation] degree or [parameters] degree: required"),
]


def test_job_file_errors_exit_1_with_their_exact_text(tmp_path, capsys):
    for mode, job, error in JOB_FILE_ERRORS:
        code, out, err = run_cli(capsys, mode, "--job",
                                 write_job(tmp_path, job), "--quiet")
        assert code == 1, error
        assert json.loads(out) == {"error": error}
        assert err == f"gsvkit: {error}\n"


def test_euler_oracle_checks_the_chain_steps(tmp_path, capsys):
    job = SCHWARTZ_JOB.replace("mode = schwartz", "mode = euler")
    path = write_job(tmp_path, job)
    _, plain, _ = run_cli(capsys, "euler", "--job", path, "--quiet")
    code, out, _ = run_cli(capsys, "euler", "--job", path, "--oracle",
                           "--quiet")
    assert code == 0
    report = json.loads(out)
    # tau, dim_v, dim_vf and chain steps 1 and 2 at each of two points
    assert report["oracle"] == {"agreement": True, "dimensions_checked": 10}
    assert report["results"] == json.loads(plain)["results"]


def test_oracle_chain_disagreement_is_an_anomaly(tmp_path, capsys,
                                                 monkeypatch):
    path = write_job(tmp_path, SCHWARTZ_JOB)
    _, plain, _ = run_cli(capsys, "schwartz", "--job", path, "--quiet")
    # the oracle reads chain step 2 one too large, so its mu is one larger
    step_two = []

    def recording_ideals(*args, **kwargs):
        ideals = germ_ideals(*args, **kwargs)
        step_two.extend(gens for label, gens in ideals.items() if label == 2)
        return ideals

    germ_ideals, macaulay = cli.germ_ideals, cli.quotient_dim_macaulay
    monkeypatch.setattr(cli, "germ_ideals", recording_ideals)
    monkeypatch.setattr(cli, "quotient_dim_macaulay", lambda gens: macaulay(
        gens) + any(gens is step for step in step_two))
    code, out, _ = run_cli(capsys, "schwartz", "--job", path, "--oracle",
                           "--quiet")
    assert code == 2
    report = json.loads(out)
    assert report["oracle"] == {"agreement": False, "dimensions_checked": 10}
    assert report["anomalies"] == [
        "oracle disagreement at chart 0 point ['0', '0', '0']: staircase "
        "(2, 1, 1, 2) vs Macaulay (2, 1, 1, 3)",
        "oracle disagreement at chart 1 point ['0', '0', '0']: staircase "
        "(6, 1, 1, 6) vs Macaulay (6, 1, 1, 7)",
    ]
    assert report["results"] == json.loads(plain)["results"]


def test_oracle_disagreement_is_an_anomaly(tmp_path, capsys, monkeypatch):
    _, plain, _ = run_cli(capsys, "total-gsv", "--job", str(GOLDEN_JOB),
                          "--quiet")
    original = cli.quotient_dim_macaulay
    monkeypatch.setattr(cli, "quotient_dim_macaulay",
                        lambda gens: original(gens) + 1)
    code, out, _ = run_cli(capsys, "total-gsv", "--job", str(GOLDEN_JOB),
                           "--oracle", "--quiet")
    assert code == 2
    report = json.loads(out)
    assert report["oracle"] == {"agreement": False, "dimensions_checked": 6}
    assert report["anomalies"] == [
        "oracle disagreement at chart 0 point ['0', '0', '0']: staircase "
        "(2, 1, 1) vs Macaulay (3, 2, 2)",
        "oracle disagreement at chart 1 point ['0', '0', '0']: staircase "
        "(6, 1, 1) vs Macaulay (7, 2, 2)",
    ]
    assert report["results"] == json.loads(plain)["results"]


# a degree-5 plane curve with Milnor number 1 under a degree-0 foliation
POINCARE_ANOMALY_JOB = """
[job]
mode = poincare
ambient = 2

[foliation]
degree = 0

[parameters]
k = 5
milnors = 1
"""


def test_poincare_bound_anomalies(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "poincare", "--job",
                           write_job(tmp_path, POINCARE_ANOMALY_JOB),
                           "--quiet")
    assert code == 2
    report = json.loads(out)
    assert report["results"]["milnor_bound"] == \
        {"lhs": 15, "rhs": 0, "holds": False}
    assert report["results"]["plane_bound"] == \
        {"lhs": 15, "rhs": 0, "holds": False}
    assert report["anomalies"] == [
        "Milnor-weighted degree bound failed",
        "inequality fails: no degree-0 foliation leaves such a curve "
        "invariant (input inconsistent with invariance)",
    ]


# ---------------------------------------------------------------------------
# job-file plumbing

def test_load_job_echo_contains_every_datum():
    job = load_job(GOLDEN_JOB.read_text())
    report, code = run_job(job)
    assert code == 0
    echo = report["inputs"]
    assert echo["ambient"] == 3
    assert len(echo["foliation"]["components"]) == 4
    assert echo["curve"]["multidegree"] == [3, 2]
    assert len(echo["points"]) == 2


def test_render_report_sorted_and_stable():
    report = {"mode": "bounds", "results": {"b": 1, "a": 2},
              "anomalies": [], "inputs": {}, "timing": 0.5}
    text = render_report(report)
    assert text.index('"a"') < text.index('"b"')
    assert '"timing": 0.5' in text


def test_multidegree_defaults_to_equation_degrees(tmp_path, capsys):
    job = SCHWARTZ_JOB.replace("multidegree = 3, 2\n", "")
    code, out, _ = run_cli(capsys, "schwartz", "--job",
                           write_job(tmp_path, job), "--quiet")
    assert code == 0
    assert json.loads(out)["inputs"]["curve"]["multidegree"] == [3, 2]
