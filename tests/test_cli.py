"""Command-line surface: golden outputs, JSON schema, exit codes."""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from flowloop.braid import Q1_WORK_LIMIT
from flowloop.cli import main
from flowloop.template import ORBIT_COUNT_LIMIT, ORBIT_DEPTH_LIMIT
from flowloop.verify import run_suite
from flowloop.zhat import PHI_WORK_LIMIT

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

GOLDEN_ZHAT = """\
braid: n=2; 1 1 1
writhe: 3
prefactor: -1 * q^(2/2) * x^(1/2)
phi: 1 - q*x^2 - q^2*x^3 + q^5*x^5 + q^7*x^6 + O(x^7)
zhat: -q*x^(1/2) + q^2*x^(5/2) + q^3*x^(7/2) - q^6*x^(11/2) - q^8*x^(13/2) + O(x^(15/2))
note: prefactor sign pinned by the reference-model oracle
"""

GOLDEN_ALEXANDER = """\
braid: n=3; 1 -2 1 -2
writhe: 0
Delta: 1 - 3*x + x^2
inverse: 1 + 2*x + 5*x^2 + 13*x^3 + O(x^4)
"""

GOLDEN_TRACE = """\
braid: n=2; 1 1 1
writhe: 3
m=0: 1
m=1: -q^3*x^3
m=2: q^9*x^6
"""

GOLDEN_ORBITS = """\
braid: n=3; 1 1 1 2
writhe: 4
strips: 8
branch-lines: 4
nullity: 5
orbits:
1 - T4
1 + S3_4 S4_3
2 - S3_4 T4 S4_3
2 - T2 S3_4 S4_2
zeta: 1 - x^2 + O(x^3)
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_zhat_golden(capsys):
    code, out = run_cli(capsys, "zhat", "--braid", "1 1 1", "--order", "6")
    assert code == 0
    assert out == GOLDEN_ZHAT


def test_phi_golden(capsys):
    code, out = run_cli(capsys, "phi", "--braid", "1 -2 1 -2", "--order", "2")
    assert code == 0
    assert out.endswith("phi: 1 + 2*x + (q^-1 + 3 + q)*x^2 + O(x^3)\n")


def test_alexander_golden(capsys):
    code, out = run_cli(
        capsys, "alexander", "--braid", "1 -2 1 -2", "--order", "3"
    )
    assert code == 0
    assert out == GOLDEN_ALEXANDER


def test_trace_golden(capsys):
    code, out = run_cli(capsys, "trace", "--braid", "1 1 1", "--mmax", "2")
    assert code == 0
    assert out == GOLDEN_TRACE


def test_trace_dump_shows_matrix_entries(capsys):
    code, out = run_cli(
        capsys, "trace", "--braid", "1 1 1", "--mmax", "1", "--dump"
    )
    assert code == 0
    assert "(1) -> (1) : -q^3*x^3" in out


def test_orbits_golden(capsys):
    code, out = run_cli(
        capsys, "orbits", "--braid", "1 1 1 2", "--max-degree", "2"
    )
    assert code == 0
    assert out == GOLDEN_ORBITS


def test_orbits_dump_chart(capsys):
    code, out = run_cli(
        capsys, "orbits", "--braid", "1", "--max-degree", "1", "--dump"
    )
    assert code == 0
    assert "strip T1 [twist] [mark 1] : T1" in out


def test_zhat_json_schema(capsys):
    code, out = run_cli(
        capsys, "zhat", "--braid", "1 1 1", "--order", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["braid"] == "n=2; 1 1 1"
    assert doc["prefactor"] == {"sign": -1, "q_exp_half": 2, "x_exp_half": 1}
    assert doc["phi"][0] == {
        "x_exp_half": 0,
        "coeff": [{"q_exp_half": 0, "value": "1"}],
    }
    # zhat series is the prefactor-shifted phi: first term at x^{1/2}
    assert doc["zhat"][0]["x_exp_half"] == 1
    for row in doc["phi"] + doc["zhat"]:
        assert set(row) == {"x_exp_half", "coeff"}
        for cell in row["coeff"]:
            assert set(cell) == {"q_exp_half", "value"}
            int(cell["value"])  # coefficients serialize as integer strings


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "ring")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "passed 5/5 checks"
    assert all(line.startswith("ok   ring.") for line in lines[:-1])


def test_verify_json_times_every_check(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--format",
                        "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == len(run_suite("all"))
    for row in results:
        assert set(row) == {"suite", "name", "ok", "detail", "seconds"}
        assert isinstance(row["seconds"], float) and row["seconds"] >= 0.0
    # the text output carries no times: each line is the check's render()
    code, text = run_cli(capsys, "verify", "--suite", "ring")
    assert text.splitlines()[:-1] == [r.render() for r in run_suite("ring")]


def test_convention_flag_does_not_change_traces(capsys):
    _, half = run_cli(capsys, "trace", "--braid", "1 1 1", "--mmax", "3")
    code, under = run_cli(
        capsys, "trace", "--braid", "1 1 1", "--mmax", "3",
        "--convention", "under",
    )
    assert code == 0
    assert half.splitlines()[2:] == under.splitlines()[2:]


@pytest.mark.parametrize(
    "argv",
    [
        ["zhat", "--braid", "1 x", "--order", "2"],      # malformed token
        ["zhat", "--braid", "1 -1", "--order", "2"],     # inhomogeneous
        ["zhat", "--braid", "1 1", "--order", "2"],      # link closure
        ["verify", "--suite", "nonsense"],
        ["zhat", "--order", "2"],                        # missing --braid
        ["phi", "--braid", "1", "--order", "not-a-number"],
        ["alexander", "--braid", "1 1 1", "--order", "-1"],
        ["zhat", "--braid", "1 1 1", "--order", "-1"],
        ["zhat", "--braid", "1 -2 1 -2", "--order", "-1"],
        ["zhat", "--braid", "1 1 1", "--order", "2", "--cap", "-1"],
        ["phi", "--braid", "1 -2 1 -2", "--order", "2", "--cap", "-1"],
        ["phi", "--braid", "1 1 1", "--order", "-1"],
        ["trace", "--braid", "1 1 1", "--mmax", "-1"],
        ["phi", "--braid", "1 1 1", "--cap", "-1"],
        ["phi", "--braid", "1 -2 1 -2", "--debug-mirror"],  # no such flag
        ["orbits", "--braid", "1 1 1", "--max-degree", "-1"],
    ],
)
def test_input_errors_exit_1(capsys, argv):
    assert main(argv) == 1
    if "-1" in argv:
        # one refusal format, naming the parameter the flag sets; both Phi
        # routes name the cap
        name = {"--order": "order", "--cap": "cap", "--mmax": "m_max",
                "--max-degree": "max_degree"}[argv[argv.index("-1") - 1]]
        assert capsys.readouterr().err == \
            f"error: {name} must be >= 0, got -1\n"


def test_orbits_refuses_a_degree_past_the_depth_limit(capsys):
    start = time.perf_counter()
    code = main(["orbits", "--braid", "1 -2 1 -2", "--max-degree", "1200"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert capsys.readouterr().err == (
        "error: max_degree 1200 allows strip words of 2402 strips on 3 "
        f"strands, past the orbit search depth limit of {ORBIT_DEPTH_LIMIT} "
        "strips\n"
    )
    assert elapsed < 1.0


def test_orbits_refuses_a_degree_past_the_count_limit(capsys):
    # within the depth limit, but with about 7.8e101 primitive orbits
    start = time.perf_counter()
    code = main(["orbits", "--braid", "1 -2 1 -2", "--max-degree", "249"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert capsys.readouterr().err == (
        "error: max_degree 249 has more primitive orbits than the orbit "
        f"count limit of {ORBIT_COUNT_LIMIT}; max_degree 14 has 86414\n"
    )
    assert elapsed < 1.0


def test_alexander_refuses_an_order_past_the_work_limit(capsys):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["alexander", "--braid", "1 1 1", "--order", "100000000"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # the series list would take over 1 GB
    assert code == 1
    assert capsys.readouterr().err == (
        "error: order 100000000 needs 600000006 steps of the q = 1 series "
        "((2*order + 2) x 3 terms of the denominator), past "
        f"Q1_WORK_LIMIT = {Q1_WORK_LIMIT}\n"
    )
    assert elapsed < 1.0


@pytest.mark.parametrize("braid,order,work,starts", [
    ("1 1 1", "100000000", 300000003, "100000001 start states x 3"),
    ("1 -2 1 -2", "100000", 40000800004, "10000200001 bottoms x 4"),
], ids=["positive", "dp"])
def test_zhat_refuses_an_order_past_the_work_limit(capsys, braid, order,
                                                   work, starts):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["zhat", "--braid", braid, "--order", order])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: order {order} needs {work} forward steps ({starts} "
        f"letters), past PHI_WORK_LIMIT = {PHI_WORK_LIMIT}\n"
    )
    assert elapsed < 1.0


@pytest.mark.parametrize("braid,cap", [
    ("1 1 1", "4000000"), ("1 -2 1 -2", "1000"),
], ids=["positive", "dp"])
def test_huge_cap_prints_what_cap_2_prints(capsys, braid, cap):
    # no label or weight above the order reaches the series, so a cap
    # above it does no more work than the order needs
    argv = ["zhat", "--braid", braid, "--order", "2", "--cap"]
    code, want = run_cli(capsys, *argv, "2")
    assert code == 0
    start = time.perf_counter()
    code, got = run_cli(capsys, *argv, cap)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert got == want


@pytest.mark.parametrize("command", ("zhat", "phi"))
def test_order_and_cap_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--order ORDER truncation order in x (default 5)" in text
    assert "--cap CAP override the label/weight cutoff (default: order)" \
        in text


def test_cap_flag_matches_default(capsys):
    _, a = run_cli(capsys, "phi", "--braid", "1 -2 1 -2", "--order", "3")
    _, b = run_cli(
        capsys, "phi", "--braid", "1 -2 1 -2", "--order", "3", "--cap", "6"
    )
    assert a.splitlines()[-1] == b.splitlines()[-1]


def corpus_items():
    """(argv, exit status) of each item of data/cli_corpus_items.txt."""
    items = []
    with open(os.path.join(DATA, "cli_corpus_items.txt")) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            braid, order, cap, status = (line.rstrip("\n").split("@")
                                         + ["", ""])[:4]
            argv = ["zhat", "--braid", braid, "--order", order]
            items.append((argv + (["--cap", cap] if cap else []),
                          int(status or 0)))
    return items


def test_corpus_outputs_do_not_depend_on_the_words_before(capsys):
    """Every corpus item, run in one process forward and then reversed,
    prints its stretch of data/cli_corpus.txt (recorded one fresh process
    per item) and exits with its status: the transfer DP's column tables,
    shared by every word the process computes, keep nothing of the words
    that filled them."""
    items = corpus_items()

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out + captured.err

    forward = [run(argv) for argv, _ in items]
    assert [code for code, _ in forward] == [status for _, status in items]
    with open(os.path.join(DATA, "cli_corpus.txt")) as fh:
        assert "".join(out for _, out in forward) == fh.read()
    assert [run(argv) for argv, _ in reversed(items)][::-1] == forward


# ---------------------------------------------------------------------------
# real process: entry point


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "flowloop.cli", "verify", "--suite", "ring"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0
    assert "passed 5/5 checks" in out.stdout
