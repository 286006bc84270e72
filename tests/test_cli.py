import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gmpd
from gmpd.cli import main
from gmpd.digraph import PartitionedDigraph
from gmpd.fileformat import InstanceFile, emit_instance, parse_instance
from gmpd.errors import ParseError
from gmpd.generators import fig1, fig2, generate, noclose
from gmpd.walks import parse_walk, validate_walk

from conftest import random_smd_digraph

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- file format -----------------------------------------------------------

@pytest.mark.parametrize("name", ["fig1.gmpd", "fig2.gmpd", "noclose_1_3.gmpd",
                                  "np1_fig5.gmpd", "np2_fig6.gmpd"])
def test_parse_emit_identity_on_goldens(name):
    text = (GOLDEN / name).read_text()
    inst = parse_instance(text)
    assert emit_instance(inst) == text


def test_generator_determinism():
    a = emit_instance(generate("random", ["8", "3", "0.5"], seed=42))
    b = emit_instance(generate("random", ["8", "3", "0.5"], seed=42))
    assert a == b
    assert emit_instance(fig2()) == (GOLDEN / "fig2.gmpd").read_text()
    assert emit_instance(fig1()) == (GOLDEN / "fig1.gmpd").read_text()
    assert emit_instance(noclose(1, 3)) == (GOLDEN / "noclose_1_3.gmpd").read_text()


def test_parse_rejects_duplicate_arc():
    text = "gmpd 1\n2 2\n1 2\n2\n1 2\n1 2\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_rejects_truncated_file():
    text = "gmpd 1\n3 2\n1 1 2\n4\n1 3\n"
    with pytest.raises(ParseError):
        parse_instance(text)


HEAD = "gmpd 1\n3 2\n1 1 2\n"


@pytest.mark.parametrize("text, line, reason", [
    ("gmpd 1\n3\n1 1 2\n0\n", 2, "bad size line: not enough values to unpack (expected 2, got 1)"),
    ("gmpd 1\n3 2\n1 2\n0\n", 3, "expected 3 partite indices, got 2"),
    ("gmpd 1\n3 2\n1 x 2\n0\n", 3, "bad partite index: invalid literal for int() with base 10: 'x'"),
    (HEAD + "three\n", 4, "bad arc count: invalid literal for int() with base 10: 'three'"),
    (HEAD + "2\n1 3\n2 3 1\n", 6, "bad arc line: too many values to unpack (expected 2)"),
    (HEAD + "2\n1 3\n2\n", 6, "bad arc line: not enough values to unpack (expected 2, got 1)"),
    (HEAD + "2\n1 3\n2 x\n", 6, "bad arc line: invalid literal for int() with base 10: 'x'"),
    (HEAD + "2\n1 3\n2 4\n", 6, "illegal arc (2,4)"),
    (HEAD + "2\n-1 3\n2 3\n", 5, "illegal arc (-1,3)"),
    (HEAD + "2\n1 3\n3 3\n", 6, "illegal arc (3,3)"),
    (HEAD + "3\n1 3\n2 3\n1 3\n", 7, "duplicate arc (1,3)"),
    (HEAD + "3\n1 3\n2 3\n2  3\n", 7, "duplicate arc (2,3)"),
    (HEAD + "2\n1 3\n2 3\nweights 1\n3 1\n", 8, "weight on missing arc (3,1)"),
    (HEAD + "2\n1 3\n2 3\nextra\n", 7, "unexpected trailer 'extra'"),
    (HEAD + "4\n1 3\n", 6, "unexpected end of file"),
    (HEAD + "2\n1 3\n2 3\nweights 2\n1 3\n", 9, "unexpected end of file"),
])
def test_parse_error_line_and_text(text, line, reason):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.reason) == (line, reason)


def test_parse_reads_any_int_spelling():
    """Each arc and weight end is read with int(), so any spelling int()
    accepts parses to the same instance."""
    canon = parse_instance(HEAD + "2\n1 3\n2 3\nweights 1\n2 3\n")
    for block in ("+1 3\n2 3\n", "1\t3\n 2  3 \n", "01 3\n2 03\n", "1 3\n2\u00a03\n"):
        second = block.split("\n", 1)[1]
        assert parse_instance(HEAD + "2\n" + block + "weights 1\n" + second) == canon


def test_parse_negative_counts_read_no_lines():
    inst = parse_instance(HEAD + "-1\nweights -2\nlegend 0\n")
    assert not inst.digraph.arcs and inst.weights == frozenset() and inst.legend == {}


def test_internal_arc_parses_but_fails_validation(capsys, tmp_path):
    text = "gmpd 1\n2 2\n1 2\n2\n1 2\n2 1\n"
    inst = parse_instance(text)   # fine
    bad = "gmpd 1\n3 2\n1 1 2\n3\n1 2\n1 3\n2 3\n"
    parse_instance(bad)           # internal arc (1,2) accepted at parse
    p = tmp_path / "bad.gmpd"
    p.write_text(bad)
    code, out, _ = run_cli(["validate", str(p)], capsys)
    assert code == 1 and "is_smd false" in out


# -- subcommands -----------------------------------------------------------

def test_validate_fig1(capsys):
    code, out, _ = run_cli(["validate", str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 0
    assert "is_smd true" in out and "is_extended false" in out and "is_strong true" in out


def test_bound_fig2(capsys):
    code, out, _ = run_cli(["bound", str(GOLDEN / "fig2.gmpd")], capsys)
    assert code == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert lines["N"] == "0" and lines["c_f"] == "16" and lines["bound"] == "16"


def test_bound_single_vertex(capsys, tmp_path):
    p = tmp_path / "one.gmpd"
    p.write_text("gmpd 1\n1 1\n1\n0\n")
    code, out, _ = run_cli(["bound", str(p)], capsys)
    assert code == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert lines["N"] == "0" and lines["c_f"] == "none" and lines["bound"] == "none"


def test_factor_fig1_json(capsys):
    code, out, _ = run_cli(["--json", "factor", str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["arc_count"] == 5 and data["cycles"] == 1


def test_longest_gpath_exit_and_witness(capsys):
    code, out, _ = run_cli(["longest-gpath", str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert lines["length"] == "4"
    walk = parse_walk(lines["witness"])
    validate_walk(fig1().digraph, walk)


def test_spanning_gcycle_ext_rejects_fig1(capsys):
    code, out, err = run_cli(["spanning-gcycle", "--ext", str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 2 and "NotExtended" in err


def test_spanning_gcycle_atleast_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(
        ["spanning-gcycle", "--atleast", "0", str(GOLDEN / "fig1.gmpd")], capsys
    )
    assert code == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    walk = parse_walk(lines["witness"])
    validate_walk(fig1().digraph, walk)
    # non-strong bipartite pair of dominated two-cycles: nothing at n-1
    text = "gmpd 1\n4 2\n1 2 1 2\n6\n1 2\n2 1\n3 2\n3 4\n4 1\n4 3\n"
    p = tmp_path / "bip.gmpd"
    p.write_text(text)
    code, out, _ = run_cli(["spanning-gcycle", "--atleast", "1", str(p)], capsys)
    assert code == 1 and "status no" in out


def test_spanning_gcycle_atleast_past_the_size_cap(capsys, tmp_path):
    # n = 44, bound 36 < 42: a "no" the bound decides, at any n
    p = tmp_path / "noclose_4_9.gmpd"
    p.write_text(emit_instance(noclose(4, 9)))
    code, out, err = run_cli(["spanning-gcycle", "--atleast", "2", str(p)], capsys)
    assert code == 1 and out.split() == ["status", "no"] and "TooLarge" not in err
    # n = 22 with bound 22: the answer is open, and the enumeration is capped
    p = tmp_path / "random_22.gmpd"
    p.write_text(emit_instance(generate("random", ["22", "4", "0.5"], seed=7)))
    code, out, err = run_cli(["spanning-gcycle", "--atleast", "2", str(p)], capsys)
    assert code == 2 and "TooLarge" in err


def test_xy_gpath_cli(capsys):
    code, out, _ = run_cli(["xy-gpath", "4", "5", str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 0
    walk = parse_walk(out.strip().splitlines()[-1].split(" ", 1)[1])
    assert walk.seq[0] == 4 and walk.seq[-1] == 5


@pytest.mark.parametrize("x, y, name", [("1", "99", "y = 99"), ("0", "2", "x = 0")])
def test_xy_gpath_endpoint_out_of_range_is_an_error(capsys, x, y, name):
    code, out, err = run_cli(["xy-gpath", x, y, str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error ValueError:") and name in err


def test_unexpected_exception_is_an_error_not_a_no(capsys, monkeypatch):
    def boom(d):
        raise RuntimeError("unexpected")

    monkeypatch.setattr("gmpd.search.jump_metrics", boom)
    code, out, err = run_cli(["bound", str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 2 and out == ""
    assert err == "error RuntimeError: unexpected\n"


def test_oracle_gcycle_fig1(capsys):
    code, out, _ = run_cli(["oracle", "gcycle", str(GOLDEN / "fig1.gmpd")], capsys)
    assert code == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert lines["length"] == "5"


def test_npc_witness_exit_codes(capsys, tmp_path):
    sat_cnf = tmp_path / "sat.cnf"
    sat_cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    unsat_cnf = tmp_path / "unsat.cnf"
    unsat_cnf.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    for what, cnf, expect in [
        ("witness1", sat_cnf, 0),
        ("witness1", unsat_cnf, 1),
        ("witness2", sat_cnf, 0),
        ("witness2", unsat_cnf, 1),
    ]:
        build = "build1" if what == "witness1" else "build2"
        code, out, _ = run_cli(["npc", build, str(cnf)], capsys)
        assert code == 0
        inst_path = tmp_path / f"{what}_{cnf.stem}.gmpd"
        inst_path.write_text(out)
        code, out, _ = run_cli(["npc", what, str(inst_path)], capsys)
        assert code == expect


def test_npc_witness_revalidates(capsys, tmp_path):
    code, out, _ = run_cli(["npc", "build1", str(GOLDEN / "fig56.cnf")], capsys)
    inst_path = tmp_path / "np1.gmpd"
    inst_path.write_text(out)
    inst = parse_instance(out)
    code, out, _ = run_cli(["npc", "witness1", str(inst_path)], capsys)
    assert code == 0
    walk = parse_walk(out.strip().splitlines()[-1].split(" ", 1)[1])
    tags = validate_walk(inst.digraph, walk)
    assert all(t == "real" for t in tags)


def test_gen_unknown_generator(capsys):
    code, out, err = run_cli(["gen", "nope"], capsys)
    assert code == 2 and "UnknownGenerator" in err


def test_tsp_cli_roundtrip(capsys, tmp_path):
    # fig1 completed with its one weight-1 clique
    from gmpd.digraph import PartitionedDigraph
    from gmpd.fileformat import InstanceFile

    d = fig1().digraph
    arcs = set(d.arcs) | {(4, 5), (5, 4)}
    inst = InstanceFile(
        digraph=PartitionedDigraph([1, 2, 3, 4, 5], arcs),
        weights=frozenset({(4, 5), (5, 4)}),
    )
    p = tmp_path / "tsp.gmpd"
    p.write_text(emit_instance(inst))
    assert parse_instance(p.read_text()).weights == frozenset({(4, 5), (5, 4)})
    code, out, _ = run_cli(["tsp", "path", str(p)], capsys)
    assert code == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert lines["cost"] == "0"
    code, out, _ = run_cli(["tsp", "tour", "--mode", "at-most-k", "--k", "0", str(p)], capsys)
    assert code == 0


def test_golden_calls_match_recorded_digests(monkeypatch):
    # the benchmark's golden gate in-process: each golden call's exit code,
    # stdout and stderr hash to the digest recorded in perfbench
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import desk

    recorded = json.loads((PERFBENCH / "golden_digests.json").read_text())
    got = {}
    for argv, *_ in desk.GOLDEN_CALLS:
        full = [str(PERFBENCH.parent / a) if a.startswith(desk.GOLDEN) else a for a in argv]
        got[" ".join(argv)] = desk.digest(desk.call_cli(gmpd, full))
    assert got == recorded


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gmpd.cli", "validate", str(GOLDEN / "fig1.gmpd")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "is_smd true" in proc.stdout


def test_process_exit_code_of_an_error():
    proc = subprocess.run(
        [sys.executable, "-m", "gmpd.cli", "xy-gpath", "1", "99", str(GOLDEN / "fig1.gmpd")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error ValueError:")


@st.composite
def instance_files(draw):
    """Random SMDs (n 1-12) with some arcs inside partite sets added, an
    optional weight-1 arc set and a legend."""
    d = random_smd_digraph(draw(st.sampled_from(range(1, 13))), draw(st.sampled_from(range(1, 5))),
                           draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.integers(0, 10 ** 6)))
    inside = [(u, v) for u in d.vertices() for v in d.vertices() if u != v and d.same_part(u, v)]
    extra = draw(st.sets(st.sampled_from(inside))) if inside else set()
    d = PartitionedDigraph(d.part_vector, d.arcs | extra)
    arcs = sorted(d.arcs)
    weights = draw(st.none() | st.sets(st.sampled_from(arcs)).map(frozenset)) if arcs else None
    legend = draw(st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True),
                                  st.sampled_from(list(d.vertices())), max_size=4))
    return InstanceFile(d, weights, legend)


@given(instance_files())
def test_emit_parse_round_trip(inst):
    text = emit_instance(inst)
    back = parse_instance(text)
    assert back == inst and emit_instance(back) == text
