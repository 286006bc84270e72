"""Every subcommand's answer, byte for byte.

Each call below runs through ``cli.main`` in text mode and with ``--json``;
the sha256 of its (exit code, stdout, stderr) must match
``golden/cli_digests.json``. The calls cover "yes", "no" and error answers,
and the help and usage errors of the argument parser.
Instances that are not committed golden files are written to a temporary
directory, so their paths never reach the output.

To print the digests of the checked-out code, run
``PYTHONPATH=src python tests/test_cli_answers.py``."""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from gmpd.cli import main
from gmpd.digraph import PartitionedDigraph
from gmpd.fileformat import InstanceFile, emit_instance
from gmpd.generators import fig1, generate
from gmpd.npc import build_np1, parse_dimacs

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "cli_digests.json"

# the dominance triangle: three 2-cycles, each pair one-way dominated, the
# dominance cycle 1<->2 over 3<->4 over 5<->6 over 1<->2
TRIANGLE = ("gmpd 1\n6 2\n1 2 1 2 1 2\n12\n1 2\n2 1\n3 4\n4 3\n5 6\n6 5\n"
            "1 4\n2 3\n3 6\n4 5\n5 2\n6 1\n")
# a non-strong bipartite pair of dominated two-cycles
BIPARTITE_NO = "gmpd 1\n4 2\n1 2 1 2\n6\n1 2\n2 1\n3 2\n3 4\n4 1\n4 3\n"
INTERNAL_ARC = "gmpd 1\n3 2\n1 1 2\n3\n1 2\n1 3\n2 3\n"
ONE_ARC = "gmpd 1\n2 2\n1 2\n1\n1 2\n"
ONE_VERTEX = "gmpd 1\n1 1\n1\n0\n"
TRUNCATED = "gmpd 1\n3 2\n1 1 2\n4\n1 3\n"
UNSAT = "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n"


def _weighted_fig1() -> str:
    """fig1 completed to a semicomplete digraph by one weight-1 2-cycle."""
    d = fig1().digraph
    ones = frozenset({(4, 5), (5, 4)})
    return emit_instance(InstanceFile(PartitionedDigraph([1, 2, 3, 4, 5], d.arcs | ones), ones))


def _files(tmp: Path) -> dict:
    d, legend = build_np1(parse_dimacs(UNSAT))
    texts = {
        "triangle": TRIANGLE,
        "bipartite_no": BIPARTITE_NO,
        "internal_arc": INTERNAL_ARC,
        "one_arc": ONE_ARC,
        "one_vertex": ONE_VERTEX,
        "truncated": TRUNCATED,
        "ext_yes": emit_instance(generate("extended", ["3", "2"], seed=4)),
        "ext_no": emit_instance(generate("extended", ["3", "2"], seed=1)),
        "weighted": _weighted_fig1(),
        "np1_unsat": emit_instance(InstanceFile(digraph=d, legend=legend)),
        "unsat_cnf": UNSAT,
    }
    files = {name: str(GOLDEN / name) for name in
             ("fig1.gmpd", "fig2.gmpd", "noclose_1_3.gmpd", "np1_fig5.gmpd", "np2_fig6.gmpd",
              "fig56.cnf")}
    for name, text in texts.items():
        (tmp / name).write_text(text)
        files[name] = str(tmp / name)
    return files


CALLS = [
    "validate fig1.gmpd", "validate np1_fig5.gmpd", "validate internal_arc",
    "validate truncated", "validate missing_file",
    "factor fig1.gmpd", "factor fig2.gmpd", "factor one_vertex",
    "longest-gpath fig1.gmpd", "longest-gpath fig2.gmpd", "longest-gpath internal_arc",
    "spanning-gcycle fig1.gmpd", "spanning-gcycle fig2.gmpd", "spanning-gcycle triangle",
    "spanning-gcycle ext_yes", "spanning-gcycle bipartite_no",
    "spanning-gcycle --ext fig1.gmpd", "spanning-gcycle --ext ext_yes",
    "spanning-gcycle --ext ext_no",
    "spanning-gcycle --atleast 0 fig1.gmpd", "spanning-gcycle --atleast 1 noclose_1_3.gmpd",
    "spanning-gcycle --atleast 1 bipartite_no",
    "xy-gpath 4 5 fig1.gmpd", "xy-gpath 1 2 fig1.gmpd", "xy-gpath 1 99 fig1.gmpd",
    "bound fig2.gmpd", "bound one_vertex", "bound bipartite_no", "bound one_arc",
    "tsp path weighted", "tsp path one_arc",
    "tsp tour --mode extended-exact weighted", "tsp tour --mode extended-exact one_arc",
    "tsp tour --mode at-most-k --k 0 weighted", "tsp tour --mode at-most-k --k 0 one_arc",
    "tsp tour --mode at-most-k weighted",
    "tsp tour --mode strong-bound weighted", "tsp tour --mode strong-bound one_arc",
    "npc build1 fig56.cnf", "npc build2 fig56.cnf", "npc build1 unsat_cnf",
    "npc witness1 np1_fig5.gmpd", "npc witness2 np2_fig6.gmpd", "npc witness1 np1_unsat",
    "npc witness2 fig1.gmpd",
    "oracle gcycle fig1.gmpd", "oracle gcycle fig2.gmpd", "oracle gcycle bipartite_no",
    "oracle gcycle one_vertex",
    "oracle gpath fig1.gmpd", "oracle gpath bipartite_no",
    "gen fig1", "gen random 8 3 0.5 --seed 42", "gen sat2 --cnf fig56.cnf", "gen nope",
    "gen random 8",
    "--help", "validate --help", "factor --help", "longest-gpath --help",
    "spanning-gcycle --help", "xy-gpath --help", "bound --help", "tsp --help", "tsp path --help",
    "tsp tour --help", "npc --help", "npc build1 --help", "npc witness2 --help", "oracle --help",
    "oracle gpath --help", "gen --help", "spanning-gcycle --ext --atleast 1 fig1.gmpd",
    "tsp tour --mode cheapest weighted", "xy-gpath one fig1.gmpd", "oracle", "frobnicate",
]


def _digest(argv) -> str:
    """sha256 of the (exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n--\n{err.getvalue()}".encode()).hexdigest()


def answer_digests(tmp: Path) -> dict:
    files = _files(tmp)
    got = {}
    for call in CALLS:
        argv = [files.get(word, word) for word in call.split()]
        got[call] = _digest(argv)
        got["--json " + call] = _digest(["--json", *argv])
    return got


def test_every_answer_matches_its_recorded_digest(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps help to the terminal width
    assert answer_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(answer_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    print()
