"""Golden bytes: report digests, CSV text and CLI transcripts that a refactor must keep.

The JSON digests cover the three standard sweeps, and three more pin the
propagation traces and solution lists of every small instance. The CSV and
transcripts are spelled out so that a reordered or relabelled partition, a
changed message or a changed exit code shows up as a diff.
"""

import contextlib
import hashlib
import io
import shlex

import pytest

import circpart as cp
from circpart.cli import main

STANDARD_SWEEPS = [
    (
        dict(n_min=2, n_max=10, modes=(cp.DIRECTED,)),
        "6016f2575039be021d2d61b3296f7a809f9cea9502eed5b0cc567cee0ed8f1be",
    ),
    (
        dict(n_min=2, n_max=12, modes=(cp.UNDIRECTED,)),
        "3598dc3950c06383ca42c7438f08cfa9adfb64da6df08b32d99418d9e8b345b6",
    ),
    (
        dict(n_min=2, n_max=8, enumerator="both"),
        "1093983b1465da27ec11ec40cb39ff3b11198d657b5e279728ccd33d98f13ffb",
    ),
]


@pytest.mark.parametrize("spec, digest", STANDARD_SWEEPS, ids=["directed", "undirected", "oracle"])
def test_standard_sweep_json_digests(spec, digest):
    text = cp.report_to_json(cp.verify_theorem(cp.SweepSpec(**spec)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


GOLDEN_CSV = [
    (
        dict(n_min=4, n_max=6, modes=(cp.UNDIRECTED,)),
        """\
n,set,mode,connected,parts_B,parts_C,aut_B,aut_C,multipliers,verdict,prop_rounds
4,2,u,false,1,2,2,2,2,match,0
4,"1,3",u,true,1,1,2,2,2,match,0
4,"1,2,3",u,true,2,3,2,2,2,match,0
5,"1,4",u,true,1,1,2,2,2,match,0
5,"2,3",u,true,1,1,2,2,2,match,0
5,"1,2,3,4",u,true,2,2,4,4,4,match,0
6,3,u,false,1,3,8,8,2,expected-mismatch,0
6,"1,5",u,true,1,1,2,2,2,match,0
6,"2,4",u,false,1,2,12,12,2,expected-mismatch,0
6,"1,3,5",u,true,2,4,2,2,2,match,0
6,"2,3,4",u,true,2,5,2,2,2,match,2
6,"1,2,4,5",u,true,2,3,2,2,2,match,0
6,"1,2,3,4,5",u,true,3,6,2,2,2,match,0
""",
    ),
    (
        dict(n_min=4, n_max=4, modes=(cp.DIRECTED,), kinds=("C",)),
        """\
n,set,mode,connected,parts_B,parts_C,aut_B,aut_C,multipliers,verdict,prop_rounds
4,1,d,true,1,1,,1,1,match,0
4,2,d,false,1,2,,2,2,match,0
4,3,d,true,1,1,,1,1,match,0
4,"1,2",d,true,2,3,,1,1,match,0
4,"1,3",d,true,2,2,,2,2,match,0
4,"2,3",d,true,2,3,,1,1,match,0
4,"1,2,3",d,true,3,4,,2,2,match,0
""",
    ),
]


@pytest.mark.parametrize("spec, expected", GOLDEN_CSV, ids=["undirected", "directed-kind-C"])
def test_small_sweep_csv_without_timings(spec, expected):
    text = cp.report_to_csv(cp.verify_theorem(cp.SweepSpec(**spec)))
    assert "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines()) == expected


def render(command: str) -> str:
    """One transcript entry: the command, its stdout, its stderr lines marked, its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    marked = "".join(f"stderr: {line}\n" for line in err.getvalue().splitlines())
    return f"$ circpart {command}\n{out.getvalue()}{marked}[exit {code}]\n"


# 8:2,4,6:u merges the parts of 2 and 6 and has the order-2 generator 4.
GOLDEN_TRANSCRIPT = """\
$ circpart build --instance 8:2,4,6:u
instance: 8:2,4,6:u
mode: undirected
vertices: 8
edges: 12
generators: 2, 4, 6
connected: false
[exit 0]
$ circpart build --instance 12:4,3:d
instance: 12:3,4:d
mode: directed
vertices: 12
arcs: 24
generators: 3, 4
connected: true
[exit 0]
$ circpart partition --instance 8:2,4,6:u --kind B
instance: 8:2,4,6:u
kind: B
parts: 2
part 0 s=2,6: (0,2) (0,6) (1,3) (1,7) (2,4) (3,5) (4,6) (5,7)
part 1 s=4: (0,4) (1,5) (2,6) (3,7)
[exit 0]
$ circpart partition --instance 8:2,4,6:u --kind C
instance: 8:2,4,6:u
kind: C
parts: 6
part 0 s=2,6 coset=0: (0,2) (0,6) (2,4) (4,6)
part 1 s=2,6 coset=1: (1,3) (1,7) (3,5) (5,7)
part 2 s=4 coset=0: (0,4)
part 3 s=4 coset=1: (1,5)
part 4 s=4 coset=2: (2,6)
part 5 s=4 coset=3: (3,7)
[exit 0]
$ circpart partition --instance 12:4,3:d --kind B
instance: 12:3,4:d
kind: B
parts: 2
part 0 s=3: (0,3) (1,4) (2,5) (3,6) (4,7) (5,8) (6,9) (7,10) (8,11) (9,0) (10,1) (11,2)
part 1 s=4: (0,4) (1,5) (2,6) (3,7) (4,8) (5,9) (6,10) (7,11) (8,0) (9,1) (10,2) (11,3)
[exit 0]
$ circpart partition --instance 12:4,3:d --kind C
instance: 12:3,4:d
kind: C
parts: 7
part 0 s=3 coset=0: (0,3) (3,6) (6,9) (9,0)
part 1 s=3 coset=1: (1,4) (4,7) (7,10) (10,1)
part 2 s=3 coset=2: (2,5) (5,8) (8,11) (11,2)
part 3 s=4 coset=0: (0,4) (4,8) (8,0)
part 4 s=4 coset=1: (1,5) (5,9) (9,1)
part 5 s=4 coset=2: (2,6) (6,10) (10,2)
part 6 s=4 coset=3: (3,7) (7,11) (11,3)
[exit 0]
$ circpart autos --instance 8:2,4,6:u --kind C --fix-zero
[0, 1, 2, 3, 4, 5, 6, 7]
[0, 1, 2, 7, 4, 5, 6, 3]
[0, 1, 6, 3, 4, 5, 2, 7]
[0, 1, 6, 7, 4, 5, 2, 3]
[0, 3, 2, 1, 4, 7, 6, 5]
[0, 3, 2, 5, 4, 7, 6, 1]
[0, 3, 6, 1, 4, 7, 2, 5]
[0, 3, 6, 5, 4, 7, 2, 1]
[0, 5, 2, 3, 4, 1, 6, 7]
[0, 5, 2, 7, 4, 1, 6, 3]
[0, 5, 6, 3, 4, 1, 2, 7]
[0, 5, 6, 7, 4, 1, 2, 3]
[0, 7, 2, 1, 4, 3, 6, 5]
[0, 7, 2, 5, 4, 3, 6, 1]
[0, 7, 6, 1, 4, 3, 2, 5]
[0, 7, 6, 5, 4, 3, 2, 1]
count: 16
[exit 0]
$ circpart autos --instance 6:2,4:u --kind C --fix-zero --oracle
[0, 1, 2, 3, 4, 5]
[0, 1, 2, 5, 4, 3]
[0, 1, 4, 3, 2, 5]
[0, 1, 4, 5, 2, 3]
[0, 3, 2, 1, 4, 5]
[0, 3, 2, 5, 4, 1]
[0, 3, 4, 1, 2, 5]
[0, 3, 4, 5, 2, 1]
[0, 5, 2, 1, 4, 3]
[0, 5, 2, 3, 4, 1]
[0, 5, 4, 1, 2, 3]
[0, 5, 4, 3, 2, 1]
count: 12
[exit 0]
$ circpart autos --instance 5:1,4:u --kind B
[0, 1, 2, 3, 4]
[0, 4, 3, 2, 1]
[1, 0, 4, 3, 2]
[1, 2, 3, 4, 0]
[2, 1, 0, 4, 3]
[2, 3, 4, 0, 1]
[3, 2, 1, 0, 4]
[3, 4, 0, 1, 2]
[4, 0, 1, 2, 3]
[4, 3, 2, 1, 0]
count: 10
[exit 0]
$ circpart autos --instance 10:1,9:u --kind C --oracle
stderr: resource limit: n=10 exceeds the oracle limit 9
[exit 3]
$ circpart normalize --instance 12:1,5,7,11:u --perm [0,5,10,3,8,1,6,11,4,9,2,7]
residues: j = 1 (mod 4), j = 2 (mod 3)
combined: j = 5 (mod 12)
[exit 0]
$ circpart normalize --instance 4:1,2,3:u --perm [0,2,1,3]
failure: permutation is not normalizable to a multiplier (it does not respect the cycle partition)
[exit 0]
$ circpart propagate --instance 12:4,3,6:d
instance: 12:3,4,6:d
generator order: 3, 4, 6
stage k=1: adjoin s=4 (subgroup order 4, generator order 3, d=1)
  start: {0, 3, 4, 6, 8, 9}
  round 1 adds: {7}
  round 2 adds: {10, 11}
  round 3 adds: {1, 2}
  round 4 adds: {5}
  closed: true  coset-union invariant: true
stage k=2: adjoin s=6 (subgroup order 12, generator order 2, d=2)
  start: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
  closed: true  coset-union invariant: true
final fixed set: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
covered: true
[exit 0]
$ circpart propagate --instance 12:4,3:d --order 4,3
instance: 12:3,4:d
generator order: 4, 3
stage k=1: adjoin s=3 (subgroup order 3, generator order 4, d=1)
  start: {0, 3, 4, 6, 8, 9}
  round 1 adds: {7}
  round 2 adds: {10, 11}
  round 3 adds: {1, 2}
  round 4 adds: {5}
  closed: true  coset-union invariant: true
final fixed set: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
covered: true
[exit 0]
$ circpart verify --n-min 3 --n-max 5 --out report.json
instances: 32  match: 32  expected-mismatch: 0  mismatch: 0  errors: 0  failures: 0
report written to report.json
[exit 0]
$ circpart verify --n-min 6 --n-max 6 --mode u --out report.csv
instances: 7  match: 5  expected-mismatch: 2  mismatch: 0  errors: 0  failures: 0
report written to report.csv
[exit 0]
$ circpart build --instance 8:0,1:d
stderr: error: element 0 outside 1..7
[exit 2]
$ circpart partition --instance 6:1,5,2:u --kind C
stderr: error: undirected connection set must contain n-s for every s; missing inverses of [2]
[exit 2]
"""


def test_cli_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [line[len("$ circpart "):] for line in GOLDEN_TRANSCRIPT.splitlines() if line.startswith("$ ")]
    assert "".join(render(command) for command in commands) == GOLDEN_TRANSCRIPT



@pytest.mark.parametrize(
    "reverse, digest",
    [
        (False, "6e4cf34e24e4baab373c60df2a4bfe81e3ab6ddf36c8c24304db8c1ad46d91e3"),
        (True, "07380fd9a5a3c3d930a80864c8e3f8148843edc2e9b42bd9aa18dfc4ea525c9f"),
    ],
    ids=["default-order", "reversed-order"],
)
def test_propagation_trace_digest(reverse, digest):
    """Every stage's start, rounds and final set, for every directed set with n <= 12."""
    h = hashlib.sha256()
    for cs in cp.generate_instances(cp.SweepSpec(n_min=2, n_max=12, modes=(cp.DIRECTED,))):
        graph = cp.build(cs.n, cs.elements, cs.mode)
        order = tuple(reversed(cs.elements)) if reverse else None
        h.update(repr(cp.propagation_certifier(graph, order)).encode("utf-8"))
    assert h.hexdigest() == digest


def test_solution_list_digest():
    """The exact solution lists of both kinds, directed n <= 9 and undirected n <= 12."""
    h = hashlib.sha256()
    for spec in (
        cp.SweepSpec(n_min=2, n_max=9, modes=(cp.DIRECTED,)),
        cp.SweepSpec(n_min=2, n_max=12, modes=(cp.UNDIRECTED,)),
    ):
        for cs in cp.generate_instances(spec):
            graph = cp.build(cs.n, cs.elements, cs.mode)
            for partition in (cp.partition_by_generator(graph), cp.partition_by_cycle(graph)):
                sols = cp.enumerate_respecting(graph, partition)
                h.update(f"{cp.instance_key(cs)} {partition.kind} {sols!r}\n".encode("utf-8"))
    assert h.hexdigest() == "6fc8438902f9b4a0c81fbcfdc933789d266093967834dc34c0933081f8977d9a"
