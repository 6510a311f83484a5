"""DSL parsing, report determinism, command dispatch and exit codes."""

from __future__ import annotations

import ast
import collections
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphck as G
import graphck.cli as cli
from graphck.cli import main
from graphck.dsl import emit_graph, parse_graph, parse_pathspec
from graphck.errors import DslError

CORPUS_DIR = pathlib.Path(__file__).parent / "data" / "corpus"
TWOLOOP = "vertex v\nedge e : v -> v\nedge f : v -> v\n"
MIXED = ("vertex u\nvertex v\nvertex w\n"
         "edge e1 : v -> v\nedge e2 : v -> v\n"
         "edge a : u -> v\nedge b : u -> w\n")


def test_parse_two_loop():
    g = parse_graph(TWOLOOP)
    assert [v.id for v in g.vertices] == ["v"]
    assert [e.id for e in g.edges] == ["e", "f"]


_PARSE_ERRORS = [
    ("edge e : v -> w\n", "unknown vertex v", 1),
    ("vertex v\nedge e : v -> w\n", "unknown vertex w", 2),
    ("vertex v\nvertex v\n", "duplicate vertex id v", 2),
    ("vertex v\nedge e : v -> v\nedge e : v -> v\n", "duplicate edge id e", 3),
    ("vertex a-b\n", "invalid id 'a-b'", 1),
    ("vertex v\n\nedge e:v -> v.w # x\n", "invalid id 'v.w'", 3),
    ("whatever\n", "unrecognized line 'whatever'", 1),
    ("vertex v  # c\r\nvertex v w\r\n", "unrecognized line 'vertex v w'", 2),
]


def test_parse_errors():
    for text, message, line in _PARSE_ERRORS:
        with pytest.raises(DslError) as err:
            parse_graph(text)
        assert str(err.value) == f"{message} at line {line}" and err.value.line == line, text


_SPACE = [" ", " ", " ", "  ", "\t", "\u00a0", "\x1f"]
_UNRECOGNIZED = ["node v", "vertex", "Vertex v", "vertex v w", "edge e : v",
                 "edge e v w", "edge e : v -> w x", "-> v", "edge : v -> w"]


def _random_dsl(rng) -> str:
    """A DSL text of up to 8 lines with, now and then, a malformed line: an
    invalid id tagged by its position (V vertex, E edge, S source, D
    destination), a duplicate or unknown id, or an unrecognized line; among
    comments, blank lines, odd whitespace and mixed line endings."""
    vids: list[str] = []
    eids: list[str] = []

    def bad(tag: str) -> str:
        return f"{tag}{rng.choice('-.$!é')}{rng.randint(0, 9)}"

    def pick(pool: list[str], tag: str, fresh: str) -> str:
        roll = rng.random()
        if roll < 0.03:
            return bad(tag)
        if roll < 0.06 or not pool:
            return fresh
        return rng.choice(pool)

    def sp() -> str:
        return rng.choice(_SPACE)

    def opt() -> str:
        return rng.choice(["", "", " ", "\t"])

    lines = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.35:
            vid = bad("V") if rng.random() < 0.03 else (
                rng.choice(vids) if vids and rng.random() < 0.04 else f"v{len(vids)}")
            vids.append(vid)
            line = f"vertex{sp()}{vid}"
        elif roll < 0.8:
            eid = bad("E") if rng.random() < 0.03 else (
                rng.choice(eids) if eids and rng.random() < 0.04 else f"e{len(eids)}")
            eids.append(eid)
            src, dst = pick(vids, "S", "zz"), pick(vids, "D", "zz")
            line = f"edge{sp()}{eid}{opt()}:{opt()}{src}{opt()}->{opt()}{dst}"
        elif roll < 0.86:
            line = rng.choice(_UNRECOGNIZED)
        elif roll < 0.93:
            line = rng.choice(["", "   ", "\t"])
        else:
            line = "# " + rng.choice(["note", "vertex zz", "edge x : a -> b"])
        if rng.random() < 0.2:
            line = rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t"])
        if rng.random() < 0.15:
            line += f"{opt()}# trailing {rng.randint(0, 9)}"
        lines.append(line)
    return "".join(line + rng.choice(["\n", "\n", "\r\n", "\r"]) for line in lines)


def test_parse_matches_the_line_by_line_oracle(rng):
    """The one-pattern parser gives the oracle's graph, or its refusal with
    the same message and line, on random texts that cover every refusal."""
    from oracles import parse_graph_by_lines

    def outcome(parse, text):
        try:
            return parse(text)
        except DslError as err:
            return str(err), err.line

    kinds = ("invalid id", "duplicate vertex id", "duplicate edge id", "unknown vertex",
             "unrecognized line")
    seen = collections.Counter()
    for _ in range(3000):
        text = _random_dsl(rng)
        got = outcome(parse_graph, text)
        assert got == outcome(parse_graph_by_lines, text), text
        if isinstance(got, tuple):
            kind = next(k for k in kinds if got[0].startswith(k))
            seen[got[0][12] if kind == "invalid id" else kind] += 1  # the position tag
        else:
            seen["graph"] += 1
    assert set(seen) == {"graph", "V", "E", "S", "D", *kinds[1:]}, seen
    assert min(seen.values()) >= 20 and seen["graph"] >= 500, seen


def test_parse_empty_and_comments():
    g = parse_graph("# nothing here\n\n   \n")
    assert g.vertices == () and g.edges == ()
    g = parse_graph("vertex v # trailing\n# full line\nedge e : v -> v\n")
    assert len(g.edges) == 1


def test_roundtrip(rng):
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng)
        again = parse_graph(emit_graph(g))
        assert again == g
        assert emit_graph(again) == emit_graph(g)


def test_pathspec():
    g = parse_graph(TWOLOOP)
    assert parse_pathspec(g, "v").id == "v"
    assert parse_pathspec(g, "e").id == "e"
    assert parse_pathspec(g, "e.f.e").id == "e.f.e"
    with pytest.raises(DslError):
        parse_pathspec(g, "nope")
    with pytest.raises(Exception):
        parse_pathspec(parse_graph("vertex v\nvertex w\nedge a : v -> w\n"), "a.a")


def test_pathspec_refuses_an_id_naming_a_vertex_and_an_edge(tmp_path, capsys):
    text = "vertex v\nvertex w\nedge v : v -> w\nedge x : w -> v\n"
    g = parse_graph(text)
    with pytest.raises(DslError, match="both vertex v and edge v"):
        parse_pathspec(g, "v")
    assert parse_pathspec(g, "w").id == "w"
    assert parse_pathspec(g, "x").id == "x"
    assert parse_pathspec(g, "v.x").id == "v.x"
    p = tmp_path / "ambiguous.g"
    p.write_text(text)
    assert main(["approx", "--m", "2", "--mu", "v", "--nu", "v", str(p)]) == 2
    assert "ambiguous" in capsys.readouterr().err


@pytest.fixture
def twoloop_file(tmp_path):
    p = tmp_path / "twoloop.g"
    p.write_text(TWOLOOP)
    return str(p)


@pytest.fixture
def mixed_file(tmp_path):
    p = tmp_path / "mixed.g"
    p.write_text(MIXED)
    return str(p)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_classify_command(twoloop_file, capsys):
    assert main(["classify", "--json", twoloop_file]) == 0
    rep = _json_out(capsys)
    assert rep["schema"] == "graphck/1"
    assert rep["result"]["lower"] == 1 and rep["result"]["upper"] == 1


def test_report_determinism(twoloop_file, capsys):
    main(["analyze", "--json", twoloop_file])
    one = _json_out(capsys)
    main(["analyze", "--json", twoloop_file])
    two = _json_out(capsys)
    one.pop("timing_ms", None)
    two.pop("timing_ms", None)
    assert one == two


def test_blowup_pipes_back(twoloop_file, capsys):
    assert main(["blowup", "--m", "2", twoloop_file]) == 0
    out = capsys.readouterr().out
    g = parse_graph(out)
    assert len(g.vertices) == 3 and len(g.edges) == 6


def test_jeong_park_command(twoloop_file, capsys):
    assert main(["jeong-park", "--vertices", "v", twoloop_file]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert sorted(e.id for e in g.edges) == ["e", "f"]


def test_jeong_park_names_first_failing_vertex_whatever_the_hash_seed(tmp_path):
    p = tmp_path / "loops.g"
    p.write_text("vertex a\nvertex b\nvertex c\n"
                 "edge x : a -> a\nedge y : b -> b\nedge z : c -> c\n")
    src = os.path.dirname(os.path.dirname(G.__file__))
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", "graphck.cli", "jeong-park", str(p)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert "fails Condition (K) at a" in run.stderr, (seed, run.stderr)


def test_jeong_park_refuses_a_vertex_that_reaches_no_cycle(tmp_path, capsys):
    # Condition (K) holds (v has two loops, the sinks u and w have no cycle),
    # so the refusal names the first vertex that reaches no cycle
    p = tmp_path / "tail.g"
    p.write_text("vertex u\nvertex v\nvertex w\n"
                 "edge e : v -> v\nedge f : v -> v\nedge a : v -> w\nedge b : v -> u\n")
    assert main(["jeong-park", "--vertices", "v", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex u does not connect to a cycle\n"


def _count_components(monkeypatch) -> list[int]:
    """Count Tarjan runs: wrap `graphs._components` under every name a graphck
    module bound it to, as `perfbench/tracing.install` wraps its targets."""
    original = sys.modules["graphck.graphs"]._components
    runs = [0]

    def counted(succ):
        runs[0] += 1
        return original(succ)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "graphck" or name.startswith("graphck.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return runs


def test_cycle_facts_take_one_tarjan_run_per_consumer(monkeypatch, capsys):
    runs = _count_components(monkeypatch)
    # analyze: ideal report 2, classify 2, connects-to-cycle 1, acyclic 1
    for command, most in (("analyze", 6), ("classify", 2), ("ideals", 2)):
        runs[0] = 0
        assert main([command, str(CORPUS_DIR / "mixed.g")]) == 0
        assert runs[0] <= most, (command, runs[0])
    # both jeong-park preconditions read one derivation; this graph passes
    # Condition (K) and fails the second, so nothing else runs
    g = G.DirectedGraph.build(["v", "w"], [("e", "v", "v"), ("f", "v", "v"), ("a", "v", "w")])
    runs[0] = 0
    with pytest.raises(G.ContractViolation, match="^vertex w does not connect to a cycle$"):
        G.jeong_park_subgraph(g, set(), set())
    assert runs[0] == 1


def test_jeong_park_closure_takes_one_tarjan_run_per_pass(monkeypatch):
    # ring i -> i+1 and, for even i, i -> i+2: one run for the preconditions,
    # then one per closure pass, and the second pass finds nothing to add
    n = 50
    g = G.DirectedGraph.build(
        [f"v{i}" for i in range(n)],
        [(f"a{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
        + [(f"b{i}", f"v{i}", f"v{(i + 2) % n}") for i in range(0, n, 2)])
    runs = _count_components(monkeypatch)
    sub = G.jeong_park_subgraph(g, {g.vertex("v0")}, set())
    assert runs[0] == 3
    assert G.satisfies_condition_K(sub)


def test_approx_on_five_loops_runs_in_256_mib(tmp_path):
    """The leveled gap is counted, not listed: on one vertex with 5 loops it
    has 484375 terms, which listing them could not hold in 256 MiB."""
    p = tmp_path / "loops.g"
    p.write_text("vertex v0\n" + "".join(f"edge e{i} : v0 -> v0\n" for i in range(5)))
    src = os.path.dirname(os.path.dirname(G.__file__))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
    run = subprocess.run(
        [sys.executable, "-m", "graphck.cli", "approx", "--m", "3", "--mu", "e0", "--nu", "v0",
         "--json", str(p)], env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap,
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)["result"]
    assert result["difference_terms"] == 484375
    assert result["max_coefficient"] == "2/3"


def test_kappa_command(capsys):
    assert main(["kappa", "--m", "3", "--json"]) == 0
    rep = _json_out(capsys)
    assert rep["result"]["entries"][1][1] == "2/3"


def test_ktheory_command(twoloop_file, capsys):
    assert main(["ktheory", "--json", "--verify-m", "3", twoloop_file]) == 0
    rep = _json_out(capsys)
    assert rep["result"]["k0"] == {"rank": 0, "torsion": []}
    assert rep["result"]["k1"] == {"rank": 0}
    v, = rep["result"]["verifications"]
    assert v["pass"] and v["m"] == 3


def test_ktheory_subquotients(mixed_file, capsys):
    # mixed graph has sinks: refused at the K-theory door with exit 2
    assert main(["ktheory", "--verify-m", "2", "--subquotients", mixed_file]) == 2


def test_ktheory_subquotients_needs_verify_m(twoloop_file, capsys):
    assert main(["ktheory", "--subquotients", twoloop_file]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--verify-m" in out.err


def test_verify_m_sink_message(mixed_file, capsys):
    code = main(["verify-m", "--m", "3", mixed_file])
    assert code == 2
    assert "sink" in capsys.readouterr().err


def test_verify_hom_commands(twoloop_file, capsys):
    assert main(["verify-hom", "--which", "iota", "--m", "2", twoloop_file]) == 0
    assert main(["verify-hom", "--which", "jm", "--m", "2", twoloop_file]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_quasidiag_command(mixed_file, capsys):
    assert main(["quasidiag", "--ideal", "v", "--window", "u,v,w", mixed_file]) == 0
    assert main(["quasidiag", "--ideal", "w", "--window", "u,v,w", mixed_file]) == 2


def test_approx_command(twoloop_file, capsys):
    assert main(["approx", "--m", "2", "--mu", "v", "--nu", "v", "--json", twoloop_file]) == 0
    rep = _json_out(capsys)
    assert rep["result"]["max_coefficient"] == "0"


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.g"
    p.write_text("edge e : v -> w\n")
    assert main(["classify", str(p)]) == 2
    assert "unknown vertex" in capsys.readouterr().err


def test_non_utf8_input_exit_code(tmp_path, capsys, monkeypatch):
    p = tmp_path / "latin.g"
    p.write_bytes(b"vertex \xff\xfe\n")
    assert main(["classify", str(p)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"vertex \xff\xfe\n")))
    assert main(["classify", "-"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["classify", "/nonexistent/file.g"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["blowup", "/tmp/whatever.g"]) == 2  # --m is required


def test_resource_exit_code(tmp_path, capsys):
    vs = "\n".join(f"vertex v{i}" for i in range(25))
    p = tmp_path / "big.g"
    p.write_text(vs + "\n")
    assert main(["ideals", str(p)]) == 3


def test_corpus_runner(tmp_path, capsys):
    graph = tmp_path / "twoloop.g"
    graph.write_text(TWOLOOP)
    main(["classify", "--json", str(graph)])
    expected = _json_out(capsys)["result"]
    fixture = tmp_path / "twoloop.expect.json"
    fixture.write_text(json.dumps({"command": ["classify"], "result": expected}))
    assert main(["corpus", str(tmp_path)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = dict(expected)
    bad["upper"] = 7
    fixture.write_text(json.dumps({"command": ["classify"], "result": bad}))
    assert main(["corpus", str(tmp_path)]) == 1


def test_shipped_corpus_fixtures(capsys):
    assert main(["corpus", str(CORPUS_DIR)]) == 0


def test_empty_graph_analyze(tmp_path, capsys):
    p = tmp_path / "empty.g"
    p.write_text("# nothing\n")
    assert main(["analyze", "--json", str(p)]) == 0
    rep = _json_out(capsys)
    assert rep["result"]["classification"]["lower"] == 0
    assert rep["result"]["ktheory"] == {"k0": {"rank": 0, "torsion": []},
                                        "k1": {"rank": 0}}


def test_verify_hom_jm_sink_exit(tmp_path, capsys):
    p = tmp_path / "sink.g"
    p.write_text("vertex v\nvertex w\nedge e : v -> w\nedge l : v -> v\n")
    assert main(["verify-hom", "--which", "jm", "--m", "2", str(p)]) == 2
    assert "sink" in capsys.readouterr().err


def test_removed_options_exit_2(twoloop_file, capsys):
    assert main(["kappa", "--m", "3", "--depth", "2"]) == 2
    assert main(["ideals", "--max-vertices", "5", twoloop_file]) == 2
    assert main(["classify", "--truncation", "4", twoloop_file]) == 2
    assert main(["corpus", str(CORPUS_DIR), "--json"]) == 2
    assert main(["blowup", "--m", "2", "--json", twoloop_file]) == 2
    assert main(["jeong-park", "--vertices", "v", "--json", twoloop_file]) == 2
    assert main(["verify-hom", "--which", "iota", "--m", "2", "--depth", "3", twoloop_file]) == 2
    assert main(["quasidiag", "--ideal", "v", "--window", "v", "--depth", "3", twoloop_file]) == 2


def test_ktheory_verify_m_exit_follows_pass(twoloop_file, capsys, monkeypatch):
    monkeypatch.setattr(G.ktheory.MultiplicationCertificate, "reverify", lambda self: False)
    assert main(["ktheory", "--json", "--verify-m", "3", twoloop_file]) == 1
    v, = _json_out(capsys)["result"]["verifications"]
    assert v["pass"] is False
    assert main(["verify-m", "--m", "3", twoloop_file]) == 1


def test_internal_error_exit_code(twoloop_file, capsys, monkeypatch):
    def boom(g):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "classify_graph", boom)
    assert main(["classify", twoloop_file]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


# Each subcommand in usage order, with every option it accepts and a value
# that runs on the two-loop graph; `None` marks a flag without a value.
CLI_SURFACE = {
    "analyze": {"--json": None},
    "ktheory": {"--json": None, "--verify-m": "2", "--subquotients": None},
    "ideals": {"--json": None},
    "classify": {"--json": None},
    "blowup": {"--m": "2"},
    "jeong-park": {"--vertices": "v", "--edges": "e"},
    "kappa": {"--json": None, "--m": "2"},
    "approx": {"--json": None, "--depth": "6", "--m": "2", "--mu": "v", "--nu": "v"},
    "verify-hom": {"--json": None, "--which": "iota", "--m": "2"},
    "verify-m": {"--json": None, "--m": "2"},
    "quasidiag": {"--json": None, "--ideal": "v", "--window": "v"},
    "corpus": {},
}
REQUIRED_OPTIONS = {"blowup": ["--m"], "kappa": ["--m"], "approx": ["--m", "--mu", "--nu"],
                    "verify-hom": ["--which", "--m"], "verify-m": ["--m"],
                    "quasidiag": ["--ideal", "--window"]}


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_cli_surface(command, twoloop_file, capsys):
    options = CLI_SURFACE[command]
    positional = {"kappa": {}, "corpus": {"directory": str(CORPUS_DIR)}}.get(
        command, {"graph": twoloop_file})

    def argv(drop=None, extra=()):
        flags = [t for opt, value in options.items() if opt != drop
                 for t in ([opt] if value is None else [opt, value])]
        return [command, *flags, *extra, *positional.values()]

    assert main(argv()) == 0
    dests = set(vars(cli._build_parser().parse_args(argv())))
    assert dests == {"command", "func", *positional,
                     *(opt[2:].replace("-", "_") for opt in options)}
    for opt in REQUIRED_OPTIONS.get(command, []):
        assert main(argv(drop=opt)) == 2, opt
    assert main(argv(extra=["--no-such-option" if "--json" in options else "--json"])) == 2
    assert main([command, "--help"]) == 0


def test_usage_lists_subcommands_in_order(capsys):
    assert main(["--help"]) == 0
    usage = capsys.readouterr().out
    listed = usage[usage.index("{") + 1:usage.index("}")].split(",")
    assert listed == list(CLI_SURFACE)
    assert main(["no-such-command"]) == 2


def test_parser_built_once_per_process_not_at_import(twoloop_file):
    script = (
        "import argparse, json, sys\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    made.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import graphck.cli\n"
        "counts = [len(made)]\n"
        "for _ in range(2):\n"
        "    graphck.cli.main(['classify', sys.argv[1]])\n"
        "    counts.append(len(made))\n"
        "sys.stderr.write(json.dumps([counts, made.count('graphck')]))\n")
    src = os.path.dirname(os.path.dirname(G.__file__))
    run = subprocess.run([sys.executable, "-c", script, twoloop_file],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    (at_import, first, second), roots = json.loads(run.stderr)
    assert at_import == 0 and first > 0
    assert second == first and roots == 1


def test_lattice_of_large_strongly_connected_ring(tmp_path, capsys):
    # 25 vertices, edges i -> i+1 and i -> i+2: Condition (K), lattice {0, E^0}
    n = 25
    text = "".join(f"vertex v{i}\n" for i in range(n))
    text += "".join(f"edge a{i} : v{i} -> v{(i + 1) % n}\nedge b{i} : v{i} -> v{(i + 2) % n}\n"
                    for i in range(n))
    p = tmp_path / "ring.g"
    p.write_text(text)
    full = sorted(f"v{i}" for i in range(n))
    assert main(["ideals", "--json", str(p)]) == 0
    assert [s["vertices"] for s in _json_out(capsys)["result"]["sets"]] == [[], full]
    assert main(["classify", "--json", str(p)]) == 0
    verdict = _json_out(capsys)["result"]
    assert (verdict["lower"], verdict["upper"]) == (1, 1)
    assert verdict["rules"][0]["witness"]["ideal_lattice"] == [[], full]
    assert main(["analyze", "--json", str(p)]) == 0
    assert len(_json_out(capsys)["result"]["ideals"]["sets"]) == 2


def _passes(node):
    if isinstance(node, dict):
        return ([node["pass"]] if "pass" in node else []) + [
            x for v in node.values() for x in _passes(v)]
    if isinstance(node, list):
        return [x for v in node for x in _passes(v)]
    return []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 6), data=st.data(), m=st.integers(1, 3),
       command=st.sampled_from(["analyze", "classify", "ideals", "ktheory", "ktheory-m",
                                "ktheory-sub", "verify-m", "verify-hom-iota",
                                "verify-hom-jm"]))
def test_cli_exit_code_contract(tmp_path_factory, n, data, m, command):
    """Exit codes stay in {0, 1, 2, 3}, and exit 0 exactly when every
    reported `pass` is true."""
    vs = [f"v{i}" for i in range(n)]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                               max_size=10)) if vs else []
    text = "".join(f"vertex {v}\n" for v in vs)
    text += "".join(f"edge e{j} : {s} -> {r}\n" for j, (s, r) in enumerate(pairs))
    path = tmp_path_factory.mktemp("contract") / "g.g"
    path.write_text(text)
    argv = {"ktheory-m": ["ktheory", "--verify-m", str(m)],
            "ktheory-sub": ["ktheory", "--verify-m", str(m), "--subquotients"],
            "verify-m": ["verify-m", "--m", str(m)],
            # a third blow-up of ten loops takes seconds to verify
            "verify-hom-iota": ["verify-hom", "--which", "iota", "--m", str(min(m, 2))],
            "verify-hom-jm": ["verify-hom", "--which", "jm", "--m", str(min(m, 2))],
            }.get(command, [command])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--json", str(path)])
    assert code in (0, 1, 2, 3), err.getvalue()
    if code in (0, 1):
        passes = _passes(json.loads(out.getvalue())["result"])
        assert code == (0 if all(passes) else 1)


def test_readme_library_example():
    """The README's library example runs against the public names, and each
    value it shows holds."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    k, mult_ok, family_ok, verdict = shown
    assert (k.k0_free_rank, k.k0_torsion, k.k1_rank) == (0, [], 0)
    assert mult_ok and family_ok
    assert (verdict.lower, verdict.upper, verdict.toeplitz_upper) == (1, 1, 2)
