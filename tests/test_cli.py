"""DSL parsing, report determinism, command dispatch and exit codes."""

from __future__ import annotations

import io
import json
import os
import pathlib
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


def test_parse_errors():
    with pytest.raises(DslError) as err:
        parse_graph("edge e : v -> w\n")
    assert "unknown vertex v" in str(err.value) and err.value.line == 1
    with pytest.raises(DslError):
        parse_graph("vertex v\nvertex v\n")
    with pytest.raises(DslError):
        parse_graph("vertex v\nedge e : v -> v\nedge e : v -> v\n")
    with pytest.raises(DslError):
        parse_graph("vertex a-b\n")
    with pytest.raises(DslError):
        parse_graph("whatever\n")


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


def test_ktheory_verify_m_exit_follows_pass(twoloop_file, capsys, monkeypatch):
    monkeypatch.setattr(G.ktheory.MultiplicationCertificate, "reverify", lambda self: False)
    assert main(["ktheory", "--json", "--verify-m", "3", twoloop_file]) == 1
    v, = _json_out(capsys)["result"]["verifications"]
    assert v["pass"] is False
    assert main(["verify-m", "--m", "3", twoloop_file]) == 1


def test_internal_error_exit_code(twoloop_file, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "_cmd_classify", boom)
    assert main(["classify", twoloop_file]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


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
