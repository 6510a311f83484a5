"""Plain-text graph format shared by every CLI command.

Lines are ``vertex <id>`` or ``edge <id> : <src> -> <dst>``; ``#`` starts a
comment and blank lines are ignored.  Ids match [A-Za-z0-9_]+.  Parsing keeps
declaration order, so parse -> emit -> parse is the identity.
"""

from __future__ import annotations

import re

from .errors import DslError
from .graphs import DirectedGraph, Edge, Path, Vertex

_ID = re.compile(r"^[A-Za-z0-9_]+$")
_EDGE = re.compile(r"^edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_VERTEX = re.compile(r"^vertex\s+(\S+)$")


def _check_id(token: str, lineno: int) -> str:
    if not _ID.match(token):
        raise DslError(f"invalid id {token!r}", line=lineno)
    return token


def parse_graph(text: str) -> DirectedGraph:
    """Parse DSL text into a graph; report duplicate and dangling ids."""
    vertices: list[Vertex] = []
    by_id: dict[str, Vertex] = {}
    edges: list[Edge] = []
    edge_ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _VERTEX.match(line)
        if m:
            vid = _check_id(m.group(1), lineno)
            if vid in by_id:
                raise DslError(f"duplicate vertex id {vid}", line=lineno)
            v = Vertex(vid)
            vertices.append(v)
            by_id[vid] = v
            continue
        m = _EDGE.match(line)
        if m:
            eid, src, dst = (_check_id(t, lineno) for t in m.groups())
            if eid in edge_ids:
                raise DslError(f"duplicate edge id {eid}", line=lineno)
            if src not in by_id:
                raise DslError(f"unknown vertex {src}", line=lineno)
            if dst not in by_id:
                raise DslError(f"unknown vertex {dst}", line=lineno)
            edge_ids.add(eid)
            edges.append(Edge(eid, by_id[src], by_id[dst]))
            continue
        raise DslError(f"unrecognized line {line!r}", line=lineno)
    return DirectedGraph(vertices, edges)


def emit_graph(g: DirectedGraph) -> str:
    """Serialize a graph in the DSL, vertices first, insertion order kept."""
    lines = [f"vertex {v.id}" for v in g.vertices]
    lines.extend(f"edge {e.id} : {e.source.id} -> {e.range.id}" for e in g.edges)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_pathspec(g: DirectedGraph, text: str) -> Path:
    """A path given as a vertex id or a dot-joined list of edge ids.  A
    single id that names both a vertex and an edge is refused."""
    token = text.strip()
    if not token:
        raise DslError("empty path specification")
    if "." not in token:
        vertices = [v for v in g.vertices if v.id == token]
        edges = [e for e in g.edges if e.id == token]
        if vertices and edges:
            raise DslError(f"path {token} is ambiguous: it names both vertex {token} "
                           f"and edge {token}")
        if vertices:
            return Path.at(vertices[0])
        if edges:
            return Path((edges[0],))
        raise DslError(f"no vertex or edge named {token}")
    edges = []
    for part in token.split("."):
        matches = [e for e in g.edges if e.id == part]
        if not matches:
            raise DslError(f"no edge named {part}")
        edges.append(matches[0])
    return Path(tuple(edges))
