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
# A well-formed line -- a vertex, an edge, or nothing -- with its comment;
# these are exactly the lines that `_line_error` does not refuse.
_LINE = re.compile(r"\s*(?:vertex\s+([A-Za-z0-9_]+)"
                   r"|edge\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+))?"
                   r"\s*(?:#.*)?")


def _line_error(raw: str, lineno: int) -> DslError:
    """The refusal of a line that `_LINE` does not match: the first invalid
    id of a vertex or edge line, else the line is unrecognized."""
    line = raw.split("#", 1)[0].strip()
    m = _VERTEX.match(line) or _EDGE.match(line)
    for token in m.groups() if m else ():
        if not _ID.match(token):
            return DslError(f"invalid id {token!r}", line=lineno)
    return DslError(f"unrecognized line {line!r}", line=lineno)


def parse_graph(text: str) -> DirectedGraph:
    """Parse DSL text into a graph; report duplicate and dangling ids.

    Each line is matched once; only a line that fails the match is looked at
    again, to name what is wrong with it."""
    vertices: list[Vertex] = []
    by_id: dict[str, Vertex] = {}
    edges: list[Edge] = []
    edge_ids: set[str] = set()
    match = _LINE.fullmatch
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = match(raw)
        if m is None:
            raise _line_error(raw, lineno)
        vid, eid, src, dst = m.groups()
        if vid is not None:
            if vid in by_id:
                raise DslError(f"duplicate vertex id {vid}", line=lineno)
            v = by_id[vid] = Vertex(vid)
            vertices.append(v)
        elif eid is not None:
            if eid in edge_ids:
                raise DslError(f"duplicate edge id {eid}", line=lineno)
            s = by_id.get(src)
            if s is None:
                raise DslError(f"unknown vertex {src}", line=lineno)
            r = by_id.get(dst)
            if r is None:
                raise DslError(f"unknown vertex {dst}", line=lineno)
            edge_ids.add(eid)
            edges.append(Edge(eid, s, r))
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
    vi, ei = g._vindex, g._eindex
    if "." not in token:
        if token in vi and token in ei:
            raise DslError(f"path {token} is ambiguous: it names both vertex {token} "
                           f"and edge {token}")
        if token in vi:
            return Path.at(g.vertices[vi[token]])
        if token in ei:
            return Path((g.edges[ei[token]],))
        raise DslError(f"no vertex or edge named {token}")
    edges = []
    for part in token.split("."):
        if part not in ei:
            raise DslError(f"no edge named {part}")
        edges.append(g.edges[ei[part]])
    return Path(tuple(edges))
