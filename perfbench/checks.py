"""Output checks computed apart from the program.

Nothing here calls `outercolor`: colorings are checked by a direct scan,
outerplanarity and 2-connectivity by networkx (a benchmark-only tool; the
program stays stdlib-only), and the families by their definitions.
`check_op` raises CheckError with a reason when an output is wrong.
"""

from __future__ import annotations

import json
from collections import defaultdict

import networkx as nx

from inputs import fan_edges

Edge = tuple[int, int]


class CheckError(Exception):
    pass


def _fail(cond: bool, msg: str) -> None:
    if cond:
        raise CheckError(msg)


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def parse_edge_list(text: str) -> tuple[int, set[Edge]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = {_norm(int(a), int(b)) for a, b in lines[1:]}
    _fail(len(edges) != m or len(lines) != m + 1, "edge list has duplicate or missing lines")
    return n, edges


def _nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def is_outerplanar_2connected(n: int, edges) -> bool:
    """G is 2-connected and G plus an apex joined to every vertex is planar."""
    g = _nx_graph(n, edges)
    if not nx.is_biconnected(g):
        return False
    g.add_edges_from(("apex", v) for v in range(n))
    return nx.check_planarity(g)[0]


def max_degree(edges) -> int:
    deg: dict[int, int] = defaultdict(int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg.values())


def check_coloring(doc: dict, edges: set[Edge], t: int) -> None:
    """Every edge colored once, proper, interval at every vertex, and
    every color 1..t used."""
    _fail(doc.get("t") != t, f"t is {doc.get('t')}, expected {t}")
    color: dict[Edge, int] = {}
    for u, v, c in doc["edges"]:
        e = _norm(u, v)
        _fail(e in color, f"edge {e} colored twice")
        color[e] = c
    _fail(set(color) != edges, "colored edges differ from the input edges")
    at: dict[int, list[int]] = defaultdict(list)
    for (u, v), c in color.items():
        at[u].append(c)
        at[v].append(c)
    for v, cs in at.items():
        cs.sort()
        _fail(len(set(cs)) != len(cs), f"not proper at vertex {v}")
        _fail(cs[-1] - cs[0] != len(cs) - 1, f"palette of vertex {v} is not an interval")
    _fail(set(color.values()) != set(range(1, t + 1)), f"colors used are not exactly 1..{t}")


def _non_crossing(order: list[int], chords: set[Edge]) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    spans = sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in chords)
    opens: dict[int, list[int]] = defaultdict(list)
    closes: dict[int, list[int]] = defaultdict(list)
    for p, q in spans:
        opens[p].append(q)
        closes[q].append(p)
    stack: list[tuple[int, int]] = []
    for i in range(len(order)):
        for p in sorted(closes[i], reverse=True):
            if not stack or stack.pop() != (p, i):
                return False
        for q in sorted(opens[i], reverse=True):
            stack.append((i, q))
    return True


def _check_recognize(meta: dict, code: int, out: str) -> None:
    n = meta["n"]
    edges = {tuple(e) for e in meta["edges"]}
    verdict = json.loads(out)
    if code == 0:
        _fail(verdict["verdict"] != "outerplanar-2connected", f"verdict {verdict}")
        order = verdict["order"]
        _fail(sorted(order) != list(range(n)), "order is not a permutation of the vertices")
        cycle = {_norm(order[i], order[(i + 1) % n]) for i in range(n)}
        _fail(not cycle <= edges, "order is not a Hamiltonian cycle of the graph")
        chords = {tuple(c) for c in verdict["chords"]}
        _fail(chords != edges - cycle, "reported chords are not the non-cycle edges")
        _fail(not _non_crossing(order, chords), "reported chords cross")
    else:
        _fail(code != 1 or verdict["verdict"] != "reject", f"exit {code}, verdict {verdict}")
        _fail(is_outerplanar_2connected(n, edges), "rejected a 2-connected outerplanar graph")
    _fail(meta["outerplanar"] != (code == 0), "verdict differs from how the graph was made")


def _check_not_colorable(meta: dict, verdict: dict) -> None:
    # T_{k,l,m} contains a triangle, so the sound cap on t is its edge count
    k, l, m = meta["k"], meta["l"], meta["m"]
    bound = 3 + 2 * (k + l + m)
    _fail(verdict["verdict"] != "not-colorable", f"verdict {verdict}")
    cert = verdict["certificate"]
    if cert["kind"] == "parity":
        _fail(sorted((cert["k"], cert["l"], cert["m"])) != sorted((k, l, m)),
              f"parity certificate for the wrong graph: {cert}")
    else:
        _fail(cert["kind"] != "exhausted-all-t", f"certificate {cert}")
        _fail(cert["t_max"] != bound, f"t_max {cert['t_max']}, bound is {bound}")


def check_op(op: dict, code, out: str, outputs: dict[str, tuple]) -> None:
    """Check one operation's exit code and output; raises CheckError."""
    kind = op["name"].split("/")[0]
    meta = op["meta"]
    _fail(code != op["expect"], f"exit code {code}, expected {op['expect']}")
    if kind == "color":
        edges = {tuple(e) for e in meta["edges"]}
        t = 3 if meta["n"] % 2 == 0 else 4
        check_coloring(json.loads(out), edges, t)
    elif kind == "verify":
        color_out = outputs[op["stdin_from"]][1]
        doc = json.loads(color_out)
        _fail(json.loads(out) != {"verdict": "ok", "t": doc["t"], "edges": len(doc["edges"])},
              f"verify said {out.strip()} on a coloring that passes the independent check")
    elif kind == "recognize":
        _check_recognize(meta, code, out)
    elif kind == "gen":
        n, edges = parse_edge_list(out)
        _fail(n != meta["n"], f"{n} vertices, asked for {meta['n']}")
        _fail(max_degree(edges) > 3, "max degree above 3")
        _fail(not is_outerplanar_2connected(n, edges), "not 2-connected outerplanar")
    elif kind == "fan":
        edges = fan_edges(meta["n"])
        check_coloring(json.loads(out), edges, max_degree(edges))
    elif kind == "demo":
        _check_demo(meta["n"], json.loads(out))
    elif kind == "width" and meta["t"] is None:
        _check_not_colorable(meta, json.loads(out))
    elif kind == "width":
        verdict = json.loads(out)
        _fail(verdict["verdict"] != "colored" or verdict["t"] != meta["t"], f"width said {verdict}")
        check_coloring(verdict["coloring"], {tuple(e) for e in meta["edges"]}, meta["t"])
    elif kind.startswith("exact"):
        t = int(kind[len("exact"):])
        if code == 0:
            check_coloring(json.loads(out), {tuple(e) for e in meta["edges"]}, t)
        else:
            _fail(json.loads(out) != {"verdict": "no-coloring-at-t", "t": t},
                  f"exact search said {out.strip()}")
            # T_{k,l,m} has no interval coloring at any t; a subcubic
            # graph can miss t=3 only at odd order (3 colors would make
            # color 2 a perfect matching)
            _fail(meta["t"] is not None and not (t == 3 and meta["n"] % 2 == 1),
                  f"no coloring at t={t} on a graph that has one")
    else:
        raise CheckError(f"no check for operation {op['name']}")


def _check_demo(n: int, report: dict) -> None:
    edges = fan_edges(n)
    tris = [tuple(t) for t in report["separating_triangles"]]
    _fail(len(tris) != n - 4 or report["count"] != n - 4, f"{len(tris)} triangles, not {n - 4}")
    g = _nx_graph(2 * n - 2, edges)
    for a, b, c in tris:
        _fail(not {_norm(a, b), _norm(b, c), _norm(a, c)} <= edges, f"{(a, b, c)} not a triangle")
        h = g.copy()
        h.remove_nodes_from((a, b, c))
        _fail(nx.is_connected(h), f"removing {(a, b, c)} leaves the fan connected")
    check_coloring(report["coloring"], edges, max_degree(edges))
