"""Output and input checks, computed apart from the codec.

Everything works on plain rotation lists (``rows[v]`` = clockwise neighbours
of v) with this file's own face tracing, so a fault in the library's graph
code cannot hide a fault in its output.  Every check raises ``CheckFailed``.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """A generated input or a codec output failed a benchmark check."""


def _positions(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{w: i for i, w in enumerate(row)} for row in rows]


def validate_rows(rows: list[list[int]]) -> None:
    """Simple, symmetric rotation lists over nodes 0..n-1."""
    n = len(rows)
    pos = _positions(rows)
    for v, row in enumerate(rows):
        if len(pos[v]) != len(row):
            raise CheckFailed(f"repeated neighbour at node {v}")
        for w in row:
            if not 0 <= w < n or w == v:
                raise CheckFailed(f"bad neighbour {w} at node {v}")
            if v not in pos[w]:
                raise CheckFailed(f"edge ({v},{w}) missing at node {w}")


def face_lengths(rows: list[list[int]]) -> list[int]:
    """Lengths of all face walks.  The walk after dart u->w continues from w
    to the neighbour that follows u in w's clockwise rotation."""
    pos = _positions(rows)
    seen: set[tuple[int, int]] = set()
    out = []
    for u, row in enumerate(rows):
        for w in row:
            if (u, w) in seen:
                continue
            length = 0
            a, b = u, w
            while (a, b) not in seen:
                seen.add((a, b))
                length += 1
                rb = rows[b]
                a, b = b, rb[(pos[b][a] + 1) % len(rb)]
            out.append(length)
    return out


def component_count(rows: list[list[int]]) -> int:
    seen = [False] * len(rows)
    count = 0
    for s in range(len(rows)):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for w in rows[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def shape(rows: list[list[int]]) -> tuple[int, int, int, int]:
    """(nodes, edges, faces, components); an edgeless node is one face."""
    validate_rows(rows)
    faces = len(face_lengths(rows)) + sum(1 for row in rows if not row)
    return len(rows), sum(map(len, rows)) // 2, faces, component_count(rows)


def check_plane(rows: list[list[int]]) -> tuple[int, int, int, int]:
    """Euler's formula V - E + F = 2C, i.e. every component on the sphere."""
    v, e, f, c = shape(rows)
    if v - e + f != 2 * c:
        raise CheckFailed(f"not plane: V - E + F = {v - e + f}, 2C = {2 * c}")
    return v, e, f, c


def check_member(rows: list[list[int]], class_name: str) -> None:
    """The benchmark's own face-count and degree checks for a class."""
    v, e, _f, c = check_plane(rows)
    if class_name == "plane-triangulation":
        if v < 3 or c != 1 or any(k != 3 for k in face_lengths(rows)):
            raise CheckFailed("not a plane triangulation")
    elif class_name == "plane-connected":
        if c != 1:
            raise CheckFailed("not connected")
    elif class_name == "forest-deg5":
        if e != v - c or max(map(len, rows), default=0) > 5:
            raise CheckFailed("not a forest of maximum degree 5")
    else:
        raise ValueError(f"no checks for class {class_name!r}")


def _from_min(row: list[int]) -> list[int]:
    if not row:
        return []
    i = row.index(min(row))
    return row[i:] + row[:i]


def expected_rows(rows: list[list[int]], labeling: list[int]) -> list[list[int]]:
    """The input relabeled by ``labeling``, each row from its smallest entry."""
    n = len(rows)
    if sorted(labeling) != list(range(n)):
        raise CheckFailed("labeling is not a permutation of the nodes")
    out: list[list[int]] = [[] for _ in range(n)]
    for v, row in enumerate(rows):
        out[labeling[v]] = _from_min([labeling[w] for w in row])
    return out


def check_roundtrip(
    decoded: list[list[int]], rows: list[list[int]], labeling: list[int]
) -> None:
    """decode(data) must equal the input relabeled by the encode labeling,
    and keep its node, edge and component counts and Euler's formula."""
    if [_from_min(r) for r in decoded] != expected_rows(rows, labeling):
        raise CheckFailed("decoded graph differs from the relabeled input")
    got = check_plane(decoded)
    want = shape(rows)
    if (got[0], got[1], got[3]) != (want[0], want[1], want[3]):
        raise CheckFailed("decoded node, edge or component count differs")


LAYER_FIELDS = (
    "header_bits",
    "table_bits",
    "prefix_bits",
    "part_code_bits",
    "fix_bits",
    "recovery_bits",
    "padding_bits",
)


def check_stats(data: bytes, st, n: int, components: int) -> None:
    """Bit accounting: the container length is ``total_bits`` and the
    non-negative layer fields sum to it."""
    if 8 * len(data) != st.total_bits:
        raise CheckFailed("8 * len(data) differs from Stats.total_bits")
    fields = [getattr(st, name) for name in LAYER_FIELDS]
    if min(fields) < 0 or sum(fields) != st.total_bits:
        raise CheckFailed(f"Stats layer fields {fields} do not sum to total_bits")
    if st.n != n or st.components != components:
        raise CheckFailed("Stats node or component count differs from the input")
