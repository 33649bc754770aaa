"""File formats: stmesh meshes, result files, scenario configs, CSV output.

The ``stmesh`` format is ASCII and line-oriented with ``#`` comments:

    stmesh <dim> <n_nodes> <n_elements> <n_boundary_facets>
    <dim floats per node line>
    <dim+1 zero-based node ids per element line>
    <dim node ids and a tag string per facet line>

Result files append a ``field <n_nodes> <n_components>`` block of nodal
rows to the mesh block.  Floats are written with 17 significant digits so
round-trips are bitwise stable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import numpy as np

from .errors import IoFailure, ParseError, UnknownKey, UstflowError
from .mesh import SimplexMesh, SpaceTimeMesh


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_stmesh(mesh: SimplexMesh, path) -> None:
    try:
        with open(path, "w") as f:
            _write_mesh_block(mesh, f)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_mesh_block(mesh: SimplexMesh, f) -> None:
    f.write(f"stmesh {mesh.dim} {mesh.n_nodes} {mesh.n_elements} "
            f"{len(mesh.boundary_facets)}\n")
    for p in mesh.nodes:
        f.write(" ".join(_fmt(v) for v in p) + "\n")
    for el in mesh.elements:
        f.write(" ".join(str(int(v)) for v in el) + "\n")
    for row, tag in zip(mesh.boundary_facets, mesh.boundary_tags):
        f.write(" ".join(str(int(v)) for v in row)
                + f" {mesh.tag_names[tag]}\n")


class _LineReader:
    def __init__(self, path):
        try:
            with open(path) as f:
                raw = f.readlines()
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        self.lines = []
        for no, line in enumerate(raw, start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                self.lines.append((no, body))
        self.pos = 0

    def next(self, what: str):
        if self.pos >= len(self.lines):
            raise ParseError(f"unexpected end of file, expected {what}")
        no, body = self.lines[self.pos]
        self.pos += 1
        return no, body

    def end(self, after: str):
        """Raise ParseError at the first line after the ``after``, if any."""
        if self.pos < len(self.lines):
            raise ParseError(f"unexpected line after the {after}",
                             line=self.lines[self.pos][0])


def _read_rows(reader: _LineReader, n: int, what: str, kind, width: int,
               expected: str, tagged: bool = False) -> tuple:
    """The next n lines of ``reader``, each a ``what`` of ``width`` numbers
    of ``kind`` (float or int) and, when ``tagged``, a tag: an (n, width)
    array and the list of the tags.  A line of another length raises
    ParseError 'expected <expected>', and a number that ``kind`` rejects
    'bad float' or 'bad node id', at its line."""
    rows, tags = np.empty((n, width), dtype=kind), []
    for k in range(n):
        no, body = reader.next(what)
        vals = body.split()
        if len(vals) != width + tagged:
            raise ParseError(f"expected {expected}", line=no)
        try:
            rows[k] = [kind(v) for v in vals[:width]]
        except ValueError:
            bad = "float" if kind is float else "node id"
            raise ParseError(f"bad {bad} in {what}", line=no) from None
        tags += vals[width:]
    return rows, tags


def _read_mesh_block(reader: _LineReader) -> tuple:
    """(nodes, elements, facets, tags, tag_names) of a mesh block."""
    no, header = reader.next("stmesh header")
    parts = header.split()
    if len(parts) != 5 or parts[0] != "stmesh":
        raise ParseError("expected 'stmesh <dim> <nodes> <elements> <facets>'",
                         line=no)
    try:
        dim, n_nodes, n_el, n_bf = (int(v) for v in parts[1:])
    except ValueError:
        raise ParseError("non-integer count in stmesh header", line=no)
    nodes, _ = _read_rows(reader, n_nodes, "node line", float, dim,
                          f"{dim} coordinates")
    elements, _ = _read_rows(reader, n_el, "element line", int, dim + 1,
                             f"{dim + 1} node ids")
    facets, names = _read_rows(reader, n_bf, "facet line", int, dim,
                               f"{dim} node ids and a tag", tagged=True)
    tag_names = list(dict.fromkeys(names))
    tags = np.array([tag_names.index(name) for name in names], dtype=np.int64)
    return nodes, elements, facets, tags, tag_names


def read_stmesh(path) -> SimplexMesh:
    reader = _LineReader(path)
    block = _read_mesh_block(reader)
    reader.end("mesh block")
    return SimplexMesh(*block)


def write_result(mesh: SimplexMesh, values: np.ndarray, path) -> None:
    """Mesh block followed by a nodal field block."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != mesh.n_nodes:
        raise IoFailure("field rows do not match node count")
    try:
        with open(path, "w") as f:
            _write_mesh_block(mesh, f)
            f.write(f"field {values.shape[0]} {values.shape[1]}\n")
            for row in values:
                f.write(" ".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_result(path):
    """(mesh, values); the mesh is a SpaceTimeMesh when the field has as
    many components as the mesh dimension (velocity + pressure), i.e. the
    mesh block stores a space-time grid."""
    reader = _LineReader(path)
    block = _read_mesh_block(reader)
    nodes = block[0]
    no, header = reader.next("field header")
    parts = header.split()
    if len(parts) != 3 or parts[0] != "field" or not (
            parts[1].isdigit() and parts[2].isdigit()):
        raise ParseError("expected 'field <n_nodes> <n_components>'", line=no)
    n_rows, n_comp = int(parts[1]), int(parts[2])
    if n_rows != len(nodes):
        raise ParseError("field node count does not match mesh", line=no)
    values, _ = _read_rows(reader, n_rows, "field row", float, n_comp,
                           f"{n_comp} components")
    reader.end("field block")

    if n_comp == nodes.shape[1]:  # space-time mesh: n_sd velocities + pressure
        times = nodes[:, -1]
        return SpaceTimeMesh(*block, times.min(), times.max()), values
    return SimplexMesh(*block), values


# -- scenario configuration ---------------------------------------------------

def _flag(value: str) -> bool:
    flags = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
    if value.lower() not in flags:
        raise ValueError(f"must be 1/true/yes/on or 0/false/no/off, "
                         f"got {value!r}")
    return flags[value.lower()]


def _floats(value: str) -> tuple:
    return tuple(float(v) for v in value.split())


# the keys of each section and their parsers; no key is in two sections
_KEYS = {
    "case": {"base": str, "mesh": read_stmesh, "name": str, "mode": str,
             "levels": int, "t_end": float},
    "material": {"rho": float, "mu": float, "convective": _flag},
    "rotation": {"omega": float, "center": _floats, "axis": _floats},
}


@contextlib.contextmanager
def _entry(key: str, value: str, no: int):
    """Raise a value that its parser or the spec rejects as a ParseError
    naming the key, the value and the line."""
    try:
        yield
    except (ValueError, UstflowError) as exc:
        raise ParseError(f"{key} = {value}: {exc}", line=no) from None


def read_config(path):
    """Parse a ``key = value`` scenario file into a ScenarioSpec.

    The file must name a builtin base case; ``mesh``, a path relative to
    the file's directory, replaces its mesh, and the remaining keys
    override its scalar parameters.  Unknown sections or keys raise
    UnknownKey with the offending line number, and a value that its parser
    in ``_KEYS`` rejects, a mesh file that cannot be read or parsed, and a
    value out of range (any the ``ScenarioSpec`` or ``MaterialParams``
    checks reject) raise ParseError naming the key and the line.
    """
    from .scenarios import builtin_cases

    entries = {}
    section = None
    for no, body in _LineReader(path).lines:
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _KEYS:
                raise UnknownKey(f"unknown section [{section}]", line=no)
            continue
        if "=" not in body:
            raise ParseError("expected 'key = value'", line=no)
        if section is None:
            raise ParseError("key outside of any [section]", line=no)
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in _KEYS[section]:
            raise UnknownKey(f"unknown key {key!r} in [{section}]", line=no)
        entries[key] = (no, value, _KEYS[section][key])

    if "base" not in entries:
        raise ParseError("config must set base = <case name> in [case]")
    no, base, _ = entries.pop("base")
    registry = builtin_cases()
    if base not in registry:
        raise ParseError(f"unknown base case {base!r} "
                         f"(known: {sorted(registry)})", line=no)
    if "mesh" in entries:
        no, value, read = entries.pop("mesh")
        with _entry("mesh", value, no):
            spec = registry[base](
                mesh=read(os.path.join(os.path.dirname(path), value)))
    else:
        spec = registry[base]()
    for key, (no, value, parse) in entries.items():
        with _entry(key, value, no):
            x = parse(value)
            change = ({"material": dataclasses.replace(spec.material,
                                                       **{key: x})}
                      if key in ("rho", "mu") else {key: x})
            spec = dataclasses.replace(spec, **change)
    return spec


def write_probe_csv(path, points: np.ndarray, values: np.ndarray,
                    found: np.ndarray) -> None:
    """CSV rows x,y[,z],t,u1,u2[,u3],p; missing points get empty fields."""
    points = np.atleast_2d(points)
    dim = points.shape[1]
    n_sd = dim - 1
    coord_names = ["x", "y", "z"][:n_sd]
    comp_names = [f"u{k + 1}" for k in range(n_sd)]
    header = ",".join(coord_names + ["t"] + comp_names + ["p"])
    try:
        with open(path, "w") as f:
            f.write(header + "\n")
            for p, row, ok in zip(points, values, found):
                cells = [_fmt(v) for v in p]
                cells += [_fmt(v) for v in row] if ok else [""] * (n_sd + 1)
                f.write(",".join(cells) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_convergence_csv(path, rows) -> None:
    cols = ["size", "h", "err_u", "err_p", "order_u", "order_p"]
    try:
        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for row in rows:
                f.write(",".join(
                    _fmt(row[c]) if isinstance(row.get(c), float)
                    else str(row.get(c, "")) for c in cols) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
