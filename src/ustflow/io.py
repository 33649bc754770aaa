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

import dataclasses

import numpy as np

from .errors import ConfigurationError, IoFailure, ParseError, UnknownKey
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

    nodes = np.empty((n_nodes, dim))
    for k in range(n_nodes):
        no, body = reader.next("node line")
        vals = body.split()
        if len(vals) != dim:
            raise ParseError(f"expected {dim} coordinates", line=no)
        try:
            nodes[k] = [float(v) for v in vals]
        except ValueError:
            raise ParseError("bad float in node line", line=no)

    elements = np.empty((n_el, dim + 1), dtype=np.int64)
    for k in range(n_el):
        no, body = reader.next("element line")
        vals = body.split()
        if len(vals) != dim + 1:
            raise ParseError(f"expected {dim + 1} node ids", line=no)
        try:
            elements[k] = [int(v) for v in vals]
        except ValueError:
            raise ParseError("bad node id in element line", line=no)

    facets = np.empty((n_bf, dim), dtype=np.int64)
    tag_names: list = []
    tags = np.empty(n_bf, dtype=np.int64)
    for k in range(n_bf):
        no, body = reader.next("facet line")
        vals = body.split()
        if len(vals) != dim + 1:
            raise ParseError(f"expected {dim} node ids and a tag", line=no)
        try:
            facets[k] = [int(v) for v in vals[:dim]]
        except ValueError:
            raise ParseError("bad node id in facet line", line=no)
        name = vals[dim]
        if name not in tag_names:
            tag_names.append(name)
        tags[k] = tag_names.index(name)
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
    values = np.empty((n_rows, n_comp))
    for k in range(n_rows):
        no, body = reader.next("field row")
        vals = body.split()
        if len(vals) != n_comp:
            raise ParseError(f"expected {n_comp} components", line=no)
        try:
            values[k] = [float(v) for v in vals]
        except ValueError:
            raise ParseError("bad float in field row", line=no)
    reader.end("field block")

    if n_comp == nodes.shape[1]:  # space-time mesh: n_sd velocities + pressure
        times = nodes[:, -1]
        return SpaceTimeMesh(*block, times.min(), times.max()), values
    return SimplexMesh(*block), values


# -- scenario configuration ---------------------------------------------------

_CASE_KEYS = {"base", "name", "mode", "levels", "dt", "t_end", "mesh"}
_MATERIAL_KEYS = {"rho", "mu", "convective"}
_ROTATION_KEYS = {"omega", "center", "axis"}
_SECTIONS = {"case": _CASE_KEYS, "material": _MATERIAL_KEYS,
             "rotation": _ROTATION_KEYS}


def read_config(path):
    """Parse a ``key = value`` scenario file into a ScenarioSpec.

    The file must name a builtin base case; remaining keys override its
    scalar parameters.  A file that sets ``t_end`` or ``levels`` but not
    ``dt`` gets dt = t_end / levels.  Unknown sections or keys raise
    UnknownKey with the offending line number, and values out of range
    (levels, t_end or dt not positive, or a material ``MaterialParams``
    rejects) raise ParseError naming the key and the line.
    """
    from .scenarios import builtin_cases

    entries = {}
    section = None
    try:
        with open(path) as f:
            raw = f.readlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    for no, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SECTIONS:
                raise UnknownKey(f"unknown section [{section}]", line=no)
            continue
        if "=" not in body:
            raise ParseError("expected 'key = value'", line=no)
        if section is None:
            raise ParseError("key outside of any [section]", line=no)
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in _SECTIONS[section]:
            raise UnknownKey(f"unknown key {key!r} in [{section}]", line=no)
        entries[(section, key)] = (no, value)

    if ("case", "base") not in entries:
        raise ParseError("config must set base = <case name> in [case]")
    no, base = entries.pop(("case", "base"))
    registry = builtin_cases()
    if base not in registry:
        raise ParseError(f"unknown base case {base!r} "
                         f"(known: {sorted(registry)})", line=no)

    overrides = {}
    if ("case", "mesh") in entries:
        overrides["mesh"] = read_stmesh(entries.pop(("case", "mesh"))[1])
    spec = registry[base](**overrides)

    def as_number(no, v, kind=float):
        try:
            return kind(v)
        except ValueError:
            raise ParseError(f"bad {'integer' if kind is int else 'float'} "
                             f"{v!r}", line=no)

    def as_bool(no, key, v):
        if v.lower() in ("1", "true", "yes", "on"):
            return True
        if v.lower() in ("0", "false", "no", "off"):
            return False
        raise ParseError(f"{key} must be 1/true/yes/on or 0/false/no/off, "
                         f"got {v!r}", line=no)

    # no key is in two sections
    for (_, key), (no, value) in entries.items():
        if key in ("levels", "dt", "t_end"):
            x = as_number(no, value, int if key == "levels" else float)
            if not x > 0:
                raise ParseError(f"{key} must be positive, got {value!r}",
                                 line=no)
            setattr(spec, key, x)
        elif key in ("rho", "mu"):
            try:
                spec.material = dataclasses.replace(
                    spec.material, **{key: as_number(no, value)})
            except ConfigurationError as exc:
                raise ParseError(f"{key} = {value}: {exc}", line=no) from None
        elif key in ("center", "axis"):
            setattr(spec, key, tuple(as_number(no, v) for v in value.split()))
        elif key == "omega":
            spec.omega = as_number(no, value)
        elif key == "convective":
            spec.convective = as_bool(no, key, value)
        elif key == "mode":
            if value not in ("ust", "slab"):
                raise ParseError(f"mode must be ust or slab, got {value!r}",
                                 line=no)
            spec.mode = value
        else:  # name; base and mesh are taken above
            spec.name = value
    case_keys = {key for section, key in entries if section == "case"}
    if "dt" not in case_keys and case_keys & {"t_end", "levels"}:
        spec.dt = spec.t_end / spec.levels
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
