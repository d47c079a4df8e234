"""Molecular structure I/O and graph construction.

Supports a V2000 molfile subset (counts line, atom block, bond block,
``M  CHG``, ``M  END``, records separated by ``$$$$``) and plain XYZ.
Malformed input raises a located :class:`ParseError`. Parsed graphs are
immutable; graph expansion adds non-bonded auxiliary edges within a
distance cutoff to strengthen long-range message passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import pairs_within_cutoff

SUPPORTED_ELEMENTS = ("H", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")
_ELEMENT_INDEX = {el: i for i, el in enumerate(SUPPORTED_ELEMENTS)}

BOND_ORDERS = ("single", "double", "triple", "aromatic")
_BOND_ORDER_FROM_CODE = {1: "single", 2: "double", 3: "triple", 4: "aromatic"}
_BOND_CODE_FROM_ORDER = {v: k for k, v in _BOND_ORDER_FROM_CODE.items()}

# one-hot element + formal charge + heavy degree + aromatic flag
FEATURE_DIM = len(SUPPORTED_ELEMENTS) + 3

# default distance cutoff (angstrom) of the auxiliary atom edges and of the
# bead graph's centroid edges
AUX_CUTOFF = 4.0


class ParseError(ValueError):
    """Raised on malformed or unsupported molecular file content."""

    def __init__(self, message, record=None, line=None):
        loc = []
        if record is not None:
            loc.append(f"record {record}")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.record = record
        self.line = line


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    degree_heavy: int = 0
    aromatic: bool = False

    @property
    def feature_vector(self) -> np.ndarray:
        v = np.zeros(FEATURE_DIM)
        v[_ELEMENT_INDEX[self.element]] = 1.0
        v[len(SUPPORTED_ELEMENTS)] = float(self.formal_charge)
        v[len(SUPPORTED_ELEMENTS) + 1] = float(self.degree_heavy)
        v[len(SUPPORTED_ELEMENTS) + 2] = 1.0 if self.aromatic else 0.0
        return v


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: str = "single"

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("bond endpoints must be distinct")
        if self.order not in BOND_ORDERS:
            raise ValueError(f"unknown bond order {self.order!r}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


@dataclass(frozen=True)
class MolecularGraph:
    """Atoms, covalent bonds and auxiliary edges; immutable once built.

    The containers are stored as tuples. Index structure derived from the
    graph is cached in ``_topology`` by :mod:`coarsegen.topology`.
    """
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    aux_edges: tuple[tuple[int, int], ...] = ()
    _topology: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        object.__setattr__(self, "aux_edges", tuple(map(tuple, self.aux_edges)))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def feature_matrix(self) -> np.ndarray:
        if not self.atoms:
            return np.zeros((0, FEATURE_DIM))
        return np.stack([a.feature_vector for a in self.atoms])

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.atoms]
        for b in self.bonds:
            adj[b.i].append(b.j)
            adj[b.j].append(b.i)
        return adj


@dataclass
class Conformer:
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError("coords must be an n x 3 matrix")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coords must be finite")

    @property
    def n_atoms(self) -> int:
        return self.coords.shape[0]


def _as_text(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 (byte {exc.start})")
    return text


def _finish_atoms(elements, charges, bonds, aromatic_atoms):
    heavy_deg = [0] * len(elements)
    for b in bonds:
        if elements[b.j] != "H":
            heavy_deg[b.i] += 1
        if elements[b.i] != "H":
            heavy_deg[b.j] += 1
    return [Atom(el, charges[k], heavy_deg[k], k in aromatic_atoms)
            for k, el in enumerate(elements)]


def parse_sdf(text: str | bytes) -> list[tuple[MolecularGraph, Conformer]]:
    """Parse a (multi-record) SDF/molfile V2000 string.

    Returns one ``(graph, conformer)`` pair per record; graphs carry no
    auxiliary edges (see :func:`build_graph`).
    """
    text = _as_text(text)
    records = []
    blocks = text.split("$$$$")
    rec_index = 0
    for pos, block in enumerate(blocks):
        if not block.strip():
            continue
        # drop the newline left over from the record separator (the title
        # line itself may legitimately be blank)
        if pos > 0 and block.startswith("\n"):
            block = block[1:]
        records.append(_parse_mol_block(block, rec_index))
        rec_index += 1
    return records


def _parse_mol_block(block: str, rec: int):
    lines = block.splitlines()
    if len(lines) < 4:
        raise ParseError("record too short for a V2000 molfile", record=rec)
    counts = lines[3]
    try:
        n_atoms = int(counts[0:3])
        n_bonds = int(counts[3:6])
    except (ValueError, IndexError):
        raise ParseError(f"malformed counts line: {counts!r}", record=rec, line=4)
    if n_atoms < 1:
        raise ParseError("no atoms", record=rec, line=4)

    coords = np.zeros((n_atoms, 3))
    elements: list[str] = []
    charges = [0] * n_atoms
    for k in range(n_atoms):
        ln = 4 + k
        if ln >= len(lines):
            raise ParseError("atom block truncated", record=rec, line=ln + 1)
        row = lines[ln]
        try:
            xyz = (float(row[0:10]), float(row[10:20]), float(row[20:30]))
        except (ValueError, IndexError):
            raise ParseError(f"bad atom coordinates: {row!r}", record=rec, line=ln + 1)
        if not all(map(math.isfinite, xyz)):
            raise ParseError(f"non-finite atom coordinates: {row!r}", record=rec, line=ln + 1)
        coords[k] = xyz
        symbol = row[31:34].strip()
        if symbol not in _ELEMENT_INDEX:
            raise ParseError(f"unsupported element {symbol!r}", record=rec, line=ln + 1)
        elements.append(symbol)

    bonds: list[Bond] = []
    seen_pairs: set[tuple[int, int]] = set()
    aromatic_atoms: set[int] = set()
    for k in range(n_bonds):
        ln = 4 + n_atoms + k
        if ln >= len(lines):
            raise ParseError("bond block truncated", record=rec, line=ln + 1)
        row = lines[ln]
        try:
            a = int(row[0:3])
            b = int(row[3:6])
            code = int(row[6:9])
        except (ValueError, IndexError):
            raise ParseError(f"bad bond line: {row!r}", record=rec, line=ln + 1)
        if a < 1 or b < 1 or a > n_atoms or b > n_atoms:
            raise ParseError(f"dangling bond index {a}-{b}", record=rec, line=ln + 1)
        if a == b:
            raise ParseError(f"bond from atom {a} to itself", record=rec, line=ln + 1)
        if code not in _BOND_ORDER_FROM_CODE:
            raise ParseError(f"unsupported bond type {code}", record=rec, line=ln + 1)
        order = _BOND_ORDER_FROM_CODE[code]
        bond = Bond(a - 1, b - 1, order)
        if bond.pair in seen_pairs:
            raise ParseError(f"duplicate bond {a}-{b}", record=rec, line=ln + 1)
        seen_pairs.add(bond.pair)
        bonds.append(bond)
        if order == "aromatic":
            aromatic_atoms.update(bond.pair)

    # charge properties (M  CHG) override the atom-block column
    for ln, row in enumerate(lines[4 + n_atoms + n_bonds:], start=5 + n_atoms + n_bonds):
        if row.startswith("M  CHG"):
            fields = row.split()
            try:
                entries = [(int(fields[3 + 2 * c]), int(fields[4 + 2 * c]))
                           for c in range(int(fields[2]))]
            except (ValueError, IndexError):
                raise ParseError(f"malformed charge line: {row!r}", record=rec, line=ln)
            for atom, charge in entries:
                if atom < 1 or atom > n_atoms:
                    raise ParseError(f"charge on atom {atom} of {n_atoms}", record=rec, line=ln)
                charges[atom - 1] = charge
        if row.startswith("M  END"):
            break
    else:
        raise ParseError("missing 'M  END'", record=rec)

    atoms = _finish_atoms(elements, charges, bonds, aromatic_atoms)
    return MolecularGraph(atoms, bonds), Conformer(coords)


def parse_xyz(text: str | bytes) -> tuple[Conformer, list[str]]:
    """Parse a single-frame XYZ file into a conformer and element list."""
    text = _as_text(text)
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty xyz input")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"bad atom count line: {lines[0]!r}", line=1)
    # (1-based line number, text) of every non-blank line after the comment
    atom_lines = [(n, ln) for n, ln in enumerate(lines[2:], start=3) if ln.strip()]
    if len(atom_lines) != count:
        raise ParseError(
            f"atom count mismatch: declared {count}, found {len(atom_lines)}")
    coords = np.zeros((count, 3))
    elements = []
    for k, (line_no, row) in enumerate(atom_lines):
        fields = row.split()
        if len(fields) < 4:
            raise ParseError(f"bad xyz line: {row!r}", line=line_no)
        el = fields[0]
        if el not in _ELEMENT_INDEX:
            raise ParseError(f"unsupported element {el!r}", line=line_no)
        try:
            xyz = (float(fields[1]), float(fields[2]), float(fields[3]))
        except ValueError:
            raise ParseError(f"non-numeric coordinate: {row!r}", line=line_no)
        if not all(map(math.isfinite, xyz)):
            raise ParseError(f"non-finite coordinate: {row!r}", line=line_no)
        coords[k] = xyz
        elements.append(el)
    return Conformer(coords), elements


def build_graph(atoms: list[Atom], bonds: list[Bond], ref_conformer: Conformer,
                cutoff_angstrom: float = AUX_CUTOFF) -> MolecularGraph:
    """Expand a covalent graph with auxiliary edges within the cutoff.

    Auxiliary edges connect non-bonded atom pairs whose distance in
    ``ref_conformer`` is at most ``cutoff_angstrom``.
    """
    if ref_conformer.n_atoms != len(atoms):
        raise ValueError("conformer atom count does not match atom list")
    bonded = np.zeros((len(atoms),) * 2, dtype=bool)
    for b in bonds:
        bonded[b.pair] = True
    pairs = pairs_within_cutoff(ref_conformer.coords, cutoff_angstrom)
    return MolecularGraph(atoms, bonds, pairs[~bonded[pairs[:, 0], pairs[:, 1]]].tolist())


def write_conformer(graph: MolecularGraph, conformer: Conformer,
                    format: str = "sdf", title: str = "") -> bytes:
    """Serialize one molecule to SDF or XYZ bytes (4-decimal coordinates)."""
    if graph.n_atoms == 0:
        raise ValueError("no atoms")
    if conformer.n_atoms != graph.n_atoms:
        raise ValueError("conformer atom count does not match graph")
    if format == "sdf":
        return _write_sdf(graph, conformer, title)
    if format == "xyz":
        return _write_xyz(graph, conformer, title)
    raise ValueError(f"unsupported format {format!r}")


def _write_sdf(graph, conformer, title):
    lines = [title, "  coarsegen", ""]
    lines.append(f"{graph.n_atoms:3d}{len(graph.bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for atom, (x, y, z) in zip(graph.atoms, conformer.coords):
        lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {atom.element:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for b in graph.bonds:
        lines.append(f"{b.i + 1:3d}{b.j + 1:3d}{_BOND_CODE_FROM_ORDER[b.order]:3d}  0")
    charged = [(k, a.formal_charge) for k, a in enumerate(graph.atoms) if a.formal_charge]
    if charged:
        row = f"M  CHG{len(charged):3d}"
        for k, c in charged:
            row += f"{k + 1:4d}{c:4d}"
        lines.append(row)
    lines.append("M  END")
    lines.append("$$$$")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_xyz(graph, conformer, title):
    lines = [str(graph.n_atoms), title]
    for atom, (x, y, z) in zip(graph.atoms, conformer.coords):
        lines.append(f"{atom.element} {x:.4f} {y:.4f} {z:.4f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_sdf_records(records: list[tuple[MolecularGraph, Conformer]]) -> bytes:
    """Serialize several molecules into one multi-record SDF."""
    return b"".join(write_conformer(g, c, "sdf") for g, c in records)
