"""Structure file parsing/serialization and expanded-graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegen.molio import (FEATURE_DIM, Atom, Bond, Conformer, ParseError,
                             build_graph, parse_sdf, parse_xyz, write_conformer,
                             write_sdf_records)


def make_sdf(atoms, bonds, title="mol", props=("M  END",)):
    """atoms: list of (x, y, z, symbol); bonds: list of (i1, j1, code) 1-based."""
    lines = [title, "  test", "",
             f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000"]
    for x, y, z, sym in atoms:
        lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {sym:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for i, j, code in bonds:
        lines.append(f"{i:3d}{j:3d}{code:3d}  0")
    lines.extend(props)
    lines.append("$$$$")
    return "\n".join(lines) + "\n"


ETHANOL = make_sdf(
    [(0.0, 0.0, 0.0, "C"), (1.5, 0.0, 0.0, "C"), (2.2, 1.2, 0.0, "O")],
    [(1, 2, 1), (2, 3, 1)])


class TestParseSdf:
    def test_basic_record(self):
        (graph, conf), = parse_sdf(ETHANOL)
        assert [a.element for a in graph.atoms] == ["C", "C", "O"]
        assert [(b.i, b.j, b.order) for b in graph.bonds] == [
            (0, 1, "single"), (1, 2, "single")]
        np.testing.assert_allclose(conf.coords[1], [1.5, 0.0, 0.0])

    def test_heavy_degree_ignores_hydrogens(self):
        text = make_sdf([(0, 0, 0, "C"), (1.1, 0, 0, "H"), (0, 1.5, 0, "C")],
                        [(1, 2, 1), (1, 3, 1)])
        (graph, _), = parse_sdf(text)
        assert graph.atoms[0].degree_heavy == 1
        assert graph.atoms[2].degree_heavy == 1

    def test_multi_record(self):
        records = parse_sdf(ETHANOL + ETHANOL)
        assert len(records) == 2

    def test_bond_orders(self):
        text = make_sdf([(0, 0, 0, "C"), (1.3, 0, 0, "C"), (2.4, 0.5, 0, "N")],
                        [(1, 2, 2), (2, 3, 3)])
        (graph, _), = parse_sdf(text)
        assert [b.order for b in graph.bonds] == ["double", "triple"]

    def test_aromatic_flag_set(self):
        text = make_sdf([(0, 0, 0, "C"), (1.4, 0, 0, "C"), (2.1, 1.2, 0, "C")],
                        [(1, 2, 4), (2, 3, 1)])
        (graph, _), = parse_sdf(text)
        assert graph.atoms[0].aromatic and graph.atoms[1].aromatic
        assert not graph.atoms[2].aromatic

    def test_charge_property_overrides(self):
        text = make_sdf([(0, 0, 0, "N"), (1.4, 0, 0, "O")], [(1, 2, 1)],
                        props=("M  CHG  2   1   1   2  -1", "M  END"))
        (graph, _), = parse_sdf(text)
        assert graph.atoms[0].formal_charge == 1
        assert graph.atoms[1].formal_charge == -1

    @pytest.mark.parametrize("row", [
        "M  CHG  1   3   1",     # atom 3 of a 2-atom record
        "M  CHG  1   0  -1",     # atom 0 (would index the last atom)
        "M  CHG  x",             # non-numeric count
        "M  CHG  2   1   1",     # fewer entries than the count
        "M  CHG  1   1   +x",    # non-numeric charge
    ])
    def test_malformed_charge_line_is_located(self, row):
        text = make_sdf([(0, 0, 0, "N"), (1.4, 0, 0, "O")], [(1, 2, 1)],
                        props=(row, "M  END"))
        with pytest.raises(ParseError) as exc:
            parse_sdf(text)
        assert exc.value.record == 0 and exc.value.line == 8

    def test_self_bond_and_non_finite_coordinates(self):
        with pytest.raises(ParseError, match="itself"):
            parse_sdf(make_sdf([(0, 0, 0, "C"), (1.5, 0, 0, "C")], [(1, 1, 1)]))
        text = make_sdf([(0, 0, 0, "C")], []).replace("    0.0000", "       nan", 1)
        with pytest.raises(ParseError, match="non-finite"):
            parse_sdf(text)
        with pytest.raises(ParseError, match="non-finite"):
            parse_xyz("1\n\nC inf 0 0\n")

    def test_non_utf8_bytes(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_sdf(ETHANOL.encode() + b"\xff")
        with pytest.raises(ParseError, match="UTF-8"):
            parse_xyz(b"1\n\nC 0 0 \xff0\n")

    def test_unsupported_element(self):
        text = make_sdf([(0, 0, 0, "Xx")], [])
        with pytest.raises(ParseError, match="Xx"):
            parse_sdf(text)

    def test_dangling_bond_index(self):
        text = make_sdf([(0, 0, 0, "C"), (1.5, 0, 0, "C")], [(1, 5, 1)])
        with pytest.raises(ParseError, match="dangling"):
            parse_sdf(text)

    def test_duplicate_bond(self):
        text = make_sdf([(0, 0, 0, "C"), (1.5, 0, 0, "C")],
                        [(1, 2, 1), (2, 1, 1)])
        with pytest.raises(ParseError, match="duplicate"):
            parse_sdf(text)

    def test_missing_m_end(self):
        text = make_sdf([(0, 0, 0, "C")], [], props=())
        with pytest.raises(ParseError, match="M  END"):
            parse_sdf(text)

    def test_truncated_atom_block(self):
        lines = ETHANOL.splitlines()
        with pytest.raises(ParseError):
            parse_sdf("\n".join(lines[:5]))

    def test_error_carries_location(self):
        text = make_sdf([(0, 0, 0, "Xx")], [])
        try:
            parse_sdf(text)
        except ParseError as e:
            assert e.record == 0 and e.line == 5
        else:  # pragma: no cover
            raise AssertionError("expected ParseError")


CHARGED = make_sdf([(0, 0, 0, "N"), (1.4, 0, 0, "O"), (2.0, 1.0, 0, "C")],
                   [(1, 2, 1), (2, 3, 2)], props=("M  CHG  2   1   1   2  -1", "M  END"))
XYZ = "2\ncomment\nC 0.0 0.0 0.0\nO 1.2 0.0 0.0\n"
# pieces that reach every field parser: digits, signs, separators, keywords
_PIECES = st.text(alphabet="0123456789 -+.eE$\nMCHGENDOx", max_size=40)
FRAGMENTS = st.one_of(_PIECES, _PIECES.map(lambda t: "M  CHG" + t))


def mutate(text: str, edits) -> str:
    lines = text.split("\n")
    for pos, piece in edits:
        k = pos % len(lines)
        lines[k] = piece if pos % 3 else lines[k][:pos % 7] + piece
    return "\n".join(lines)


class TestParseFuzz:
    """Whatever the input, only ParseError escapes the parsers."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1000), FRAGMENTS), min_size=1, max_size=4))
    def test_sdf_edits(self, edits):
        try:
            parse_sdf(mutate(CHARGED, edits))
        except ParseError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1000), FRAGMENTS), min_size=1, max_size=3))
    def test_xyz_edits(self, edits):
        try:
            parse_xyz(mutate(XYZ, edits))
        except ParseError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        for parse in (parse_sdf, parse_xyz):
            try:
                parse(data)
            except ParseError:
                pass


class TestParseXyz:
    def test_roundtrip_values(self):
        conf, elements = parse_xyz("2\ncomment\nC 0.0 0.0 0.0\nO 1.2 0.0 0.0\n")
        assert elements == ["C", "O"]
        np.testing.assert_allclose(conf.coords[1], [1.2, 0.0, 0.0])

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="mismatch"):
            parse_xyz("3\nc\nC 0 0 0\n")

    def test_error_line_counts_blank_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_xyz("2\ncomment\nC 0 0 0\n\nXx 0 0 0\n")
        assert exc.value.line == 5

    def test_bad_count_line(self):
        with pytest.raises(ParseError):
            parse_xyz("x\n\nC 0 0 0\n")


class TestFeatureVectors:
    def test_dimension_and_content(self):
        a = Atom("N", formal_charge=1, degree_heavy=3, aromatic=True)
        v = a.feature_vector
        assert v.shape == (FEATURE_DIM,)
        assert v[2] == 1.0                  # N one-hot slot
        assert v[-3] == 1.0 and v[-2] == 3.0 and v[-1] == 1.0

    def test_one_hot_exclusive(self):
        v = Atom("C").feature_vector
        assert v[:10].sum() == 1.0


class TestBondAndConformerInvariants:
    def test_self_bond_rejected(self):
        with pytest.raises(ValueError):
            Bond(1, 1)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            Bond(0, 1, "quadruple")

    def test_conformer_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            Conformer(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Conformer(np.full((2, 3), np.nan))


class TestBuildGraph:
    def test_aux_edges_disjoint_and_within_cutoff(self):
        rng = np.random.default_rng(0)
        atoms = [Atom("C") for _ in range(12)]
        bonds = [Bond(i, i + 1) for i in range(11)]
        coords = rng.uniform(0, 6, size=(12, 3))
        graph = build_graph(atoms, bonds, Conformer(coords), 4.0)
        bonded = {b.pair for b in graph.bonds}
        for i, j in graph.aux_edges:
            assert (i, j) not in bonded
            assert np.linalg.norm(coords[i] - coords[j]) <= 4.0

    def test_all_close_nonbonded_pairs_present(self):
        atoms = [Atom("C"), Atom("C"), Atom("C")]
        bonds = [Bond(0, 1)]
        coords = np.array([[0.0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]])
        graph = build_graph(atoms, bonds, Conformer(coords), 4.0)
        assert set(graph.aux_edges) == {(0, 2), (1, 2)}

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            build_graph([Atom("C")], [], Conformer(np.zeros((2, 3))), 4.0)


class TestWriters:
    def test_sdf_roundtrip(self):
        (graph, conf), = parse_sdf(ETHANOL)
        (graph2, conf2), = parse_sdf(write_conformer(graph, conf, "sdf"))
        assert [a.element for a in graph2.atoms] == [a.element for a in graph.atoms]
        assert [(b.i, b.j) for b in graph2.bonds] == [(b.i, b.j) for b in graph.bonds]
        np.testing.assert_allclose(conf2.coords, conf.coords, atol=5e-5)

    def test_sdf_roundtrip_preserves_charges(self):
        text = make_sdf([(0, 0, 0, "N"), (1.4, 0, 0, "C")], [(1, 2, 1)],
                        props=("M  CHG  1   1   1", "M  END"))
        (graph, conf), = parse_sdf(text)
        (graph2, _), = parse_sdf(write_conformer(graph, conf, "sdf"))
        assert graph2.atoms[0].formal_charge == 1

    def test_xyz_roundtrip(self):
        (graph, conf), = parse_sdf(ETHANOL)
        conf2, elements = parse_xyz(write_conformer(graph, conf, "xyz"))
        assert elements == ["C", "C", "O"]
        np.testing.assert_allclose(conf2.coords, conf.coords, atol=5e-5)

    def test_multi_record_writer(self):
        (graph, conf), = parse_sdf(ETHANOL)
        data = write_sdf_records([(graph, conf), (graph, conf)])
        assert len(parse_sdf(data)) == 2

    def test_unknown_format(self):
        (graph, conf), = parse_sdf(ETHANOL)
        with pytest.raises(ValueError):
            write_conformer(graph, conf, "pdb")
