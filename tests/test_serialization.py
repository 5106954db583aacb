"""Tests for rational encoding and JSON document round trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipfree import InputError, build_system, free_norm, to_point_masses
from lipfree.serialization import (
    certificate_to_doc,
    dumps_canonical,
    load_element_doc,
    load_function_doc,
    load_space_doc,
    load_system_doc,
    parse_rational,
    read_space_doc,
    render_rational,
    space_to_doc,
    system_to_doc,
)

TRI_DOC = {
    "labels": ["0", "a", "b"],
    "base": "0",
    "dist": [[0, 2, 1], [2, 0, 2], [1, 2, 0]],
}
SPACE = load_space_doc(TRI_DOC)


class TestRationals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (5, Fraction(5)),
            ("5", Fraction(5)),
            ("-3", Fraction(-3)),
            ("1/2", Fraction(1, 2)),
            ("-7/4", Fraction(-7, 4)),
            ("6/4", Fraction(3, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("bad", [1.5, True, "x", "1/0", "1/-2", "2/3/4", None])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)

    def test_render_canonical(self):
        assert render_rational(Fraction(4, 2)) == 2
        assert render_rational(Fraction(-6, 4)) == "-3/2"
        assert render_rational(Fraction(0)) == 0

    def test_round_trip(self):
        for num in range(-8, 9):
            for den in range(1, 7):
                q = Fraction(num, den)
                assert parse_rational(render_rational(q)) == q


class TestDocuments:
    def test_space_round_trip(self):
        space = load_space_doc(TRI_DOC)
        assert space.labels == ("0", "a", "b")
        assert load_space_doc(space_to_doc(space)) == space

    def test_space_cap(self):
        with pytest.raises(InputError):
            load_space_doc(TRI_DOC, max_points=2)

    def test_space_shape_checked_before_entries(self):
        doc = {"labels": ["0", "a"], "base": "0", "dist": [[0, "bad"]]}
        with pytest.raises(InputError, match="2x2"):
            load_space_doc(doc)

    def test_a_boolean_after_its_equal_int_is_refused_where_it_stands(self):
        doc = {"labels": ["0", "a", "b"], "base": "0",
               "dist": [[0, 1, 1], [1, 0, True], [1, True, 0]]}
        with pytest.raises(InputError, match=r"^dist\[1\]\[2\]: booleans are not rationals$"):
            load_space_doc(doc)

    def test_a_repeated_bad_entry_is_refused_at_its_first_position(self):
        doc = {"labels": ["0", "a", "b"], "base": "0",
               "dist": [[0, 1, "x"], [1, 0, "x"], ["x", "x", 0]]}
        with pytest.raises(InputError, match=r"^dist\[0\]\[2\]: cannot parse rational 'x'$"):
            load_space_doc(doc)

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.integers(-3, 3),
                           st.sampled_from(["2", "4/2", "-3", "1/3", "2/6", "0", "-0"])),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_each_entry_parses_as_it_would_alone(self, dist):
        """Entries parsed once per document read as ``parse_rational`` reads
        each of them, whatever the mix of equal ints and strings."""
        doc = {"labels": [str(i) for i in range(len(dist))], "base": "0", "dist": dist}
        parsed = read_space_doc(doc)[1]
        assert parsed == [[parse_rational(x) for x in row] for row in dist]
        assert all(type(x) is Fraction for row in parsed for x in row)

    def test_system_round_trip(self):
        space = load_space_doc(TRI_DOC)
        doc = {"pairs": [["a", "0"], ["0", "b"]], "weights": ["1/2", "1/2"]}
        system = load_system_doc(space, doc)
        assert system.pairs == ((1, 0), (0, 2))
        assert load_system_doc(space, system_to_doc(space, system)) == system

    def test_element_round_trip(self):
        space = load_space_doc(TRI_DOC)
        doc = {"coeffs": {"a": "1/4", "b": "-1/2"}}
        element = load_element_doc(space, doc)
        assert element.coeffs == {1: Fraction(1, 4), 2: Fraction(-1, 2)}
        doc = {"coeffs": {space.labels[p]: render_rational(c) for p, c in element.coeffs.items()}}
        assert load_element_doc(space, doc) == element

    def test_element_drops_base_and_zero(self):
        space = load_space_doc(TRI_DOC)
        element = load_element_doc(space, {"coeffs": {"0": "3", "a": 0}})
        assert element.coeffs == {}

    def test_function_round_trip_checks_constant(self):
        space = load_space_doc(TRI_DOC)
        doc = {"values": {"0": 0, "a": 1, "b": "-1"}, "lip": 1}
        f = load_function_doc(space, doc)
        assert f.lip_constant == 1
        with pytest.raises(InputError):
            load_function_doc(
                space, {"values": {"0": 0, "a": 1, "b": "-1"}, "lip": "1/2"}
            )
        with pytest.raises(InputError):
            load_function_doc(space, {"values": {"0": 0, "a": 1}})

    def test_certificate_doc_is_label_based(self):
        space = load_space_doc(TRI_DOC)
        system = build_system(space, [(1, 0)], [1])
        cert = free_norm(space, to_point_masses(space, system))
        doc = certificate_to_doc(space, cert)
        assert doc["value"] == 1
        assert doc["plan"] == [["a", "0", "1/2"]]

    def test_unknown_label_rejected(self):
        space = load_space_doc(TRI_DOC)
        with pytest.raises(InputError):
            load_system_doc(space, {"pairs": [["zz", "0"]], "weights": [1]})


class TestCanonicalDump:
    def test_sorted_keys_and_newline(self):
        text = dumps_canonical({"b": 1, "a": [2, {"y": 0, "x": 1}]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"x"') < text.index('"y"')

    def test_byte_stable(self):
        space = load_space_doc(TRI_DOC)
        assert dumps_canonical(space_to_doc(space)) == dumps_canonical(
            space_to_doc(space)
        )


@pytest.mark.parametrize(
    "loose", ["1_0", "1/0_2", " 7 ", "+3", "٣", "7\n", "1/ 2", "-", "/2", "1/", ""]
)
def test_parse_rejects_loose_syntax(loose):
    with pytest.raises(InputError):
        parse_rational(loose)


@pytest.mark.parametrize("load, message", [
    (lambda: load_space_doc([TRI_DOC]), "space document must be a JSON object"),
    (lambda: load_space_doc({"labels": ["0"], "base": "0"}), "space document missing key 'dist'"),
    (lambda: load_space_doc({**TRI_DOC, "dist": [[0, 2, 1], 5, [1, 2, 0]]}),
     r"space dist must be a matrix \(list of rows\)"),
    (lambda: load_system_doc(SPACE, {"pairs": {"a": "0"}, "weights": [1]}),
     "system document needs a 'pairs' list"),
    (lambda: load_system_doc(SPACE, {"pairs": [["a", "0"]], "weights": "1"}),
     "system document needs a 'weights' list"),
    (lambda: load_element_doc(SPACE, {"coeffs": [["a", 1]]}),
     "element document needs a 'coeffs' object"),
    (lambda: load_function_doc(SPACE, {"values": [0, 2, 1]}),
     "function document needs a 'values' object"),
], ids=["not-an-object", "missing-key", "dist-not-rows", "pairs-not-list", "weights-not-list",
        "coeffs-not-object", "values-not-object"])
def test_malformed_document_rejected(load, message):
    with pytest.raises(InputError, match=message):
        load()
