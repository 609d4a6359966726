"""Identifier extraction from formula markup."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stemexplain.errors import ParseError
from stemexplain.formulas import GREEK_NAMES, extract_identifiers

from . import oracles

# Formula markup: trees of nesting and script elements over identifiers
# that extract and ones that do not, mixed with pieces that leave the
# markup malformed (unbalanced tags, an undefined entity, a bare "<").
_LEAVES = st.sampled_from(["<mi>x</mi>", "<mi>T</mi>", "<mi>\u03c4</mi>", "<mi>Re</mi>",
                           "<mi>2</mi>", "<mi> </mi>", "<mn>4</mn>", "<mo>=</mo>",
                           "&amp;", "text", " "])
_TREES = st.recursive(_LEAVES, lambda children: st.tuples(
    st.sampled_from(["mrow", "mrow", "mfrac", "msub", "msup", "munderover"]),
    st.lists(children, max_size=4)).map(lambda t: f"<{t[0]}>{''.join(t[1])}</{t[0]}>"),
    max_leaves=12)
_BROKEN = st.sampled_from(["<mi>", "</mrow>", "&bad;", "<"])


def formula_markup():
    """Markup strings, mostly well-formed."""
    return st.lists(st.one_of(_TREES, _TREES, _TREES, _BROKEN), max_size=5).map("".join)


MASS_ENERGY = ("<mi>E</mi><mo>=</mo><mi>m</mi>"
               "<msup><mi>c</mi><mn>2</mn></msup>")


class TestExtraction:
    def test_mass_energy_identifiers(self):
        assert extract_identifiers(MASS_ENERGY) == ["E", "m", "c"]

    def test_number_only_markup(self):
        assert extract_identifiers("<mn>42</mn>") == []

    def test_greek_letter_spelled_out(self):
        assert extract_identifiers("<mi>τ</mi>") == ["tau"]

    def test_uppercase_greek_maps_to_same_name(self):
        assert extract_identifiers("<mi>Ω</mi><mi>ω</mi>") == ["omega", "omega"]

    def test_latin_case_preserved(self):
        # t and T are distinct identifiers
        assert extract_identifiers("<mi>t</mi><mi>T</mi>") == ["t", "T"]

    def test_duplicates_preserved_in_order(self):
        markup = "<mi>x</mi><mo>+</mo><mi>y</mi><mo>+</mo><mi>x</mi>"
        assert extract_identifiers(markup) == ["x", "y", "x"]

    def test_multi_letter_element_lowercased(self):
        assert extract_identifiers("<mi>Re</mi>") == ["re"]

    def test_digit_content_in_mi_skipped(self):
        assert extract_identifiers("<mi>2</mi><mi>x</mi>") == ["x"]

    def test_operators_and_numbers_excluded(self):
        markup = "<mi>a</mi><mo>=</mo><mn>3</mn><mo>⋅</mo><mi>b</mi>"
        assert extract_identifiers(markup) == ["a", "b"]


class TestScripts:
    def test_subscript_keeps_base_only(self):
        assert extract_identifiers("<msub><mi>t</mi><mn>0</mn></msub>") == ["t"]

    def test_superscript_keeps_base_only(self):
        assert extract_identifiers("<msup><mi>t</mi><mn>2</mn></msup>") == ["t"]

    def test_subsup_keeps_base_only(self):
        markup = "<msubsup><mi>x</mi><mi>i</mi><mn>2</mn></msubsup>"
        assert extract_identifiers(markup) == ["x"]

    def test_under_over_keep_base_only(self):
        assert extract_identifiers("<munder><mi>p</mi><mi>k</mi></munder>") == ["p"]
        assert extract_identifiers("<mover><mi>q</mi><mo>^</mo></mover>") == ["q"]
        markup = "<munderover><mi>s</mi><mn>0</mn><mi>n</mi></munderover>"
        assert extract_identifiers(markup) == ["s"]

    def test_nested_script_base(self):
        markup = "<msub><msup><mi>y</mi><mn>2</mn></msup><mi>j</mi></msub>"
        assert extract_identifiers(markup) == ["y"]

    def test_identifier_inside_row_inside_script_argument_ignored(self):
        # the script argument holds an identifier, but only the base counts
        markup = "<msub><mi>a</mi><mrow><mi>n</mi></mrow></msub>"
        assert extract_identifiers(markup) == ["a"]


class TestRobustness:
    def test_whitespace_between_elements_irrelevant(self):
        spaced = "<mi>E</mi>\n  <mo>=</mo>\t<mi>m</mi> <msup> <mi>c</mi> <mn>2</mn> </msup>"
        assert extract_identifiers(spaced) == extract_identifiers(MASS_ENERGY)

    def test_unbalanced_markup_rejected(self):
        with pytest.raises(ParseError):
            extract_identifiers("<mi>E</mi><mo>=")

    def test_stray_close_rejected(self):
        with pytest.raises(ParseError):
            extract_identifiers("<mi>E</mi></mrow>")

    def test_empty_markup_yields_nothing(self):
        assert extract_identifiers("") == []

    def test_namespaced_tags_accepted(self):
        markup = ('<m:mi xmlns:m="http://www.w3.org/1998/Math/MathML">E</m:mi>')
        assert extract_identifiers(markup) == ["E"]

    def test_nesting_deeper_than_the_recursion_limit(self):
        depth = 5000
        markup = "<mrow>" * depth + "<msub><mi>x</mi><mi>i</mi></msub>" + "</mrow>" * depth
        assert extract_identifiers(markup) == ["x"]

    @given(formula_markup())
    @example("<mrow><mi>x</mi><msub><mi>T</mi><mi>i</mi></msub></mrow><mi>y</mi>")
    @settings(max_examples=400, deadline=None)
    def test_equals_recursive_reference(self, markup):
        try:
            expected = oracles.extract_identifiers(markup)
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                extract_identifiers(markup)
            assert str(raised.value) == str(exc)
        else:
            assert extract_identifiers(markup) == expected


class TestGreekTable:
    def test_both_cases_for_every_letter(self):
        # 24 letters x 2 cases
        assert len(GREEK_NAMES) == 48

    def test_all_names_lowercase_ascii(self):
        for name in GREEK_NAMES.values():
            assert name == name.lower()
            assert name.isascii()

    def test_spot_values(self):
        assert GREEK_NAMES["α"] == "alpha"
        assert GREEK_NAMES["Α"] == "alpha"
        assert GREEK_NAMES["π"] == "pi"
