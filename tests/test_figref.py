import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figdesc.errors import PreconditionError
from figdesc.figref import (
    CandidateSet,
    compile_pattern,
    detect_figure_refs,
    is_figure_referring,
    select_neighbors,
)

from .helpers import DOCUMENTED_PATTERN, make_paragraph, make_sentence


class TestDetection:
    def test_committed_positive_cases(self, figref_cases):
        misses = [t for t in figref_cases["positive"] if not is_figure_referring(make_sentence(t))]
        assert misses == []

    def test_committed_negative_cases(self, figref_cases):
        hits = [t for t in figref_cases["negative"] if is_figure_referring(make_sentence(t))]
        assert hits == []

    def test_corpus_is_large_enough(self, figref_cases):
        assert len(figref_cases["positive"]) >= 50
        assert len(figref_cases["negative"]) >= 50

    def test_single_label(self):
        (m,) = detect_figure_refs(make_sentence("As Fig. 3 shows, it grows."))
        assert m.labels == ("3",)
        assert m.global_index == 0

    def test_comma_list_splits(self):
        (m,) = detect_figure_refs(make_sentence("Figs. 2, 3 agree."))
        assert m.labels == ("2", "3")

    def test_dash_range_stays_whole(self):
        (m,) = detect_figure_refs(make_sentence("Figs. 1-3 agree."))
        assert m.labels == ("1-3",)

    def test_en_dash_range(self):
        (m,) = detect_figure_refs(make_sentence("Figs. 1–2 agree."))
        assert m.labels == ("1–2",)

    def test_supplement_prefix(self):
        (m,) = detect_figure_refs(make_sentence("See Figure S4."))
        assert m.labels == ("S4",)

    def test_case_insensitive_by_default(self):
        assert is_figure_referring(make_sentence("FIGURE 2 shows it."))

    def test_multiple_matches_left_to_right(self):
        ms = detect_figure_refs(make_sentence("Fig. 1 and Fig. 2 differ."))
        assert [m.labels for m in ms] == [("1",), ("2",)]
        assert ms[0].span[0] < ms[1].span[0]

    def test_span_covers_match_text(self):
        text = "See Fig. 12 here."
        (m,) = detect_figure_refs(make_sentence(text))
        assert text[m.span[0] : m.span[1]] == "Fig. 12"

    def test_custom_pattern(self):
        # schemes can be swapped out wholesale
        pat = r"\bplate\s+([IVX]+)"
        (m,) = detect_figure_refs(make_sentence("See plate IV."), pattern=pat)
        assert m.labels == ("IV",)

    @pytest.mark.parametrize(
        "pattern, spans", [(r"fig(\d+)?", [(4, 7)]), (r"fig(\d*)|(tab)", [(4, 7), (17, 20)])]
    )
    def test_group_1_left_out_of_a_match_gives_no_labels(self, pattern, spans):
        # The match keeps its span and its sentence still refers, as with
        # an empty group 1.
        sentence = make_sentence("See fig here and tab there.")
        matches = detect_figure_refs(sentence, pattern)
        assert [(m.labels, m.span) for m in matches] == [((), span) for span in spans]
        assert is_figure_referring(sentence, pattern)


# Letters that fold to or from the pattern's under re.IGNORECASE (dotless i,
# dotted capital I, long s, the Kelvin sign), the characters of a label, the
# ones \b and \s tell apart, and pieces of the words the pattern takes.
_PIECES = st.sampled_from([
    *"fFiIıİſK\u212a0123456789.,-–_é\t\n\x85\u2028 ",
    "g", "S", "ig", "igs", "igure", "IGURES", "fig", "Fig.", "figs", "Figure", "figures",
])


class TestDefaultPattern:
    """DEFAULT_PATTERN finds what its documented form finds, with the same groups."""

    documented = re.compile(DOCUMENTED_PATTERN, re.IGNORECASE)

    @staticmethod
    def hits(rx, text):
        return [(m.span(), m.groups()) for m in rx.finditer(text)]

    @settings(max_examples=1000)
    @given(st.lists(_PIECES, max_size=24).map("".join))
    def test_matches_the_documented_form(self, text):
        assert self.hits(compile_pattern(None), text) == self.hits(self.documented, text)

    def test_only_f_and_F_open_a_match(self):
        """Every code point, after a space and before the rest of a reference."""
        text = "".join(f" {chr(c)}ig 1" for c in range(sys.maxunicode + 1))
        for rx in (compile_pattern(None), self.documented):
            assert sorted(text[m.start()] for m in rx.finditer(text)) == ["F", "f"]

    @pytest.mark.parametrize(
        "text, hits",
        [
            ("Fig. 1", [((0, 6), ("1",))]),
            ("xFig. 1", []),
            ("_fig 1", []),
            ("éfig 1", []),
            ("(fig 1", [((1, 6), ("1",))]),
            ("\nFIGURES S1, 2", [((1, 14), ("S1, 2",))]),
            ("figsure 1", []),
            ("figſ 2", [((0, 6), ("2",))]),
        ],
    )
    def test_word_boundary_and_case(self, text, hits):
        assert self.hits(compile_pattern(None), text) == hits


def brute_force_neighbors(paragraph, ref_pos, window, pattern=None):
    """Independent re-derivation: scan every sentence, keep the ones whose
    paragraph position is within the window, not the reference itself, and
    not figure-referring."""
    out = []
    for pos, sent in enumerate(paragraph.sentences):
        if pos == ref_pos:
            continue
        if abs(pos - ref_pos) > window:
            continue
        if is_figure_referring(sent, pattern):
            continue
        out.append(sent.global_index)
    return CandidateSet(paragraph.sentences[ref_pos].global_index, tuple(out))


class TestNeighborSelection:
    def test_interior_reference(self):
        para = make_paragraph(
            ["Plain one.", "Plain two.", "Fig. 1 shows X.", "Plain three.", "Plain four."]
        )
        cs = select_neighbors(para, 2, window=2)
        assert cs.ref_global_index == 2
        assert cs.neighbor_indices == (0, 1, 3, 4)

    def test_clipped_at_paragraph_start(self):
        para = make_paragraph(["Fig. 1 shows X.", "Plain one.", "Plain two.", "Plain three."])
        cs = select_neighbors(para, 0, window=2)
        assert cs.neighbor_indices == (1, 2)

    def test_clipped_at_paragraph_end(self):
        para = make_paragraph(["Plain one.", "Plain two.", "Fig. 1 shows X."])
        cs = select_neighbors(para, 2, window=2)
        assert cs.neighbor_indices == (0, 1)

    def test_referring_neighbors_dropped(self):
        para = make_paragraph(
            ["Plain one.", "Fig. 2 shows Y.", "Fig. 1 shows X.", "Plain two."]
        )
        cs = select_neighbors(para, 2, window=2)
        assert cs.neighbor_indices == (0, 3)

    def test_window_one(self):
        para = make_paragraph(
            ["Plain one.", "Plain two.", "Fig. 1 shows X.", "Plain three.", "Plain four."]
        )
        cs = select_neighbors(para, 2, window=1)
        assert cs.neighbor_indices == (1, 3)

    def test_window_zero_yields_nothing(self):
        para = make_paragraph(["Plain one.", "Fig. 1 shows X."])
        cs = select_neighbors(para, 1, window=0)
        assert cs.neighbor_indices == ()

    def test_non_referring_pivot_rejected(self):
        para = make_paragraph(["Plain one.", "Plain two."])
        with pytest.raises(PreconditionError, match="not figure-referring"):
            select_neighbors(para, 0)

    def test_out_of_range_rejected(self):
        para = make_paragraph(["Fig. 1 shows X."])
        with pytest.raises(PreconditionError, match="outside paragraph"):
            select_neighbors(para, 5)

    @pytest.mark.parametrize("index", [-1, 1])
    def test_first_index_past_either_end_rejected(self, index):
        """-1 would wrap round to the last sentence, and 1 is one past it."""
        para = make_paragraph(["Fig. 1 shows X."])
        with pytest.raises(PreconditionError, match="outside paragraph"):
            select_neighbors(para, index)

    def test_global_indices_survive_offsets(self):
        para = make_paragraph(
            ["Plain one.", "Fig. 1 shows X.", "Plain two."],
            paragraph_index=3,
            start_global=17,
        )
        cs = select_neighbors(para, 1)
        assert cs.ref_global_index == 18
        assert cs.neighbor_indices == (17, 19)

    @given(
        flags=st.lists(st.booleans(), min_size=1, max_size=9),
        ref_pos=st.integers(min_value=0, max_value=8),
        window=st.integers(min_value=0, max_value=4),
        start=st.integers(min_value=0, max_value=50),
    )
    def test_matches_brute_force(self, flags, ref_pos, window, start):
        ref_pos = ref_pos % len(flags)
        flags[ref_pos] = True
        texts = [
            "Fig. 1 shows X." if flag else "Plain filler here."
            for flag in flags
        ]
        para = make_paragraph(texts, start_global=start)
        got = select_neighbors(para, ref_pos, window=window)
        assert got == brute_force_neighbors(para, ref_pos, window)

    @given(
        n=st.integers(min_value=1, max_value=9),
        ref_pos=st.integers(min_value=0, max_value=8),
        window=st.integers(min_value=0, max_value=4),
    )
    def test_neighbor_count_bounded_by_window(self, n, ref_pos, window):
        ref_pos = ref_pos % n
        texts = ["Plain filler here."] * n
        texts[ref_pos] = "Fig. 1 shows X."
        para = make_paragraph(texts)
        cs = select_neighbors(para, ref_pos, window=window)
        assert len(cs.neighbor_indices) <= 2 * window
        for gi in cs.neighbor_indices:
            assert 0 < abs(gi - cs.ref_global_index) <= window


class TestCompilePattern:
    @pytest.mark.parametrize("pattern", [None, ""])
    def test_empty_means_default(self, pattern):
        assert compile_pattern(pattern).search("see Fig. 2") is not None
