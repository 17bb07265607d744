"""Tests for VQA closed exact-match and open token-recall scoring."""

import pytest

from geoverify import VqaItem, closed_accuracy, open_token_recall
from geoverify.errors import EmptyGroundTruth, EmptySet, ParseError
from geoverify.vqa import mean_open_recall, normalize_answer, read_vqa_items, tokenize


def closed(qid, prediction, truth):
    return VqaItem(qid, "closed", prediction, truth)


def opened(qid, prediction, truth):
    return VqaItem(qid, "open", prediction, truth)


class TestNormalization:
    def test_case_fold(self):
        assert normalize_answer("Yes") == normalize_answer("yes")

    def test_terminal_punctuation(self):
        assert normalize_answer("no.") == "no"
        assert normalize_answer("no!?") == "no"

    def test_whitespace_collapse(self):
        assert normalize_answer("  right   lower\tlobe ") == "right lower lobe"

    def test_internal_punctuation_kept(self):
        assert normalize_answer("ACTH-dependent") == "acth-dependent"


class TestClosedAccuracy:
    def test_case_fold_counts_as_correct(self):
        assert closed_accuracy([closed("1", "Yes", "yes")]) == 1.0

    def test_trailing_period_counts_as_correct(self):
        assert closed_accuracy([closed("1", "no.", "no")]) == 1.0

    def test_two_of_three(self):
        items = [
            closed("1", "yes", "yes"),
            closed("2", "no", "yes"),
            closed("3", "Left", "left"),
        ]
        assert closed_accuracy(items) == pytest.approx(2.0 / 3.0)

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            closed_accuracy([])

    def test_open_item_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            closed_accuracy([opened("1", "yes", "yes")])

    def test_self_scoring_is_perfect(self):
        items = [closed(str(i), text, text) for i, text in enumerate(["yes", "no", "Left"])]
        assert closed_accuracy(items) == 1.0


class TestOpenTokenRecall:
    def test_all_tokens_present(self):
        assert open_token_recall("the vasculature is visible", "vasculature") == 1.0

    def test_disjoint_vocabulary(self):
        assert open_token_recall("coronary artery", "vasculature") == 0.0

    def test_partial_phrase(self):
        assert open_token_recall("the left lobe", "left lower lobe") == pytest.approx(2.0 / 3.0)

    def test_duplicate_truth_tokens_count_once(self):
        assert open_token_recall("very very bad", "very bad bad") == 1.0

    def test_monotone_under_appending(self):
        base = open_token_recall("left", "left lower lobe")
        extended = open_token_recall("left plus lower text", "left lower lobe")
        assert extended >= base

    def test_whitespace_invariance(self):
        a = open_token_recall("right  lower \t lateral", "right lower lateral lung field")
        b = open_token_recall("right lower lateral", "right lower lateral lung field")
        assert a == b

    def test_tokenization_splits_on_punctuation(self):
        assert tokenize("ACTH-dependent Cushing's") == ["acth", "dependent", "cushing", "s"]

    def test_empty_ground_truth(self):
        with pytest.raises(EmptyGroundTruth):
            open_token_recall("anything", "--!!--")

    def test_mean_recall(self):
        items = [
            opened("1", "vasculature", "vasculature"),
            opened("2", "nothing here", "left lower lobe"),
        ]
        assert mean_open_recall(items) == pytest.approx(0.5)


class TestVqaCsv:
    def test_read_items(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            "question_id,type,prediction,ground_truth\n"
            "q1,closed,yes,yes\n"
            'q2,open,"the left lobe","left lower lobe"\n'
        )
        items = read_vqa_items(path)
        assert len(items) == 2
        assert items[1].question_type == "open"
        assert items[1].ground_truth == "left lower lobe"

    def test_bad_type_reports_row(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            "question_id,type,prediction,ground_truth\n"
            "q1,multiple,yes,yes\n"
        )
        with pytest.raises(ParseError) as err:
            read_vqa_items(path)
        assert err.value.row == 2

    def test_empty_ground_truth_rejected(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            "question_id,type,prediction,ground_truth\n"
            "q1,closed,yes,\n"
        )
        with pytest.raises(ParseError):
            read_vqa_items(path)

    def test_open_ground_truth_without_tokens_reports_row(self, tmp_path):
        """It failed when scored, with a data error that named no row."""
        path = tmp_path / "items.csv"
        path.write_text(
            "question_id,type,prediction,ground_truth\n"
            "q1,closed,?,?\n"
            "q2,open,what,?\n"
        )
        with pytest.raises(ParseError) as err:
            read_vqa_items(path)
        assert err.value.row == 3
