"""Scoring for biomedical VQA predictions.

Closed questions score by normalized exact match; open questions by
token-level recall, the fraction of unique ground-truth tokens that appear
anywhere in the generated answer.  No stemming, synonym or stop-word
handling is applied.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import cubeio
from .errors import EmptyGroundTruth, EmptySet, ParseError
from .grid import VariableId
from .metrics import MetricRecord

QUESTION_TYPES = ("open", "closed")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_TERMINAL_PUNCT = ".,;:!?"


@dataclass(frozen=True)
class VqaItem:
    question_id: str
    question_type: str
    prediction: str
    ground_truth: str

    def __post_init__(self):
        if self.question_type not in QUESTION_TYPES:
            raise ValueError(f"question_type must be one of {QUESTION_TYPES}")
        if not self.ground_truth.strip():
            raise ValueError("ground_truth must be non-empty")
        if self.question_type == "open" and not tokenize(self.ground_truth):
            raise ValueError("an open question's ground_truth must hold a token")


def normalize_answer(text: str) -> str:
    """Case-fold, trim, collapse whitespace and strip terminal punctuation."""
    collapsed = " ".join(text.split()).casefold()
    return collapsed.rstrip(_TERMINAL_PUNCT).strip()


def tokenize(text: str) -> list[str]:
    """Case-folded alphanumeric tokens (split on everything else)."""
    return _TOKEN_RE.findall(text.casefold())


def closed_accuracy(items) -> float:
    """Fraction of closed items whose normalized prediction matches exactly."""
    items = list(items)
    if not items:
        raise EmptySet("no closed items to score")
    for item in items:
        if item.question_type != "closed":
            raise ValueError(f"item {item.question_id} is not a closed question")
    hits = sum(
        1 for it in items if normalize_answer(it.prediction) == normalize_answer(it.ground_truth)
    )
    return hits / len(items)


def open_token_recall(prediction: str, ground_truth: str) -> float:
    """Share of unique ground-truth tokens present in the prediction."""
    truth = set(tokenize(ground_truth))
    if not truth:
        raise EmptyGroundTruth("ground truth has no tokens")
    predicted = set(tokenize(prediction))
    return len(truth & predicted) / len(truth)


def mean_open_recall(items) -> float:
    """Mean token recall over open items."""
    items = list(items)
    if not items:
        raise EmptySet("no open items to score")
    for item in items:
        if item.question_type != "open":
            raise ValueError(f"item {item.question_id} is not an open question")
    return sum(open_token_recall(it.prediction, it.ground_truth) for it in items) / len(items)


VQA_COLUMNS = ["question_id", "type", "prediction", "ground_truth"]


def read_vqa_items(path) -> list[VqaItem]:
    """Read items from a CSV with columns question_id,type,prediction,ground_truth.

    A repeated question_id raises ParseError naming its second row, since
    the item would count twice in the scores.
    """
    items: dict[str, VqaItem] = {}
    for row_no, row in cubeio.read_csv_rows(path, VQA_COLUMNS):
        if row[0] in items:
            raise ParseError(row_no, f"repeated question_id {row[0]!r}")
        try:
            items[row[0]] = VqaItem(*row)
        except ValueError as e:
            raise ParseError(row_no, str(e)) from None
    return list(items.values())


def score_items(items, benchmark: str = "vqa"):
    """Closed accuracy and mean open recall as report records.

    The report's variable column carries the benchmark name; lead_hours is
    not meaningful for VQA and is recorded as 0.
    """
    var = VariableId(benchmark.upper())
    records = []
    closed = [it for it in items if it.question_type == "closed"]
    opened = [it for it in items if it.question_type == "open"]
    if closed:
        records.append(MetricRecord(var, 0, "closed_accuracy", closed_accuracy(closed), len(closed)))
    if opened:
        records.append(MetricRecord(var, 0, "open_recall", mean_open_recall(opened), len(opened)))
    if not records:
        raise EmptySet("no items to score")
    return records
