"""Evaluation arithmetic: precision / recall / F1 / accuracy from a
confusion matrix, and the rendered classification report.

Zero-denominator rates are total functions: they evaluate to 0.0 and
the report flags them as degenerate. Rendering rounds to two decimals
half-up; internal values keep full precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .labels import LABEL_NAMES


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count grid; rows are true classes, columns predictions."""

    counts: tuple[tuple[int, ...], ...]
    label_names: tuple[str, ...] = LABEL_NAMES

    def __post_init__(self):
        n = len(self.label_names)
        if len(self.counts) != n or any(len(row) != n for row in self.counts):
            raise ValueError(f"counts must be {n}x{n} for labels {self.label_names}")
        if any(v < 0 for row in self.counts for v in row):
            raise ValueError("confusion counts must be non-negative")

    @classmethod
    def from_rows(cls, rows, label_names=LABEL_NAMES) -> "ConfusionMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows), tuple(label_names))

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_sum(self, k: int) -> int:
        return sum(self.counts[k])

    def col_sum(self, k: int) -> int:
        return sum(row[k] for row in self.counts)

    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.counts)))


def precision(cm: ConfusionMatrix, k: int) -> float:
    """tp / (tp + fp); 0.0 when the predicted column is empty."""
    denom = cm.col_sum(k)
    return cm.counts[k][k] / denom if denom else 0.0


def recall(cm: ConfusionMatrix, k: int) -> float:
    """tp / (tp + fn); 0.0 when the true row is empty."""
    denom = cm.row_sum(k)
    return cm.counts[k][k] / denom if denom else 0.0


def f1(cm: ConfusionMatrix, k: int) -> float:
    """2 * (recall * precision) / (recall + precision); 0.0 when both rates are 0."""
    p, r = precision(cm, k), recall(cm, k)
    return 2.0 * p * r / (p + r) if p + r else 0.0


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total()
    if total == 0:
        raise ValueError("cannot compute accuracy of an empty confusion matrix")
    return cm.trace() / total


@dataclass(frozen=True)
class ClassStats:
    name: str
    precision: float
    recall: float
    f1: float
    support: int
    degenerate_precision: bool = False
    degenerate_recall: bool = False


@dataclass(frozen=True)
class ClassReport:
    rows: tuple[ClassStats, ...]
    accuracy: float
    total: int


def report(cm: ConfusionMatrix) -> ClassReport:
    rows = []
    for k, name in enumerate(cm.label_names):
        rows.append(ClassStats(
            name=name,
            precision=precision(cm, k),
            recall=recall(cm, k),
            f1=f1(cm, k),
            support=cm.row_sum(k),
            degenerate_precision=cm.col_sum(k) == 0,
            degenerate_recall=cm.row_sum(k) == 0,
        ))
    return ClassReport(rows=tuple(rows), accuracy=accuracy(cm), total=cm.total())


def round_half_up(x: float, places: int = 2) -> float:
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_UP))


def _fmt(x: float, degenerate: bool = False) -> str:
    s = f"{round_half_up(x):.2f}"
    return s + "*" if degenerate else s


def render_text(rep: ClassReport) -> str:
    """Aligned text table, one row per class plus an accuracy line."""
    name_w = max(len("accuracy"), max(len(r.name) for r in rep.rows))
    header = f"{'':>{name_w}}  precision  recall  f1-score  support"
    lines = [header]
    flagged = False
    for r in rep.rows:
        p = _fmt(r.precision, r.degenerate_precision)
        rc = _fmt(r.recall, r.degenerate_recall)
        flagged = flagged or r.degenerate_precision or r.degenerate_recall
        lines.append(
            f"{r.name:>{name_w}}  {p:>9}  {rc:>6}  {_fmt(r.f1):>8}  {r.support:>7}"
        )
    lines.append("")
    lines.append(f"{'accuracy':>{name_w}}  {'':>9}  {'':>6}  {_fmt(rep.accuracy):>8}  {rep.total:>7}")
    if flagged:
        lines.append("* degenerate rate (zero denominator), reported as 0.00")
    return "\n".join(lines) + "\n"
