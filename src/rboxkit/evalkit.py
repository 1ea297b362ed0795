"""Detection evaluation: precision/recall/F-measure and top-N proposal recall.

Matching follows the common scene-text protocol: detections overlapping a
don't-care region are dropped first, the rest greedily match unmatched
ground truths in score order, one to one. Recall tables report the
fraction of ground truths covered by the top-N proposals per image at one
or more IoU thresholds. Both take a whole run as per-image lists and get
every IoU within an image from one :func:`~rboxkit.polyiou.iou_pairs` call,
which never pairs rows of two images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import Detections, GroundTruthItem
from .polyiou import box_array, iou_matrix, iou_pairs

AVG_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class EvalReport:
    """Counts and derived metrics of one matching run.

    ``num_detections`` counts the detections actually scored, after
    don't-care filtering; ``num_gt`` counts non-don't-care ground truths.
    """

    precision: float
    recall: float
    f_measure: float
    matched: int
    num_detections: int
    num_gt: int
    iou_threshold: float


def _prf(matched: int, num_detections: int, num_gt: int) -> tuple[float, float, float]:
    p = matched / num_detections if num_detections else 0.0
    r = matched / num_gt if num_gt else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def match_detections(
    dets: Detections,
    gts: list[GroundTruthItem],
    iou_threshold: float = 0.5,
    *,
    ious=None,
) -> EvalReport:
    """Greedy one-to-one matching at a fixed IoU threshold.

    Detections are visited in descending score (ties keep input order) and
    take the unmatched ground truth of highest IoU (the first on ties) when
    that IoU reaches the threshold, which must lie in (0, 1). Empty
    denominators yield 0. ``ious`` is the detection x ground-truth IoU matrix
    when the caller already has it; it is computed here otherwise.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou threshold {iou_threshold} outside (0, 1)")
    ious = iou_matrix(dets.boxes, box_array(g.box for g in gts)) if ious is None else np.asarray(ious, dtype=np.float64)
    if ious.shape != (len(dets), len(gts)):
        raise ValueError(f"ious has shape {ious.shape}, expected {(len(dets), len(gts))}")
    care = np.array([not g.dont_care for g in gts], dtype=bool)

    kept = np.flatnonzero(~(ious[:, ~care] > iou_threshold).any(axis=1))
    kept = kept[np.argsort(-dets.scores.take(kept), kind="stable")]
    rows = ious[kept][:, care]

    taken = np.zeros(rows.shape[1], dtype=bool)
    matched = 0
    if rows.shape[1]:
        # a detection below the threshold against every ground truth can never match
        for row in rows[rows.max(axis=1) >= iou_threshold]:
            free = np.where(taken, -1.0, row)
            best = int(np.argmax(free))
            if free[best] >= iou_threshold:
                taken[best] = True
                matched += 1

    return EvalReport(*_prf(matched, len(kept), len(taken)), matched, len(kept), len(taken), iou_threshold)


def combine_reports(reports: list[EvalReport]) -> EvalReport:
    """Dataset-level report from per-image reports at one threshold."""
    if not reports:
        return EvalReport(0.0, 0.0, 0.0, 0, 0, 0, 0.0)
    thr = reports[0].iou_threshold
    if any(r.iou_threshold != thr for r in reports):
        raise ValueError("cannot combine reports at different thresholds")
    matched = sum(r.matched for r in reports)
    dets = sum(r.num_detections for r in reports)
    gts = sum(r.num_gt for r in reports)
    p, r, f = _prf(matched, dets, gts)
    return EvalReport(p, r, f, matched, dets, gts, thr)


def _run_pairs(a_per_image, b_per_image):
    """:func:`iou_pairs` within each image: (i, j) into the stacked rows, sorted by i, IoU and each side's offsets."""
    sides = [[len(rows) for rows in side] for side in (a_per_image, b_per_image)]
    stacked = [np.concatenate([np.empty((0, 5)), *side]) for side in (a_per_image, b_per_image)]
    i, j, v = iou_pairs(*stacked, *(np.repeat(np.arange(len(n)), n) for n in sides))
    order = np.argsort(i, kind="stable")
    return i[order], j[order], v[order], [np.cumsum([0, *n]) for n in sides]


def sweep_report(dets_per_image, gts_per_image, thresholds) -> list[EvalReport]:
    """Dataset-level reports, one per IoU threshold, of a run given as per-image detections and ground truth.

    One :func:`iou_pairs` call serves the run; each image's matrix is matched
    once per threshold, and :func:`combine_reports` pools each threshold.
    Zero images score like one empty image, so each report keeps its threshold.
    """
    if len(dets_per_image) != len(gts_per_image):
        raise ValueError("per-image detection and ground-truth lists differ in length")
    if not len(dets_per_image):
        dets_per_image, gts_per_image = [Detections((), (), ())], [[]]
    gt_rows = [box_array(g.box for g in gts) for gts in gts_per_image]
    i, j, v, (d0, g0) = _run_pairs([d.boxes for d in dets_per_image], gt_rows)
    bounds, per_image = np.searchsorted(i, d0), []
    for k, (dets, gts) in enumerate(zip(dets_per_image, gts_per_image)):
        p, ious = slice(bounds[k], bounds[k + 1]), np.zeros((len(dets), len(gts)))
        ious[i[p] - d0[k], j[p] - g0[k]] = v[p]
        per_image.append([match_detections(dets, gts, t, ious=ious) for t in thresholds])
    return [combine_reports(list(col)) for col in zip(*per_image)]


def mode_label(mode) -> str:
    """Canonical key for a threshold mode: '0.50' style or 'avg'."""
    if isinstance(mode, str):
        if mode != "avg":
            raise ValueError(f"unknown threshold mode {mode!r}")
        return "avg"
    return f"{float(mode):.2f}"


@dataclass(frozen=True)
class RecallReport:
    """TR values per (top-N, threshold mode)."""

    n_values: tuple
    modes: tuple
    values: dict

    def get(self, n: int, mode) -> float:
        return self.values[(n, mode_label(mode))]


def proposal_recall(
    proposals_per_image: list[Detections],
    gts_per_image: list[list[GroundTruthItem]],
    n_values=(50, 100, 300),
    modes=(0.5, 0.75, "avg"),
) -> RecallReport:
    """Fraction of ground truths covered when keeping top-N proposals per image.

    A ground truth counts as recalled at threshold tau when any of its
    image's kept proposals reaches IoU >= tau against it. A mode is one tau
    in (0, 1) or 'avg', the mean recall over tau = 0.50, 0.55, ..., 0.95.
    One :func:`iou_pairs` call serves the run: each image's top-ranked
    proposals against its care ground truths.
    """
    if len(proposals_per_image) != len(gts_per_image):
        raise ValueError("per-image proposal and ground-truth lists differ in length")
    for n in n_values:
        if n <= 0:
            raise ValueError(f"top-N must be positive, got {n}")
    for mode in modes:
        if mode_label(mode) != "avg" and not 0.0 < mode < 1.0:
            raise ValueError(f"iou threshold {mode} outside (0, 1)")

    top = max(n_values, default=0)
    ranked = [p.boxes.take(np.argsort(-p.scores, kind="stable")[:top], axis=0) for p in proposals_per_image]
    care = [box_array(g.box for g in gts if not g.dont_care) for gts in gts_per_image]
    i, j, v, (r0, g0) = _run_pairs(ranked, care)
    # each pair's proposal rank within its image
    rank = i - np.repeat(r0[:-1], np.diff(r0))[i]
    care_total = int(g0[-1])

    values = {}
    for n in n_values:
        # best IoU per care gt among the image's top n proposals
        row = np.zeros(care_total)
        np.maximum.at(row, j[rank < n], v[rank < n])
        for mode in modes:
            label = mode_label(mode)
            taus = AVG_THRESHOLDS if label == "avg" else (float(mode),)
            shares = [int(np.count_nonzero(row >= t)) / care_total if care_total else 0.0 for t in taus]
            values[(n, label)] = sum(shares) / len(shares)
    return RecallReport(n_values=tuple(n_values), modes=tuple(mode_label(m) for m in modes), values=values)


def format_recall_table(report: RecallReport) -> str:
    """Human-readable grid, modes as rows and TR_N as columns, in percent."""
    lines = ["IoU mode  " + "  ".join(f"TR{n:>4}" for n in report.n_values)]
    for mode in report.modes:
        cells = "  ".join(f"{100 * report.values[(n, mode)]:6.1f}" for n in report.n_values)
        lines.append(f"{mode:<8}  {cells}")
    return "\n".join(lines)


def recall_machine_lines(report: RecallReport) -> list[str]:
    """Tab-separated metric lines: metric, N, mode, value to 4 decimals."""
    return [f"TR\t{n}\t{mode}\t{report.values[(n, mode)]:.4f}" for mode in report.modes for n in report.n_values]


def format_eval_table(reports: list[EvalReport]) -> str:
    """Human-readable P/R/F table in percent, one row per IoU threshold."""
    lines = ["IoU     P(%)    R(%)    F(%)  matched  dets    gt"]
    for r in reports:
        lines.append(
            f"{r.iou_threshold:.2f}  {100 * r.precision:6.1f}  {100 * r.recall:6.1f}"
            f"  {100 * r.f_measure:6.1f}  {r.matched:7d}  {r.num_detections:4d}  {r.num_gt:4d}"
        )
    return "\n".join(lines)


def eval_machine_lines(reports: list[EvalReport]) -> list[str]:
    """Tab-separated metric lines for the sweep: metric, N, mode, value."""
    metrics = ("precision", "recall", "f_measure")
    return [f"{m}\t-\t{r.iou_threshold:.2f}\t{getattr(r, m):.4f}" for r in reports for m in metrics]
