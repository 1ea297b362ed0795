"""Detection evaluation: precision/recall/F-measure and top-N proposal recall.

Matching follows the common scene-text protocol: detections overlapping a
don't-care region are dropped first, the rest greedily match unmatched
ground truths in score order, one to one. Recall tables report the
fraction of ground truths covered by the top-N proposals per image at one
or more IoU thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import GroundTruthItem, Proposal
from .polyiou import iou

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
    dets: list[Proposal], gts: list[GroundTruthItem], iou_threshold: float = 0.5
) -> EvalReport:
    """Greedy one-to-one matching at a fixed IoU threshold.

    Detections are visited in descending score (ties keep input order) and
    take the unmatched ground truth of highest IoU when that IoU reaches
    the threshold. Empty denominators yield 0.
    """
    care = [g for g in gts if not g.dont_care]
    ignore = [g for g in gts if g.dont_care]

    kept = [
        d
        for d in dets
        if not any(iou(d.box, g.box) > iou_threshold for g in ignore)
    ]
    kept.sort(key=lambda d: -d.score)

    taken = [False] * len(care)
    matched = 0
    for d in kept:
        best, best_iou = -1, 0.0
        for k, g in enumerate(care):
            if taken[k]:
                continue
            v = iou(d.box, g.box)
            if v > best_iou:
                best, best_iou = k, v
        if best >= 0 and best_iou >= iou_threshold:
            taken[best] = True
            matched += 1

    p, r, f = _prf(matched, len(kept), len(care))
    return EvalReport(
        precision=p,
        recall=r,
        f_measure=f,
        matched=matched,
        num_detections=len(kept),
        num_gt=len(care),
        iou_threshold=iou_threshold,
    )


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


def sweep_report(
    dets: list[Proposal], gts: list[GroundTruthItem], thresholds
) -> list[EvalReport]:
    """One report per IoU threshold."""
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ValueError(f"iou threshold {t} outside (0, 1)")
    return [match_detections(dets, gts, t) for t in thresholds]


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
    proposals_per_image: list[list[Proposal]],
    gts_per_image: list[list[GroundTruthItem]],
    n_values=(50, 100, 300),
    modes=(0.5, 0.75, "avg"),
) -> RecallReport:
    """Fraction of ground truths covered when keeping top-N proposals per image.

    A ground truth counts as recalled at threshold tau when any of the
    kept proposals reaches IoU >= tau against it. 'avg' averages the
    per-threshold recall over 0.50 to 0.95 in steps of 0.05.
    """
    if len(proposals_per_image) != len(gts_per_image):
        raise ValueError("per-image proposal and ground-truth lists differ in length")
    for n in n_values:
        if n <= 0:
            raise ValueError(f"top-N must be positive, got {n}")

    # best IoU per (image, gt, N): reuse across modes
    care_total = 0
    best_per_n: dict[int, list[float]] = {n: [] for n in n_values}
    for props, gts in zip(proposals_per_image, gts_per_image):
        ranked = sorted(props, key=lambda p: -p.score)
        care = [g for g in gts if not g.dont_care]
        care_total += len(care)
        for n in n_values:
            top = ranked[:n]
            for g in care:
                best = 0.0
                for p in top:
                    v = iou(p.box, g.box)
                    if v > best:
                        best = v
                best_per_n[n].append(best)

    values = {}
    for n in n_values:
        best = best_per_n[n]
        for mode in modes:
            label = mode_label(mode)
            if label == "avg":
                taus = AVG_THRESHOLDS
                tr = (
                    sum(sum(1 for b in best if b >= t) / care_total for t in taus) / len(taus)
                    if care_total
                    else 0.0
                )
            else:
                tau = float(mode)
                tr = sum(1 for b in best if b >= tau) / care_total if care_total else 0.0
            values[(n, label)] = tr
    return RecallReport(n_values=tuple(n_values), modes=tuple(mode_label(m) for m in modes), values=values)


def format_recall_table(report: RecallReport) -> str:
    """Human-readable grid, modes as rows and TR_N as columns, in percent."""
    header = "IoU mode  " + "  ".join(f"TR{n:>4}" for n in report.n_values)
    lines = [header]
    for mode in report.modes:
        cells = "  ".join(f"{100 * report.values[(n, mode)]:6.1f}" for n in report.n_values)
        lines.append(f"{mode:<8}  {cells}")
    return "\n".join(lines)


def recall_machine_lines(report: RecallReport) -> list[str]:
    """Tab-separated metric lines: metric, N, mode, value to 4 decimals."""
    return [
        f"TR\t{n}\t{mode}\t{report.values[(n, mode)]:.4f}"
        for mode in report.modes
        for n in report.n_values
    ]


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
    out = []
    for r in reports:
        mode = f"{r.iou_threshold:.2f}"
        out.append(f"precision\t-\t{mode}\t{r.precision:.4f}")
        out.append(f"recall\t-\t{mode}\t{r.recall:.4f}")
        out.append(f"f_measure\t-\t{mode}\t{r.f_measure:.4f}")
    return out
