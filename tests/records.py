"""Carry lists of test proposals into the package's detection record and back."""

from rboxkit.geom import Detections


def record(proposals, image_ids=None) -> Detections:
    """The record of ``proposals`` in order, all of image ``img`` unless ids are given."""
    proposals = list(proposals)
    ids = ["img"] * len(proposals) if image_ids is None else list(image_ids)
    rows = [(p.box.cx, p.box.cy, p.box.w, p.box.h, p.box.theta) for p in proposals]
    return Detections(ids, rows, [p.score for p in proposals])


def record_of_pairs(pairs) -> Detections:
    """The record of (image id, proposal) pairs in order."""
    pairs = list(pairs)
    return record([p for _, p in pairs], [i for i, _ in pairs])


def pairs(rec: Detections) -> list:
    """(image id, proposal) pairs of a record in order."""
    return list(zip(rec.image_ids.tolist(), rec))
