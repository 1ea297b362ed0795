"""Tracing from outside the package, and the per-layer metrics it yields.

``Tracer.install`` replaces the public functions that ``rboxkit.cli`` calls
through module attributes (``decode.*``, ``targets.*``, ``evalkit.*``,
``formats.*``) plus ``losses.map_losses`` with wrappers that record a span
(name, start, end, shard, step, parent span) and a few counts derived from
arguments and results. ``uninstall`` puts the originals back. The package
itself is not changed.

``polyiou.iou`` cannot be wrapped this way, because ``decode`` and
``evalkit`` import it by name; ``iou_probe`` times it on pairs sampled from
a workload's own inputs instead.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import inputs
from rboxkit import decode, evalkit, formats, losses, targets
from rboxkit.geom import RotatedBox
from rboxkit.polyiou import iou

WRAPPED = {
    decode: ("load_prediction_maps", "ideal_predictions", "decode_anchors", "polygon_nms", "anchor_statistics"),
    targets: ("make_levels", "generate_targets", "save_target_maps", "load_target_maps"),
    evalkit: (
        "match_detections",
        "combine_reports",
        "proposal_recall",
        "format_eval_table",
        "eval_machine_lines",
        "format_recall_table",
        "recall_machine_lines",
    ),
    formats: (
        "read_annotation_file",
        "to_ground_truth",
        "read_detection_file",
        "group_detections_by_image",
        "write_detection_file",
    ),
    losses: ("map_losses",),
}


def _count_decode_anchors(c, a, result):
    c["decode.cells_scanned"] += a["maps"].level.grid_w * a["maps"].level.grid_h
    c["decode.proposals"] += len(result)


def _count_polygon_nms(c, a, result):
    kept = {id(p) for p in result}
    c["decode.nms_in"] += len(a["proposals"])
    c["decode.nms_kept"] += len(result)
    c["decode.nms_suppressed"] += sum(1 for p in a["proposals"] if id(p) not in kept)


def _count_match(c, a, result):
    c["evalkit.match_calls"] += 1
    c["evalkit.matched"] += result.matched
    c["evalkit.dets_scored"] += result.num_detections


def _count_recall(c, a, result):
    for props, gts in zip(a["proposals_per_image"], a["gts_per_image"]):
        care = sum(1 for g in gts if not g.dont_care)
        c["evalkit.recall_rows"] += care * sum(min(n, len(props)) for n in a["n_values"])


def _count_targets(c, a, result):
    c["targets.boxes"] += len(a["gts"])
    for m in result:
        c["targets.positive_cells"] += int(np.count_nonzero(m.location == targets.LOC_POSITIVE))
        c["targets.ignore_cells"] += int(np.count_nonzero(m.location == targets.LOC_IGNORE))


def _count_read(c, a, result):
    records, errors = result
    c["formats.lines_read"] += len(records) + len(errors)
    c["formats.parse_errors"] += len(errors)


COUNTERS = {
    "decode.decode_anchors": _count_decode_anchors,
    "decode.polygon_nms": _count_polygon_nms,
    "evalkit.match_detections": _count_match,
    "evalkit.proposal_recall": _count_recall,
    "targets.generate_targets": _count_targets,
    "targets.save_target_maps": lambda c, a, r: c.update({"targets.bytes_written": os.path.getsize(a["path"])}),
    "losses.map_losses": lambda c, a, r: c.update({"losses.cells": a["target"].location.size}),
    "formats.read_annotation_file": _count_read,
    "formats.read_detection_file": _count_read,
    "formats.write_detection_file": lambda c, a, r: c.update({"formats.lines_written": len(a["records"])}),
}

# per-layer metrics in report order: name -> unit
LAYER_METRICS = {
    "polyiou.iou_us.overlap": "us",
    "polyiou.iou_us.disjoint": "us",
    "polyiou.aabb_overlap_frac": "frac",
    "polyiou.pairs_max": "count",
    "decode.polygon_nms.s": "s",
    "decode.nms_in": "count",
    "decode.nms_kept": "count",
    "decode.nms_suppressed": "count",
    "decode.decode_anchors.s": "s",
    "decode.load_prediction_maps.s": "s",
    "decode.cells_scanned": "count",
    "decode.proposals": "count",
    "evalkit.match_detections.s": "s",
    "evalkit.match_calls": "count",
    "evalkit.matched": "count",
    "evalkit.dets_scored": "count",
    "evalkit.proposal_recall.s": "s",
    "evalkit.recall_rows": "count",
    "targets.generate_targets.s": "s",
    "targets.boxes": "count",
    "targets.positive_cells": "count",
    "targets.ignore_cells": "count",
    "targets.save_target_maps.s": "s",
    "targets.load_target_maps.s": "s",
    "targets.bytes_written": "count",
    "losses.map_losses.s": "s",
    "losses.cells": "count",
    "formats.read_annotation_file.s": "s",
    "formats.read_detection_file.s": "s",
    "formats.write_detection_file.s": "s",
    "formats.lines_read": "count",
    "formats.lines_written": "count",
    "formats.parse_errors": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans and counters around the wrapped layer functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, shard, step, parent index)
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._shard = -1
        self._step = ""
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        self.spans.append((name, time.perf_counter(), None, self._shard, self._step, self._stack[-1] if self._stack else None))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, shard, step, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), shard, step, parent)

    def begin_step(self, shard: int, step: str) -> int:
        self._shard, self._step = shard, step
        return self._open(step)

    def end_step(self, idx: int) -> None:
        self._close(idx)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.calls[name] += 1
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attrs in WRAPPED.items():
            short = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def layer_metrics(self) -> dict:
        """Total seconds per layer function, the counters and the CLI's own time."""
        total, children = defaultdict(float), defaultdict(float)
        for name, start, end, _, _, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        cli_self = sum(
            end - start - children[k]
            for k, (name, start, end, *_) in enumerate(self.spans)
            if name.startswith("cli.")
        )
        out = {}
        for name in LAYER_METRICS:
            if name.endswith(".s"):
                out[name] = total[name[:-2]]
            elif not name.startswith(("polyiou.", "trace.")):
                out[name] = self.counts[name]
        out["cli.self_s"] = cli_self
        return out

    def dump(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 9), round(e - t0, 9), sh, st, p] for n, s, e, sh, st, p in self.spans]


def iou_probe(rng, pair_sets, samples: int = 400, repeats: int = 5) -> dict:
    """Time ``polyiou.iou`` on seeded samples of bbox-overlapping and bbox-disjoint pairs.

    ``pair_sets`` yields (A, B, same) box arrays per image; same means the
    pairs are the i < j pairs within A. Reports the median over ``repeats``
    of microseconds per pair, and the pair counts computed from the inputs.
    """
    sets = list(pair_sets)
    counts = np.array([inputs.pair_counts(*s) for s in sets], dtype=float).reshape(-1, 2)
    n_all, n_ov = counts.sum(axis=0)
    out = {"polyiou.pairs_max": int(n_all), "polyiou.aabb_overlap_frac": n_ov / n_all if n_all else 0.0}
    for label, weights in (("overlap", counts[:, 1]), ("disjoint", counts[:, 0] - counts[:, 1])):
        out[f"polyiou.iou_us.{label}"] = 0.0
        if not weights.sum():
            continue
        pairs = []
        for k, take in enumerate(rng.multinomial(samples, weights / weights.sum())):
            if take:
                a, b, same = sets[k]
                overlap, valid = inputs.pair_masks(a, b, same)
                ia, ib = np.nonzero(overlap if label == "overlap" else valid & ~overlap)
                for p in rng.choice(len(ia), size=take):
                    pairs.append((RotatedBox.make(*a[ia[p]]), RotatedBox.make(*b[ib[p]])))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for x, y in pairs:
                iou(x, y)
            times.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        out[f"polyiou.iou_us.{label}"] = statistics.median(times)
    return out
