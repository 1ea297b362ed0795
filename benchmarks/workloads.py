"""The three workloads: their seeded input pools, CLI steps and output checks.

A workload turns a seed into a pool of shards (a few images each, files on
disk). Running a shard calls ``rboxkit.cli.main`` in process once per step.
``check`` then validates the step outputs and returns a digest of the
output files plus a few counts; it raises ``CheckFailed`` on a bad output.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
from rboxkit import cli, losses, targets

IMAGES_PER_SHARD = 2
EVAL_THRESHOLDS = tuple(f"{0.50 + 0.05 * i:.2f}" for i in range(10))
RECALL_TOP_N = (50, 100, 300)


class CheckFailed(Exception):
    """A step's output violates an invariant the benchmark checks."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def run_cli(argv: list[str]) -> SimpleNamespace:
    """One in-process CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return SimpleNamespace(code=code, out=out.getvalue(), err=err.getvalue())


def require_ok(res: SimpleNamespace, step: str) -> None:
    tail = res.err.strip().splitlines()[-1:] or [""]
    require(res.code == 0, f"{step}: exit code {res.code}: {tail[0]}")


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def detection_groups(path: Path) -> dict[str, list[str]]:
    """Detection lines grouped by image id, file order kept."""
    groups: dict[str, list[str]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            groups.setdefault(line.split(None, 1)[0], []).append(line)
    return groups


@dataclass
class Shard:
    index: int
    dir: Path
    image_ids: list[str]
    expect: dict = field(default_factory=dict)
    # per image id, arrays the input properties and the IoU probe draw on
    boxes: dict = field(default_factory=dict)


@dataclass
class Pool:
    shards: list[Shard]
    extra: dict = field(default_factory=dict)

    @property
    def images(self) -> int:
        return sum(len(s.image_ids) for s in self.shards)


def _image_ids(k: int) -> list[str]:
    return [f"img{k:03d}{j}" for j in range(IMAGES_PER_SHARD)]


class Labelgen:
    """ICDAR15 ground truth -> ``rboxkit labelgen`` -> reload and score each ``.tmap``."""

    name = "labelgen"
    salt = 1
    tiers = ((8, 3), (8, 8), (4, 20), (4, 50))  # (shards, boxes per page)
    # layers whose wrappers must fire in a traced pass
    layers = (
        "formats.read_annotation_file",
        "targets.make_levels",
        "targets.generate_targets",
        "targets.save_target_maps",
        "targets.load_target_maps",
        "losses.map_losses",
    )

    def generate(self, rng, root: Path) -> Pool:
        shards = []
        for k, sizes in enumerate(inputs.page_sizes(self.tiers, IMAGES_PER_SHARD)):
            sh = Shard(k, root / f"s{k:03d}", _image_ids(k))
            (sh.dir / "gt").mkdir(parents=True)
            for image_id, n in zip(sh.image_ids, sizes):
                boxes = inputs.text_boxes(rng, n)
                dont_care = rng.random(n) < 0.1
                inputs.write_icdar15(sh.dir / "gt" / f"gt_{image_id}.txt", boxes, dont_care)
                sh.boxes[image_id] = (boxes, dont_care)
            shards.append(sh)
        # one seeded prediction grid per level, the training-side input of map_losses
        preds = {}
        for stride in inputs.STRIDES:
            shape = inputs.grid_shape(stride)
            preds[stride] = SimpleNamespace(
                location_prob=rng.random(shape).astype(np.float32),
                orientation=rng.random(shape).astype(np.float32),
                shape_dw=rng.normal(0.0, 0.5, shape).astype(np.float32),
                shape_dh=rng.normal(0.0, 0.5, shape).astype(np.float32),
            )
        return Pool(shards, {"preds": preds})

    def steps(self, pool: Pool, sh: Shard):
        out_dir = sh.dir / "maps"

        def consume():
            res = []
            for path in sorted(out_dir.glob("*.tmap")):
                maps = targets.load_target_maps(path)
                res.append((path, maps, losses.map_losses(pool.extra["preds"][maps.level.stride], maps)))
            return res

        return [
            ("cli.labelgen", lambda: run_cli(
                ["labelgen", "--gt", sh.dir / "gt", "--gt-format", "icdar15", "--output", out_dir])),
            ("bench.consume", consume),
        ]

    def check(self, pool: Pool, sh: Shard, res: dict) -> dict:
        lg = res["cli.labelgen"]
        require_ok(lg, "labelgen")
        printed = {}
        for line in lg.out.splitlines():
            image_id, *fields = line.split("\t")
            printed[image_id] = [int(f.split("=")[1]) for f in fields]
        require(sorted(printed) == sh.image_ids, "labelgen: missing image lines")
        loaded = res["bench.consume"]
        require(len(loaded) == len(inputs.STRIDES) * len(sh.image_ids), f"{len(loaded)} .tmap files")
        totals = {i: [0, 0, 0] for i in sh.image_ids}
        for path, maps, loss in loaded:
            raw = inputs.read_tmap(path)
            require(raw["shape"] == inputs.grid_shape(raw["stride"]), f"{path.name}: grid size")
            require(
                np.array_equal(maps.location, raw["location"])
                and np.array_equal(maps.orientation, raw["orientation"], equal_nan=True)
                and np.array_equal(maps.shape_dw, raw["shape_dw"])
                and np.array_equal(maps.shape_dh, raw["shape_dh"])
                and np.array_equal(maps.shape_valid, raw["shape_valid"] != 0),
                f"{path.name}: reloaded maps differ from the file",
            )
            for v in (loss.loc, loss.angle, loss.shape, loss.weighted):
                require(math.isfinite(v) and v >= 0.0, f"{path.name}: loss {v!r}")
            loc = raw["location"]
            pos, ign = int((loc == 1).sum()), int((loc == 255).sum())
            counts = totals[path.name.split(".")[0]]
            for c, v in enumerate((pos, ign, loc.size - pos - ign)):
                counts[c] += v
        require(totals == printed, "labelgen: printed cell counts differ from the .tmap files")
        return {
            "digest": digest_files(p for p, _, _ in loaded),
            "positive_cells": sum(v[0] for v in totals.values()),
            "ignore_cells": sum(v[1] for v in totals.values()),
        }

    def properties(self, pool: Pool, seen: dict) -> dict:
        n = [len(b) for sh in pool.shards for b, _ in sh.boxes.values()]
        dc = sum(int(d.sum()) for sh in pool.shards for _, d in sh.boxes.values())
        return {
            "images": pool.images,
            "gt_boxes": sum(n),
            "gt_per_image_median": float(np.median(n)),
            "gt_per_image_max": max(n),
            "dont_care_share": dc / sum(n),
            "positive_cells": sum(v["positive_cells"] for v in seen.values()),
            "ignore_cells": sum(v["ignore_cells"] for v in seen.values()),
            "shards_counted": len(seen),
        }

    def pair_sets(self, pool: Pool):
        return iter(())


class InferNms:
    """Seeded ``.pmap`` files -> ``rboxkit decode --no-nms`` -> ``rboxkit nms``."""

    name = "infer-nms"
    salt = 2
    tiers = ((8, 2), (8, 5), (4, 10), (4, 20))
    fp_rate = 3e-4
    layers = (
        "decode.load_prediction_maps",
        "decode.decode_anchors",
        "decode.anchor_statistics",
        "decode.polygon_nms",
        "formats.read_detection_file",
        "formats.write_detection_file",
    )

    def generate(self, rng, root: Path) -> Pool:
        shards = []
        for k, sizes in enumerate(inputs.page_sizes(self.tiers, IMAGES_PER_SHARD)):
            sh = Shard(k, root / f"s{k:03d}", _image_ids(k))
            (sh.dir / "maps").mkdir(parents=True)
            for image_id, n in zip(sh.image_ids, sizes):
                grids, active = inputs.prediction_grids(rng, inputs.text_boxes(rng, n), self.fp_rate)
                for stride, g in grids.items():
                    inputs.write_pmap(sh.dir / "maps" / f"{image_id}.s{stride}.pmap", stride, g)
                sh.boxes[image_id] = active
            sh.expect = {"text_boxes": int(sizes.sum())}
            shards.append(sh)
        return Pool(shards)

    def steps(self, pool: Pool, sh: Shard):
        maps = sorted((sh.dir / "maps").glob("*.pmap"))
        decoded, kept = sh.dir / "decoded.txt", sh.dir / "kept.txt"
        return [
            ("cli.decode", lambda: run_cli(["decode", *maps, "--no-nms", "--output", decoded])),
            ("cli.nms", lambda: run_cli(["nms", "--detections", decoded, "--output", kept])),
        ]

    def check(self, pool: Pool, sh: Shard, res: dict) -> dict:
        require_ok(res["cli.decode"], "decode")
        require_ok(res["cli.nms"], "nms")
        decoded = detection_groups(sh.dir / "decoded.txt")
        kept = detection_groups(sh.dir / "kept.txt")
        n_in = sum(len(v) for v in decoded.values())
        n_kept = sum(len(v) for v in kept.values())
        for image_id in sh.image_ids:
            got, want = len(decoded.get(image_id, [])), len(sh.boxes[image_id])
            require(got == want, f"decode: {image_id}: {got} proposals, {want} active cells")
        require(f"active\t{n_in}" in res["cli.decode"].out.splitlines(), "decode: active count line")
        suppressed = 0
        for image_id, lines in kept.items():
            require(not Counter(lines) - Counter(decoded.get(image_id, [])), f"nms: {image_id}: kept box not in input")
            scores = [float(line.rsplit(None, 1)[1]) for line in lines]
            require(all(a >= b for a, b in zip(scores, scores[1:])), f"nms: {image_id}: not in score order")
        for image_id, lines in decoded.items():
            suppressed += sum((Counter(lines) - Counter(kept.get(image_id, []))).values())
        require(n_in == n_kept + suppressed, f"nms: {n_in} in != {n_kept} kept + {suppressed} suppressed")
        require(f"kept {n_kept} of {n_in} detections" in res["cli.nms"].err, "nms: kept count note")
        return {
            "digest": digest_files([sh.dir / "decoded.txt", sh.dir / "kept.txt"]),
            "nms_kept": n_kept,
        }

    def properties(self, pool: Pool, seen: dict) -> dict:
        n = [len(b) for sh in pool.shards for b in sh.boxes.values()]
        pairs, overlap = pair_counts(self.pair_sets(pool))
        return {
            "images": pool.images,
            "text_boxes": sum(sh.expect["text_boxes"] for sh in pool.shards),
            "proposals": sum(n),
            "proposals_per_image_median": float(np.median(n)),
            "proposals_per_image_max": max(n),
            "candidate_pairs": pairs,
            "aabb_overlap_share": overlap / pairs if pairs else 0.0,
            "nms_kept": sum(v["nms_kept"] for v in seen.values()),
            "shards_counted": len(seen),
        }

    def pair_sets(self, pool: Pool):
        """Per image, all proposal pairs (NMS may compare any two)."""
        for sh in pool.shards:
            for boxes in sh.boxes.values():
                yield boxes, boxes, True


class EvalRecall:
    """ICDAR15 GT, detections and proposals -> ``rboxkit evaluate`` -> ``rboxkit proposal-recall``."""

    name = "eval-recall"
    salt = 3
    tiers = ((8, 3), (8, 6), (4, 12), (4, 30))
    layers = (
        "formats.read_annotation_file",
        "formats.read_detection_file",
        "formats.to_ground_truth",
        "evalkit.match_detections",
        "evalkit.combine_reports",
        "evalkit.proposal_recall",
    )

    def generate(self, rng, root: Path) -> Pool:
        shards = []
        for k, sizes in enumerate(inputs.page_sizes(self.tiers, IMAGES_PER_SHARD)):
            sh = Shard(k, root / f"s{k:03d}", _image_ids(k))
            (sh.dir / "gt").mkdir(parents=True)
            det_lines, prop_lines, care, n_props = [], [], 0, []
            for image_id, n in zip(sh.image_ids, sizes):
                gt = inputs.text_boxes(rng, n)
                dc = rng.random(n) < 0.12
                inputs.write_icdar15(sh.dir / "gt" / f"gt_{image_id}.txt", gt, dc)
                care += int((~dc).sum())
                dets, det_scores = self._detections(rng, gt, dc)
                props, prop_scores = self._proposals(rng, gt)
                det_lines += inputs.detection_lines(image_id, dets, det_scores)
                prop_lines += inputs.detection_lines(image_id, props, prop_scores)
                n_props.append(len(props))
                top = props[np.argsort(-prop_scores, kind="stable")[: max(RECALL_TOP_N)]]
                sh.boxes[image_id] = (gt, dc, dets, top)
            (sh.dir / "dets.txt").write_text("\n".join(det_lines) + "\n")
            (sh.dir / "props.txt").write_text("\n".join(prop_lines) + "\n")
            sh.expect = {"care": care, "dets": len(det_lines), "props": n_props}
            shards.append(sh)
        return Pool(shards)

    @staticmethod
    def _detections(rng, gt, dc):
        """Jittered true positives, looser duplicates, hits on don't-care regions, false positives."""
        care = gt[~dc]
        tp = care[rng.random(len(care)) < 0.85]
        dup = tp[rng.random(len(tp)) < 0.2]
        on_dc = gt[dc][rng.random(int(dc.sum())) < 0.5]
        fp = inputs.text_boxes(rng, rng.poisson(1.0 + len(gt) / 5.0))
        parts = [
            (inputs.jitter(rng, tp, 0.08, 0.06, 0.03), rng.uniform(0.5, 1.0, len(tp))),
            (inputs.jitter(rng, dup, 0.25, 0.15, 0.08), rng.uniform(0.3, 0.8, len(dup))),
            (inputs.jitter(rng, on_dc, 0.05, 0.05, 0.02), rng.uniform(0.3, 0.9, len(on_dc))),
            (fp, rng.uniform(0.05, 0.7, len(fp))),
        ]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    @staticmethod
    def _proposals(rng, gt):
        """A cluster of loose proposals around every region plus scattered background ones."""
        reps = rng.integers(4, 12, len(gt))
        cluster = inputs.jitter(rng, np.repeat(gt, reps, axis=0), 0.3, 0.2, 0.1)
        background = inputs.text_boxes(rng, int(rng.integers(50, 70)))
        boxes = np.concatenate([cluster, background])
        scores = np.concatenate([rng.uniform(0.2, 1.0, len(cluster)), rng.uniform(0.0, 0.6, len(background))])
        return boxes, scores

    def steps(self, pool: Pool, sh: Shard):
        gt = sh.dir / "gt"
        metrics, recall = sh.dir / "metrics.tsv", sh.dir / "recall.tsv"
        return [
            ("cli.evaluate", lambda: run_cli(
                ["evaluate", "--detections", sh.dir / "dets.txt", "--gt", gt, "--gt-format", "icdar15",
                 "--iou-thresholds", *EVAL_THRESHOLDS, "--output", metrics])),
            ("cli.proposal-recall", lambda: run_cli(
                ["proposal-recall", "--proposals", sh.dir / "props.txt", "--gt", gt, "--gt-format", "icdar15",
                 "--output", recall])),
        ]

    def check(self, pool: Pool, sh: Shard, res: dict) -> dict:
        require_ok(res["cli.evaluate"], "evaluate")
        require_ok(res["cli.proposal-recall"], "proposal-recall")
        rows = [line.split() for line in res["cli.evaluate"].out.splitlines()[1:]]
        require([r[0] for r in rows] == list(EVAL_THRESHOLDS), "evaluate: threshold rows")
        machine = {}
        for line in (sh.dir / "metrics.tsv").read_text().splitlines():
            metric, _, mode, value = line.split("\t")
            machine[(metric, mode)] = float(value)
        matched_total = 0
        for thr, _, _, _, matched, dets, gts in rows:
            matched, dets, gts = int(matched), int(dets), int(gts)
            require(gts == sh.expect["care"], f"evaluate: {gts} scored GT, {sh.expect['care']} care regions")
            require(dets <= sh.expect["dets"] and matched <= min(dets, gts), f"evaluate@{thr}: counts")
            p = matched / dets if dets else 0.0
            r = matched / gts if gts else 0.0
            f = 2 * p * r / (p + r) if p + r > 0 else 0.0
            for name, v in (("precision", p), ("recall", r), ("f_measure", f)):
                require(abs(machine[(name, thr)] - v) <= 5e-5 + 1e-12, f"evaluate@{thr}: {name} {machine[(name, thr)]} != {v} from counts")
            matched_total += matched
        tr: dict[str, dict[int, float]] = {}
        for line in (sh.dir / "recall.tsv").read_text().splitlines():
            _, n, mode, value = line.split("\t")
            tr.setdefault(mode, {})[int(n)] = float(value)
        require(set(tr) == {"0.50", "0.75", "avg"}, "proposal-recall: modes")
        for mode, by_n in tr.items():
            vals = [by_n[n] for n in RECALL_TOP_N]
            require(all(0.0 <= v <= 1.0 for v in vals), f"proposal-recall {mode}: TR outside [0, 1]")
            require(vals == sorted(vals), f"proposal-recall {mode}: TR falls as N grows")
        return {
            "digest": digest_files([sh.dir / "metrics.tsv", sh.dir / "recall.tsv"]),
            "matched": matched_total,
        }

    def properties(self, pool: Pool, seen: dict) -> dict:
        gt = [len(g) for sh in pool.shards for g, *_ in sh.boxes.values()]
        dc = sum(int(d.sum()) for sh in pool.shards for _, d, _, _ in sh.boxes.values())
        props = [n for sh in pool.shards for n in sh.expect["props"]]
        pairs, overlap = pair_counts(self.pair_sets(pool))
        return {
            "images": pool.images,
            "gt_boxes": sum(gt),
            "dont_care_share": dc / sum(gt),
            "detections": sum(sh.expect["dets"] for sh in pool.shards),
            "proposals_per_image_median": float(np.median(props)),
            "proposals_per_image_max": max(props),
            "candidate_pairs": pairs,
            "aabb_overlap_share": overlap / pairs if pairs else 0.0,
            "shards_counted": len(seen),
        }

    def pair_sets(self, pool: Pool):
        """Per image, detection x GT (evaluate) and top-300 proposal x care GT (recall)."""
        for sh in pool.shards:
            for gt, dc, dets, top in sh.boxes.values():
                yield dets, gt, False
                yield top, gt[~dc], False


def pair_counts(pair_sets) -> tuple[int, int]:
    """(candidate pairs, pairs whose bounding boxes overlap) over all images."""
    counts = [inputs.pair_counts(*s) for s in pair_sets]
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


WORKLOADS = {w.name: w for w in (Labelgen(), InferNms(), EvalRecall())}
