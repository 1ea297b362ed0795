"""Command-line entry points.

Subcommands: evaluate, proposal-recall, labelgen, decode, nms, iou, convert.
Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 input or parse error, 2 invalid parameter or invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from . import decode as dec
from . import evalkit, formats, polyiou, targets
from .geom import RotatedBox, box_corners

DEFAULT_STRIDES = (4, 8, 16, 32)
DEFAULT_LONG_RATIO_STRIDES = (4, 8)


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _report_parse_errors(path, errors) -> int:
    """Print each parse error with its file and line; return how many there were."""
    for e in errors:
        _err(f"{path}:{e.lineno}: {e}")
    return len(errors)


def _gt_dir_images(gt_dir: Path) -> dict[str, Path]:
    """Map image ids to ground-truth files; a gt_ filename prefix is stripped."""
    out = {}
    for p in sorted(gt_dir.glob("*.txt")):
        stem = p.stem
        if stem.startswith("gt_"):
            stem = stem[3:]
        out[stem] = p
    return out


def _load_gt_map(gt_dir: Path, fmt: str, include_difficult: bool):
    """Per-image ground truth plus the total parse-error count."""
    if not gt_dir.is_dir():
        raise ValueError(f"ground-truth directory {gt_dir} does not exist or is not a directory")
    gt_map = {}
    n_errors = 0
    for image_id, path in _gt_dir_images(gt_dir).items():
        records, errors = formats.read_annotation_file(path, fmt)
        n_errors += _report_parse_errors(path, errors)
        gt_map[image_id] = formats.to_ground_truth(
            records, difficult_as_dont_care=not include_difficult
        )
    return gt_map, n_errors


def _read_detections(path: Path):
    records, errors = formats.read_detection_file(path)
    return formats.group_detections_by_image(records), _report_parse_errors(path, errors)


def cmd_evaluate(args) -> int:
    det_groups, det_errors = _read_detections(Path(args.detections))
    gt_map, gt_errors = _load_gt_map(Path(args.gt), args.gt_format, args.include_difficult)
    image_ids = sorted(set(gt_map) | set(det_groups))
    for image_id in image_ids:
        if image_id not in gt_map:
            _note(f"note: no ground-truth file for image {image_id!r}; counted as background")
            gt_map[image_id] = []
    # zero images score like one empty image, so each row keeps its threshold
    per_image = [
        evalkit.sweep_report(det_groups.get(i, []), gt_map[i], args.iou_thresholds)
        for i in image_ids
    ] or [evalkit.sweep_report([], [], args.iou_thresholds)]
    rows = [evalkit.combine_reports(list(col)) for col in zip(*per_image)]
    print(evalkit.format_eval_table(rows))
    if args.output:
        Path(args.output).write_text("\n".join(evalkit.eval_machine_lines(rows)) + "\n")
    return 1 if det_errors or gt_errors else 0


def cmd_proposal_recall(args) -> int:
    det_groups, det_errors = _read_detections(Path(args.proposals))
    gt_map, gt_errors = _load_gt_map(Path(args.gt), args.gt_format, args.include_difficult)
    image_ids = sorted(gt_map)
    props = [det_groups.get(i, []) for i in image_ids]
    gts = [gt_map[i] for i in image_ids]
    report = evalkit.proposal_recall(props, gts, n_values=tuple(args.top_n))
    print(evalkit.format_recall_table(report))
    if args.output:
        Path(args.output).write_text("\n".join(evalkit.recall_machine_lines(report)) + "\n")
    return 1 if det_errors or gt_errors else 0


def _build_levels(args) -> list[targets.LevelSpec]:
    return targets.make_levels(
        args.image_width,
        args.image_height,
        strides=tuple(args.strides),
        k=args.k,
        long_ratio_strides=tuple(args.long_ratio_strides),
    )


def _candidates(args) -> targets.ShapeCandidateSet:
    return targets.ShapeCandidateSet(
        scales=tuple(args.scales),
        ratios=tuple(args.ratios),
        long_ratios=tuple(args.long_ratios),
    )


def _in_bounds(box: RotatedBox, width: float, height: float) -> bool:
    pts = box_corners(box)
    return (
        pts[:, 0].min() >= 0
        and pts[:, 1].min() >= 0
        and pts[:, 0].max() <= width
        and pts[:, 1].max() <= height
    )


def cmd_labelgen(args) -> int:
    gt_path = Path(args.gt)
    files = _gt_dir_images(gt_path) if gt_path.is_dir() else {gt_path.stem: gt_path}
    levels = _build_levels(args)
    shrink = targets.ShrinkParams(args.sigma1, args.sigma2)
    candidates = _candidates(args)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_errors = 0
    for image_id in sorted(files):
        records, errors = formats.read_annotation_file(files[image_id], args.gt_format)
        n_errors += _report_parse_errors(files[image_id], errors)
        boxes = []
        for rec in records:
            if rec.dont_care:
                continue
            b = rec.to_rotated_box()
            if not _in_bounds(b, args.image_width, args.image_height):
                _note(f"warning: {image_id}: box at ({b.cx:.0f}, {b.cy:.0f}) out of bounds, skipped")
                continue
            boxes.append(b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            maps = targets.generate_targets(boxes, levels, shrink, candidates)
        for w in caught:
            _note(f"warning: {image_id}: {w.message}")
        counts = [m.counts() for m in maps]
        pos = sum(c[0] for c in counts)
        ign = sum(c[1] for c in counts)
        neg = sum(c[2] for c in counts)
        print(f"{image_id}\tpositive={pos}\tignore={ign}\tnegative={neg}")
        for m in maps:
            targets.save_target_maps(m, out_dir / f"{image_id}.s{m.level.stride}.tmap")
    return 1 if n_errors else 0


def _sniff_maps(path: Path) -> dec.PredictionMaps:
    with path.open("rb") as fh:
        magic = fh.read(4)
    if magic == targets.TARGET_MAGIC:
        return dec.ideal_predictions(targets.load_target_maps(path))
    return dec.load_prediction_maps(path)


def cmd_decode(args) -> int:
    if args.top_n is not None and args.top_n <= 0:
        raise ValueError(f"top-N must be positive, got {args.top_n}")
    by_image: dict[str, list[dec.PredictionMaps]] = {}
    for f in args.maps:
        path = Path(f)
        image_id = path.name.split(".")[0]
        by_image.setdefault(image_id, []).append(_sniff_maps(path))

    params = dec.DecodeParams(t_a=args.t_a)
    records = []
    total_cells = 0
    all_props = []
    for image_id in sorted(by_image):
        maps_list = sorted(by_image[image_id], key=lambda m: m.level.stride)
        proposals = []
        for maps in maps_list:
            total_cells += maps.level.grid_w * maps.level.grid_h
            proposals.extend(dec.decode_anchors(maps, params))
        proposals.sort(key=lambda p: -p.score)
        if not args.no_nms:
            proposals = dec.polygon_nms(proposals, args.nms_iou)
        if args.top_n is not None:
            proposals = proposals[: args.top_n]
        all_props.extend(proposals)
        records.extend((image_id, p) for p in proposals)

    stats = dec.anchor_statistics(all_props, total_cells)
    print(f"active\t{stats.count}")
    print(f"cells\t{stats.cells_total}")
    print(f"fraction\t{stats.fraction:.4f}")
    counts, edges = stats.aspect_log2_hist
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        print(f"aspect_log2\t{lo:.2f}\t{hi:.2f}\t{c}")
    counts, edges = stats.angle_hist
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        print(f"angle\t{lo:.4f}\t{hi:.4f}\t{c}")
    if args.output:
        formats.write_detection_file(args.output, records)
    return 0


def cmd_nms(args) -> int:
    # checked here too, since polygon_nms never runs on a file without detections
    if not 0.0 < args.nms_iou < 1.0:
        raise ValueError(f"nms iou threshold must lie in (0, 1), got {args.nms_iou}")
    det_groups, det_errors = _read_detections(Path(args.detections))
    records = []
    for image_id in sorted(det_groups):
        for p in dec.polygon_nms(det_groups[image_id], args.nms_iou):
            records.append((image_id, p))
    formats.write_detection_file(args.output, records)
    _note(f"kept {len(records)} of {sum(len(v) for v in det_groups.values())} detections")
    return 1 if det_errors else 0


def _parse_inline_box(text: str) -> RotatedBox:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 5:
        raise ValueError(f"inline box needs cx,cy,w,h,theta; got {len(parts)} fields")
    return RotatedBox.make(*parts)


def cmd_iou(args) -> int:
    a = _parse_inline_box(args.box_a)
    b = _parse_inline_box(args.box_b)
    exact = polyiou.iou(a, b)
    approx = polyiou.iou_oracle(a, b, samples=args.samples, seed=args.seed)
    print(f"exact\t{exact:.6f}")
    print(f"oracle\t{approx:.6f}")
    return 0


def cmd_convert(args) -> int:
    records, errors = formats.read_annotation_file(Path(args.input), args.from_format)
    _report_parse_errors(args.input, errors)
    lossy = False
    lines = []
    for k, rec in enumerate(records):
        if args.to_format == "icdar15":
            lines.append(formats.format_icdar15_line(rec))
        elif args.to_format == "msra":
            if isinstance(rec.geometry, formats.Quad):
                lossy = True
            lines.append(formats.format_msra_line(rec, index=k))
        else:
            if not isinstance(rec.geometry, formats.Rect):
                lossy = True
            lines.append(formats.format_icdar13_line(rec))
    Path(args.output).write_text("\n".join(lines) + ("\n" if lines else ""))
    if lossy:
        _note("note: conversion via rotated-box fitting is lossy for this format pair")
    return 1 if errors else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use.

    Every list default is a tuple, so no call can change what the next one sees.
    """
    parser = argparse.ArgumentParser(
        prog="rboxkit",
        description="Rotated-box detection tooling: label generation, decoding, NMS, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gt_flags(p):
        p.add_argument("--gt", required=True, help="ground-truth directory (or file)")
        p.add_argument("--gt-format", required=True, choices=formats.GT_FORMATS)
        p.add_argument(
            "--include-difficult",
            action="store_true",
            help="score difficult boxes instead of treating them as don't-care",
        )

    def add_level_flags(p):
        p.add_argument("--image-width", type=int, default=1333)
        p.add_argument("--image-height", type=int, default=800)
        p.add_argument("--strides", type=int, nargs="+", default=DEFAULT_STRIDES)
        p.add_argument("--k", type=float, default=5.0)
        p.add_argument("--scales", type=float, nargs="+", default=(8, 16, 32, 64))
        p.add_argument("--ratios", type=float, nargs="+", default=(1, 2, 4))
        p.add_argument("--long-ratios", type=float, nargs="+", default=(3, 5, 7))
        p.add_argument(
            "--long-ratio-strides", type=int, nargs="+", default=DEFAULT_LONG_RATIO_STRIDES
        )

    p = sub.add_parser("evaluate", help="precision/recall/F over a detection file")
    p.add_argument("--detections", required=True)
    add_gt_flags(p)
    p.add_argument("--iou-thresholds", type=float, nargs="+", default=(0.5,))
    p.add_argument("--output", help="machine-readable metric file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("proposal-recall", help="TR at top-N proposals per image")
    p.add_argument("--proposals", required=True)
    add_gt_flags(p)
    p.add_argument("--top-n", type=int, nargs="+", default=(50, 100, 300))
    p.add_argument("--output", help="machine-readable metric file")
    p.set_defaults(func=cmd_proposal_recall)

    p = sub.add_parser("labelgen", help="write per-level target maps for ground truth")
    add_gt_flags(p)
    add_level_flags(p)
    p.add_argument("--sigma1", type=float, default=0.4)
    p.add_argument("--sigma2", type=float, default=0.5)
    p.add_argument("--output", required=True, help="output directory for .tmap files")
    p.set_defaults(func=cmd_labelgen)

    p = sub.add_parser("decode", help="decode maps into a detection file")
    p.add_argument("maps", nargs="+", help=".pmap/.tmap files named <image>.s<stride>.*")
    p.add_argument("--t-a", type=float, default=0.05)
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--nms-iou", type=float, default=0.3)
    p.add_argument("--no-nms", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("nms", help="suppress a detection file per image")
    p.add_argument("--detections", required=True)
    p.add_argument("--nms-iou", type=float, default=0.3)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_nms)

    p = sub.add_parser("iou", help="exact and sampled IoU of two inline boxes")
    p.add_argument("--box-a", required=True, help="cx,cy,w,h,theta")
    p.add_argument("--box-b", required=True, help="cx,cy,w,h,theta")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_iou)

    p = sub.add_parser("convert", help="rewrite annotations between formats")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="from_format", required=True, choices=formats.GT_FORMATS)
    p.add_argument("--to", dest="to_format", required=True, choices=formats.GT_FORMATS)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a box such as -5,0,10,10,0 for an option, so attach each box to its flag
    for k in range(len(argv) - 1, 0, -1):
        if argv[0] == "iou" and argv[k - 1] in ("--box-a", "--box-b"):
            argv[k - 1 : k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        _err(str(e))
        return 1
    except formats.ParseError as e:
        _err(str(e))
        return 1
    except ValueError as e:
        _err(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
