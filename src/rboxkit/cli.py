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

import numpy as np

from . import decode as dec
from . import evalkit, formats, polyiou, targets
from .geom import Detections, RotatedBox, _corners, _image_codes

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


def _load_gt_map(gt: Path, fmt: str, include_difficult: bool):
    """Per-image ground truth plus the total parse-error count.

    ``gt`` is a directory of ``*.txt`` files or one file. An image's id is
    its file's stem, with a ``gt_`` prefix stripped; two files with one id
    are rejected.
    """
    if gt.is_dir():
        paths = sorted(gt.glob("*.txt"))
    elif gt.is_file():
        paths = [gt]
    else:
        raise ValueError(f"ground truth {gt} is neither a directory nor a file")
    files = {}
    for p in paths:
        image_id = p.stem[3:] if p.stem.startswith("gt_") else p.stem
        if not image_id:
            raise ValueError(f"ground truth file {p} gives an empty image id")
        if image_id in files:
            raise ValueError(
                f"ground truth files {files[image_id]} and {p} both give image id {image_id!r}"
            )
        files[image_id] = p
    gt_map = {}
    n_errors = 0
    for image_id, path in files.items():
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
    for image_id in sorted(set(det_groups) - set(gt_map)):
        _note(f"note: no ground-truth file for image {image_id!r}; counted as background")
    none = Detections((), (), ())
    dets = [det_groups.get(i, none) for i in image_ids]
    rows = evalkit.sweep_report(dets, [gt_map.get(i, []) for i in image_ids], args.iou_thresholds)
    print(evalkit.format_eval_table(rows))
    if args.output:
        targets._write_file(args.output, [f"{line}\n".encode() for line in evalkit.eval_machine_lines(rows)])
    return 1 if det_errors or gt_errors else 0


def cmd_proposal_recall(args) -> int:
    det_groups, det_errors = _read_detections(Path(args.proposals))
    gt_map, gt_errors = _load_gt_map(Path(args.gt), args.gt_format, args.include_difficult)
    none, image_ids = Detections((), (), ()), sorted(gt_map)
    props = [det_groups.get(i, none) for i in image_ids]
    report = evalkit.proposal_recall(props, [gt_map[i] for i in image_ids], n_values=tuple(args.top_n))
    print(evalkit.format_recall_table(report))
    if args.output:
        targets._write_file(args.output, [f"{line}\n".encode() for line in evalkit.recall_machine_lines(report)])
    return 1 if det_errors or gt_errors else 0


def _in_bounds(boxes: list[RotatedBox], width: float, height: float) -> np.ndarray:
    """Whether all four corners of each box, as ``geom.box_corners`` gives them, lie in the image."""
    x, y = _corners([(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes])
    return (x.min(1) >= 0) & (y.min(1) >= 0) & (x.max(1) <= width) & (y.max(1) <= height)


def cmd_labelgen(args) -> int:
    # a long-ratio stride given on the command line must name a level; the default may name none
    for s in args.long_ratio_strides or ():
        if s not in args.strides:
            raise ValueError(f"long-ratio stride {s} is not one of the strides {tuple(args.strides)}")
    levels = targets.make_levels(
        args.image_width,
        args.image_height,
        strides=tuple(args.strides),
        k=args.k,
        long_ratio_strides=tuple(args.long_ratio_strides or DEFAULT_LONG_RATIO_STRIDES),
    )
    shrink = targets.ShrinkParams(args.sigma1, args.sigma2)
    candidates = targets.ShapeCandidateSet(
        scales=tuple(args.scales),
        ratios=tuple(args.ratios),
        long_ratios=tuple(args.long_ratios),
    )
    # difficult boxes are trained on; only don't-care regions are left out
    gt_map, n_errors = _load_gt_map(Path(args.gt), args.gt_format, include_difficult=True)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for image_id in sorted(gt_map):
        boxes = [item.box for item in gt_map[image_id] if not item.dont_care]
        inside = _in_bounds(boxes, args.image_width, args.image_height)
        for b in (b for b, ok in zip(boxes, inside) if not ok):
            _note(f"warning: {image_id}: box at ({b.cx:.0f}, {b.cy:.0f}) out of bounds, skipped")
        boxes = [b for b, ok in zip(boxes, inside) if ok]
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
    """A ``.pmap`` file, or the ideal predictions of a ``.tmap`` one; the file is read once."""
    data = targets._read_file(path)
    if data[:4].tobytes() == targets.TARGET_MAGIC:
        return dec.ideal_predictions(targets.load_target_maps(data))
    return dec.load_prediction_maps(data)


def cmd_decode(args) -> int:
    if args.top_n is not None and args.top_n <= 0:
        raise ValueError(f"top-N must be positive, got {args.top_n}")
    # (image id, stride) -> the file that gave it and its maps
    files: dict[tuple[str, int], tuple[Path, dec.PredictionMaps]] = {}
    for f in args.maps:
        path = Path(f)
        # labelgen writes {image_id}.s{stride}.tmap, so the id is the name up to its last two dots
        image_id = path.name.rsplit(".", 2)[0]
        maps = _sniff_maps(path)
        key = image_id, maps.level.stride
        if key in files:
            raise ValueError(f"map files {files[key][0]} and {path} both give image {image_id!r} at stride {key[1]}")
        files[key] = path, maps

    keys = sorted(files)
    levels = [dec.decode_anchors(files[k][1], args.t_a) for k in keys]
    total_cells = sum(m.level.grid_w * m.level.grid_h for _, m in files.values())
    ids = np.array([image_id for image_id, _ in keys], dtype=object).repeat([len(d) for d in levels])
    scores = np.concatenate([d.scores for d in levels])
    # one stable sort by image, then score: ties keep stride, then cell order
    order = np.lexsort((-scores, _image_codes(ids)))
    records = Detections(ids, np.concatenate([d.boxes for d in levels]), scores).take(order)
    if not args.no_nms:
        records = dec.polygon_nms(records, args.nms_iou)
    if args.top_n is not None:
        # images come in sorted-id order, so a row's rank in its image counts from its code's first row
        images = _image_codes(records.image_ids)
        records = records.take(np.flatnonzero(np.arange(len(records)) - np.searchsorted(images, images) < args.top_n))

    stats = dec.anchor_statistics(records, total_cells)
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
    records, errors = formats.read_detection_file(Path(args.detections))
    det_errors = _report_parse_errors(args.detections, errors)
    kept = dec.polygon_nms(records, args.nms_iou)
    formats.write_detection_file(args.output, kept)
    _note(f"kept {len(kept)} of {len(records)} detections")
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
    targets._write_file(args.output, [f"{line}\n".encode() for line in lines])
    if lossy:
        _note("note: conversion via rotated-box fitting is lossy for this format pair")
    return 1 if errors else 0


def _number(kind):
    """The argparse type for ``kind``; its error omits the space :func:`main` puts before a negative value."""

    def convert(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text.strip()!r}") from None

    return convert


_INT, _FLOAT = _number(int), _number(float)


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

    def add_gt_flags(p, difficult_flag=True):
        p.add_argument("--gt", required=True, help="ground-truth directory (or file)")
        p.add_argument("--gt-format", required=True, choices=formats.GT_FORMATS)
        if difficult_flag:
            p.add_argument(
                "--include-difficult",
                action="store_true",
                help="score difficult boxes instead of treating them as don't-care",
            )

    def add_level_flags(p):
        p.add_argument("--image-width", type=_INT, default=1333)
        p.add_argument("--image-height", type=_INT, default=800)
        p.add_argument("--strides", type=_INT, nargs="+", default=DEFAULT_STRIDES)
        p.add_argument("--k", type=_FLOAT, default=5.0)
        p.add_argument("--scales", type=_FLOAT, nargs="+", default=(8, 16, 32, 64))
        p.add_argument("--ratios", type=_FLOAT, nargs="+", default=(1, 2, 4))
        p.add_argument("--long-ratios", type=_FLOAT, nargs="+", default=(3, 5, 7))
        # None when not given: labelgen then uses DEFAULT_LONG_RATIO_STRIDES, which may name no level
        p.add_argument("--long-ratio-strides", type=_INT, nargs="+", default=None)

    p = sub.add_parser("evaluate", help="precision/recall/F over a detection file")
    p.add_argument("--detections", required=True)
    add_gt_flags(p)
    p.add_argument("--iou-thresholds", type=_FLOAT, nargs="+", default=(0.5,))
    p.add_argument("--output", help="machine-readable metric file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("proposal-recall", help="TR at top-N proposals per image")
    p.add_argument("--proposals", required=True)
    add_gt_flags(p)
    p.add_argument("--top-n", type=_INT, nargs="+", default=(50, 100, 300))
    p.add_argument("--output", help="machine-readable metric file")
    p.set_defaults(func=cmd_proposal_recall)

    p = sub.add_parser("labelgen", help="write per-level target maps for ground truth")
    add_gt_flags(p, difficult_flag=False)
    add_level_flags(p)
    p.add_argument("--sigma1", type=_FLOAT, default=0.4)
    p.add_argument("--sigma2", type=_FLOAT, default=0.5)
    p.add_argument("--output", required=True, help="output directory for .tmap files")
    p.set_defaults(func=cmd_labelgen)

    p = sub.add_parser("decode", help="decode maps into a detection file")
    p.add_argument("maps", nargs="+", help=".pmap/.tmap files named <image>.s<stride>.*")
    p.add_argument("--t-a", type=_FLOAT, default=0.05)
    p.add_argument("--top-n", type=_INT, default=None)
    p.add_argument("--nms-iou", type=_FLOAT, default=0.3)
    p.add_argument("--no-nms", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("nms", help="suppress a detection file per image")
    p.add_argument("--detections", required=True)
    p.add_argument("--nms-iou", type=_FLOAT, default=0.3)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_nms)

    p = sub.add_parser("iou", help="exact and sampled IoU of two inline boxes")
    p.add_argument("--box-a", required=True, help="cx,cy,w,h,theta")
    p.add_argument("--box-b", required=True, help="cx,cy,w,h,theta")
    p.add_argument("--samples", type=_INT, default=1_000_000)
    p.add_argument("--seed", type=_INT, default=0)
    p.set_defaults(func=cmd_iou)

    p = sub.add_parser("convert", help="rewrite annotations between formats")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="from_format", required=True, choices=formats.GT_FORMATS)
    p.add_argument("--to", dest="to_format", required=True, choices=formats.GT_FORMATS)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def _is_negative_number(arg: str) -> bool:
    """Whether ``arg`` is a negative number, or a comma list of numbers that starts with one."""
    if not arg.startswith("-"):
        return False
    try:
        for part in arg.split(","):
            float(part)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a negative value such as -1e3 or the box -5,0,10,10,0 for an
    # option, so a leading space, which float() and int() skip, marks it as a value
    args = build_parser().parse_args([f" {a}" if _is_negative_number(a) else a for a in argv])
    try:
        return args.func(args)
    except OSError as e:
        _err(str(e))
        return 1
    except formats.ParseError as e:
        _err(str(e))
        return 1
    except ValueError as e:
        _err(str(e))
        return 2
    except MemoryError as e:
        _err(f"out of memory: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
