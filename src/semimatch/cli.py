"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure.
Each command checks that every output's directory exists before it computes
anything. Every output file is written atomically (``imageio.atomic_write``:
temp file + rename, the temp file removed on failure), so a failing run
leaves no partial artifacts.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .config import load_settings
from .evaluate import (
    DirectoryPairs,
    bench_pipeline,
    eval_homography_dir,
    match_dump_csv,
    pair_paths,
    timings_csv,
    write_homography_csv,
)
from .backbone import COARSE_STRIDE
from .imageio import ImageFormatError, atomic_write, load_image, save_pgm, save_ppm
from .matching import MODES
from .pipeline import Matcher
from .synth import SynthConfig, render_pair
from .tensor import NumericError, set_finite_checks
from .train import DivergenceError, loss_curve_csv, train_toy
from .viz import render_matches
from .weights import WeightFormatError, load_matcher, save_matcher

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="semimatch", description="semi-dense image matching at desk scale")
    parser.add_argument("--version", action="version", version=f"semimatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="match two images and dump correspondences")
    p.add_argument("--image-a", required=True)
    p.add_argument("--image-b", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--tau", type=float, default=None, help="match probability threshold (full mode only)")
    p.add_argument("--out", default=None, help="match dump CSV path")
    p.add_argument("--viz", default=None, help="side-by-side PPM with match lines")

    p = sub.add_parser("synth", help="generate synthetic training pairs")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-toy", help="train a toy model on synthetic pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="flat key=value settings file")
    p.add_argument("--out", required=True, help="output weight container")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--curve", default=None, help="loss curve CSV path")

    p = sub.add_parser("eval-homography", help="corner-reprojection AUC over a pair directory")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="per-pair CSV path")

    p = sub.add_parser("bench", help="per-stage pipeline timing")
    p.add_argument("--image-a", required=True)
    p.add_argument("--image-b", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--out", default=None, help="timings CSV path")
    return parser


def check_output_dirs(*paths: str | None) -> None:
    """Raise ``FileNotFoundError`` (exit 2) for an output path whose directory
    does not exist, so a typo fails before any compute, not after it."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"no directory for output {path!r}")


def cmd_match(args) -> int:
    if args.tau is not None and args.mode == "optimized":
        raise UsageError("--tau applies to --mode full; optimized mode keeps every mutual nearest neighbour")
    check_output_dirs(args.out, args.viz)
    matcher, model = load_matcher(args.weights)
    image_a = load_image(args.image_a)
    image_b = load_image(args.image_b)
    result = matcher.match_pair(image_a, image_b, mode=args.mode, tau=args.tau)
    print(f"{len(result.coarse)} coarse matches, {len(result.fine)} fine matches ({args.mode} mode)")
    if args.out:
        atomic_write(args.out, match_dump_csv(result, model))
    if args.viz:
        canvas = render_matches(image_a, image_b, result)
        save_ppm(args.viz, canvas)
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    if args.size < COARSE_STRIDE or args.size % COARSE_STRIDE:
        raise UsageError(f"--size must be a positive multiple of {COARSE_STRIDE}, got {args.size}")
    os.makedirs(args.out, exist_ok=True)
    cfg = SynthConfig(size=args.size)
    for index in range(args.count):
        image_a, image_b, h = render_pair(args.seed, index, cfg)
        path_a, path_b, path_h = pair_paths(args.out, index)
        save_pgm(path_a, image_a)
        save_pgm(path_b, image_b)
        write_homography_csv(path_h, h)
    print(f"wrote {args.count} pairs to {args.out}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    settings = load_settings(args.config)
    check_output_dirs(args.out, args.curve)
    flags = {key: getattr(args, key) for key in ("steps", "seed") if getattr(args, key) is not None}
    train = replace(settings.train, **flags)
    dataset = DirectoryPairs(args.data)
    matcher = Matcher(settings.matcher, seed=train.seed)
    curve = train_toy(matcher, dataset, train)
    save_matcher(args.out, matcher)
    if args.curve:
        atomic_write(args.curve, loss_curve_csv(curve))
    first, last = curve[0], curve[-1]
    print(f"trained {len(curve)} steps: total {first.total:.4f} -> {last.total:.4f}")
    print(f"weights written to {args.out}")
    return EXIT_OK


def cmd_eval_homography(args) -> int:
    check_output_dirs(args.out)
    matcher, _ = load_matcher(args.weights)
    report = eval_homography_dir(matcher, args.data, mode=args.mode, seed=args.seed)
    print(report.summary())
    if args.out:
        atomic_write(args.out, report.csv())
    return EXIT_OK


def cmd_bench(args) -> int:
    check_output_dirs(args.out)
    matcher, _ = load_matcher(args.weights)
    image_a = load_image(args.image_a)
    image_b = load_image(args.image_b)
    timings = bench_pipeline(
        matcher, image_a, image_b, mode=args.mode,
        repetitions=args.repetitions, warmup=args.warmup,
    )
    print(timings.summary())
    if args.out:
        atomic_write(args.out, timings_csv(timings))
    return EXIT_OK


_COMMANDS = {
    "match": cmd_match,
    "synth": cmd_synth,
    "train-toy": cmd_train_toy,
    "eval-homography": cmd_eval_homography,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    previous_checks = set_finite_checks(True)  # NaN/Inf anywhere -> exit 3
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        if isinstance(exc, (WeightFormatError, ImageFormatError)):
            print(f"format error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, DivergenceError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        set_finite_checks(previous_checks)


if __name__ == "__main__":
    raise SystemExit(main())
