"""Command-line surface: one subcommand per verification task.

Every run prints a JSON report to stdout and a human summary to stderr; the
exit code is 0 when every check passed, 1 on verification failure and 2 on
usage errors.  Identical invocations (flags and seed) produce byte-identical
reports, independent of --jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterable, List, Tuple

from .fields import DEFAULT_PRIME, FieldError, PrimeField, Rationals, field_echo
from .params import ParameterArray, validate_parameter_array
from .report import VerificationReport
from .suites import run_sweep
from .tables import load_table
from .tdsystem import roundtrip
from .zigzag import enumerate_convex_spanning, enumerate_feasible, enumerate_zz, word_text

USAGE_EXIT = 2
FAIL_EXIT = 1
WORDS = "\0words\0"  # the zz.words detail until _emit streams the words in
WORDS_CHUNK = 1 << 16  # characters of word text written at a time


def _field(args):
    """The field of --field and --prime; a non-prime --prime fails here."""
    if args.field == "qq":
        if args.prime is not None:
            raise FieldError("--prime only applies to --field fp")
        return Rationals()
    return PrimeField(DEFAULT_PRIME if args.prime is None else args.prime)


def _add_sweep(sub, name: str, help_text: str, sweep: str = None,
               d_required: bool = True) -> argparse.ArgumentParser:
    """A subcommand running the sweep `sweep` (default: `name`)."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--d", type=int, required=d_required, help="diameter (0..5)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--field", choices=("qq", "fp"), default="fp")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="master seed; seeds differing "
                   "only in their low bits share trial seeds: use k * 2^32 for independent runs")
    p.add_argument("--assets", type=Path, default=None, help="override bundled tables")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", type=Path, default=None, help="also write the JSON here")
    p.set_defaults(run=_run_sweep, sweep=sweep or name)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tdcheck",
        description="Exact-arithmetic verification of bundled module tables, "
        "parameter arrays and zigzag-word experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-params", help="validate a parameter array JSON file")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--field", choices=("qq", "fp"), default="qq")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(run=_run_check_params)

    _add_sweep(sub, "verify-appendix", "relation sweep on random contexts")
    _add_sweep(sub, "mu-certificate", "weight-certificate chains only")
    _add_sweep(sub, "shape", "idempotent rank profile on random contexts")

    zz = sub.add_parser("zz", help="zigzag word tooling").add_subparsers(
        dest="zz_command", required=True
    )
    p = zz.add_parser("enumerate", help="list zigzag words")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--feasible", action="store_true", help="feasible words only")
    p.add_argument("--exclude-r", type=int, default=None)
    p.add_argument("--exclude-s", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(run=_run_zz_enumerate)
    _add_sweep(zz, "rank", "rank of feasible-word images of phi", sweep="zz-rank")

    p = sub.add_parser("convex", help="convex spanning sequences for one r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(run=_run_convex)

    tds = sub.add_parser("tds", help="tridiagonal-system round trips").add_subparsers(
        dest="tds_command", required=True
    )
    p = _add_sweep(tds, "roundtrip", "parameter array -> module -> array",
                   sweep="tds-roundtrip", d_required=False)
    p.add_argument(
        "--input", type=Path, default=None,
        help="round-trip this parameter array JSON instead of random arrays",
    )
    # None tells a given --trials or --jobs from none, which --input refuses
    p.set_defaults(run=_run_tds_roundtrip, trials=None, jobs=None)

    return ap


def _check_output(output: Path) -> None:
    """Refuse an --output path that cannot be written, before any work runs."""
    if output is not None and (
        output.is_dir()
        or not output.parent.is_dir()
        or not os.access(output if output.exists() else output.parent, os.W_OK)
    ):
        raise OSError(f"cannot write --output {output}")


def _chunks(words: Iterable[str]) -> Iterable[List[str]]:
    """The words in order, in lists of about WORDS_CHUNK characters."""
    chunk, size = [], 0
    for word in words:
        chunk.append(word)
        size += len(word)
        if size >= WORDS_CHUNK:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _emit(report: VerificationReport, output: Path = None, words: Iterable[str] = None) -> int:
    """Print the report's JSON, also to --output, then its summary to stderr.

    `words`, when given, are the texts of the zz.words detail, which the
    report holds as the placeholder WORDS.  They are written as they come, a
    chunk at a time, each chunk also echoed to stderr one word per line, so
    no copy of them all is ever made.  JSON escapes character by character,
    so a chunk's inner JSON, escaped once more, is its slice of the detail.
    """
    text = report.to_json()
    with contextlib.ExitStack() as stack:
        sinks = [sys.stdout]
        if output is not None:
            sinks.append(stack.enter_context(output.open("w")))

        def write(piece: str):
            for sink in sinks:
                sink.write(piece)

        if words is None:
            write(text + "\n")
        else:
            head, tail = text.split(json.dumps(WORDS))
            write(head + '"[')
            sep = ""
            for chunk in _chunks(words):
                write(sep + json.dumps(json.dumps(chunk, separators=(",", ":"))[1:-1])[1:-1])
                sys.stderr.write("\n".join(chunk) + "\n")
                sep = ","
            write(']"' + tail + "\n")
    print(report.summary(), file=sys.stderr)
    return 0 if report.overall else FAIL_EXIT


def _run_sweep(args) -> VerificationReport:
    return run_sweep(
        args.sweep, args.d, _field(args), args.seed, args.trials, args.assets, args.jobs
    )


def _run_tds_roundtrip(args) -> VerificationReport:
    if args.input is None:
        if args.d is None:
            raise ValueError("tds roundtrip needs --d or --input")
        args.trials = 10 if args.trials is None else args.trials
        args.jobs = 1 if args.jobs is None else args.jobs
        return _run_sweep(args)
    for flag in ("d", "trials", "jobs"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to --input")
    field = _field(args)
    pa = ParameterArray.from_json(args.input.read_text(), field)
    rep = roundtrip(pa, field, load_table(pa.d, args.assets))
    rep.seed = args.seed
    return rep


def _run_check_params(args) -> VerificationReport:
    field = _field(args)
    rep = VerificationReport(
        command="check-params", field=field_echo(field), seed=args.seed, trials=1
    )
    try:
        pa = ParameterArray.from_json(args.input.read_text(), field)
    except ValueError as err:
        rep.add("params.parse", False, f"malformed input: {err}")
        return rep
    rep.add("params.parse", True, f"d = {pa.d}")
    result = validate_parameter_array(pa, field)
    if result.failures:
        for cid, detail in result.failures:
            rep.add(cid, False, detail)
    else:
        rep.add("params.admissible", True, "conditions (i)-(iii) hold")
    for cid in result.vacuous:
        rep.add(f"{cid} [vacuous]", True, "condition is vacuous at this diameter")
    return rep


def _run_zz_enumerate(args) -> Tuple[VerificationReport, Iterable[str]]:
    if args.feasible:
        for flag in ("exclude_r", "exclude_s", "max_len"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} does not apply to --feasible")
        found = enumerate_feasible(args.d)
        counts, words = dict(Counter(map(len, found))), map(word_text, found)
    else:
        if args.max_len is not None and args.max_len < 0:
            raise ValueError("--max-len must be nonnegative")
        exclude_s = args.exclude_s if args.exclude_s is not None else args.d
        counts, lengths = enumerate_zz(args.d, args.exclude_r or 0, exclude_s, max_len=args.max_len)
        words = chain.from_iterable(lengths)
    rep = VerificationReport(command="zz-enumerate", field={"kind": "none"}, trials=1)
    kind = "feasible" if args.feasible else "zz"
    rep.add(
        f"zz.enumerate.{kind}.d{args.d}",
        True,
        f"{sum(counts.values())} words; by length {counts}",
    )
    rep.add("zz.words", True, WORDS)
    return rep, words


def _run_convex(args) -> VerificationReport:
    seqs = enumerate_convex_spanning(args.r)
    rep = VerificationReport(command="convex", field={"kind": "none"}, trials=1)
    rep.add(f"convex.r{args.r}", True, f"{len(seqs)} sequences")
    sys.stderr.write("".join(f"{list(s)}\n" for s in seqs))
    return rep


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code not in (0, None) else 0
    try:
        _check_output(args.output)
        result = args.run(args)  # zz enumerate returns its words beside the report
        report, words = result if isinstance(result, tuple) else (result, None)
        return _emit(report, args.output, words)
    except (OSError, ValueError) as err:
        print(f"tdcheck: {err}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
