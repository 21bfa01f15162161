"""Command-line front end.

Three subcommands:

- ``verify``: run one named structural identity (or ``--all``) at a chosen
  Cartan type, prime, trial count and seed; writes a JSON report and exits
  0 on success, 1 on identity failure, 2 on configuration errors.
- ``compute``: evaluate a single object at exact rational inputs -- a word
  seed (with its bracket matrix), a mutated point, a plain or twisted
  evaluation matrix, or an Artin generator image.
- ``words``: explore the move graph between two words.

Words are comma-separated signed integers ("1,-1" is the positive letter 1
followed by the barred letter 1); mutation directions are "wire:counter"
pairs.  CLUSTER_DUAL_SEED overrides --rng-seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import evals, maps, seeds, words
from . import cartan as weyl
from .arith import DEFAULT_PRIME, TrialConfig
from .errors import ClusterDualError, NoPath, UnsupportedForType
from .words import DoubleWord

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2

MOVE_SETS = {
    "d": words.D_KINDS,
    "dhat": words.DHAT_KINDS,
    "mixed2": ("mixed2",),
    "dual": ("dual",),
    "all": words.ALL_MOVE_KINDS,
}


class _BadInput(Exception):
    """Malformed command-line or environment input, found while parsing it."""


def _parse_word(text: str, flag: str, rank: int) -> DoubleWord:
    try:
        word = DoubleWord.from_string(text)
        if all(abs(x) <= rank for x in word):
            return word
    except ValueError:
        pass
    raise _BadInput(f"{flag} needs comma-separated letters in +-1..{rank}, got {text!r}")


def _parse_point(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _BadInput(f"--point needs comma-separated rationals, got {text!r}") from None


def _parse_direction(text: str, ixs: list) -> tuple[int, int]:
    try:
        wire, counter = (int(t) for t in text.split(":"))
    except ValueError:
        raise _BadInput(f"--direction needs wire:counter, got {text!r}") from None
    if (wire, counter) not in ixs:
        raise _BadInput(f"--direction {text} is not a seed index of the word")
    return wire, counter


def _fail_config(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_CONFIG


def _emit(payload, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = _render_text(payload)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _BadInput(f"cannot write --out {out}: {exc.strerror or exc}") from None
    print(text)


def _render_text(payload) -> str:
    if isinstance(payload, dict) and "reports" in payload:
        lines = []
        for rep in payload["reports"]:
            status = "pass" if not rep["failures"] else f"FAIL ({len(rep['failures'])})"
            lines.append(f"{rep['name']:<14} {rep['cartan_type']:<3} "
                         f"trials={rep['trials']} skipped={rep['skipped']} {status}")
        return "\n".join(lines)
    return json.dumps(payload, indent=2, sort_keys=True)


def _rng_seed(args) -> int:
    env = os.environ.get("CLUSTER_DUAL_SEED")
    if env is None:
        return args.rng_seed
    try:
        return int(env)
    except ValueError:
        raise _BadInput(f"CLUSTER_DUAL_SEED must be an integer, got {env!r}") from None


def cmd_verify(args) -> int:
    rng_seed = _rng_seed(args)
    try:
        TrialConfig(args.prime, args.trials, rng_seed)
    except ValueError as exc:
        return _fail_config(str(exc))
    if args.prime < 2 ** 31 and not args.allow_small_prime:
        return _fail_config("prime below 2^31; pass --allow-small-prime to override")
    names = list(evals.CHECK_NAMES) if args.all else [args.identity]
    if not args.all and args.identity not in evals.CHECK_NAMES:
        return _fail_config(f"unknown identity {args.identity!r}; "
                            f"choose from {', '.join(evals.CHECK_NAMES)}")
    label = weyl.build_cartan(args.type).type_label
    reports = []
    for name in names:
        check = evals.IdentityCheck(name, label, trials=args.trials,
                                    prime=args.prime, rng_seed=rng_seed)
        try:
            reports.append(evals.check_identity(check).to_json())
        except UnsupportedForType as exc:
            if args.all:
                continue
            return _fail_config(str(exc))
    if not reports:
        return _fail_config(f"no check runs on {label}")
    payload = {"reports": reports,
               "config": {"type": label, "prime": args.prime,
                          "trials": args.trials, "rng_seed": rng_seed}}
    _emit(payload, args.out, args.format)
    failed = sum(len(r["failures"]) for r in reports)
    return EXIT_OK if failed == 0 else EXIT_FAILED


def _seed_json(seed: seeds.Seed) -> dict:
    ix = seed.indices
    return {
        "indices": [list(i) for i in ix],
        "frozen": sorted(list(i) for i in seed.frozen),
        "cover_L": sorted(list(i) for i in seed.cover_left),
        "cover_R": sorted(list(i) for i in seed.cover_right),
        "epsilon": [[[seed.eps(a, b).numerator, seed.eps(a, b).denominator]
                     for b in ix] for a in ix],
        "d": [seed.d(i) for i in ix],
    }


def _matrix_json(m) -> list:
    return [[[x.numerator, x.denominator] for x in row] for row in m.rows]


def cmd_compute(args) -> int:
    cdata = weyl.build_cartan(args.type)
    word = _parse_word(args.word, "--word", cdata.rank)
    target = args.what
    if target == "seed":
        s = seeds.seed_for_word(word, cdata)
        payload = {"word": word.to_string(), "seed": _seed_json(s),
                   "bracket": _seed_json(seeds.bracket_seed(s))}
        _emit(payload, args.out, args.format)
        return EXIT_OK
    point = _parse_point(args.point) if args.point else None
    ixs = words.seed_indices(word, cdata.rank)
    if point is None or len(point) != len(ixs):
        return _fail_config(f"need --point with {len(ixs)} coordinates for "
                            f"{word.to_string()}")
    values = dict(zip(ixs, point))
    try:
        if target == "ev":
            payload = {"matrix": _matrix_json(evals.ev(word, cdata, values))}
        elif target == "ev-hat":
            ctx = evals.make_context(word, cdata)
            payload = {"matrix": _matrix_json(evals.ev_hat(ctx, values)),
                       "class": {"v": list(ctx.v.reduced_word()),
                                 "w1": list(ctx.w1.reduced_word()),
                                 "w2": list(ctx.w2.reduced_word())}}
        elif target == "mutate":
            if not args.direction:
                return _fail_config("mutate needs --direction wire:counter")
            direction = _parse_direction(args.direction, ixs)
            s = seeds.seed_for_word(word, cdata)
            out = maps.mutate_point(s, values, direction)
            payload = {"point": [str(out[i]) for i in ixs]}
        elif target == "artin-T":
            tmap = maps.artin_T(word, args.j, cdata)
            out = tmap.apply(values)
            payload = {"point": [str(out[i]) for i in ixs]}
        else:
            return _fail_config(f"unknown compute target {target!r}")
    except ClusterDualError as exc:
        return _fail_config(f"{type(exc).__name__}: {exc}")
    _emit(payload, args.out, args.format)
    return EXIT_OK


def cmd_words(args) -> int:
    cdata = weyl.build_cartan(args.type)
    source = _parse_word(args.src, "--from", cdata.rank)
    target = _parse_word(args.dst, "--to", cdata.rank)
    kinds = MOVE_SETS.get(args.moves)
    if kinds is None:
        return _fail_config(f"unknown move set {args.moves!r}")
    try:
        path = words.move_path(source, target, cdata, kinds)
    except NoPath as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_FAILED
    chain = []
    cur = source
    for mv in path:
        nxt = words.apply_move(cur, mv, cdata)
        chain.append({"kind": mv.kind, "position": mv.pos,
                      "letters_before": cur.to_string(),
                      "letters_after": nxt.to_string()})
        cur = nxt
    _emit({"path": chain, "length": len(chain)}, args.out, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluster-dual",
        description="Exact verification of cluster torus combinatorics "
                    "for dual Poisson-Lie groups")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", default="A1", help="Cartan type, e.g. A1, A2, B2, G2")
    common.add_argument("--out", default=None, help="write the JSON payload here")
    common.add_argument("--format", choices=("json", "text"), default="json")

    ver = sub.add_parser("verify", parents=[common],
                         help="run structural identity checks")
    ver.add_argument("identity", nargs="?", default=None,
                     help="check name, e.g. PGL2_TABLE, BRAID")
    ver.add_argument("--all", action="store_true", help="run the whole suite")
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    ver.add_argument("--allow-small-prime", action="store_true")
    ver.add_argument("--rng-seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    comp = sub.add_parser("compute", parents=[common],
                          help="evaluate one object at exact inputs")
    comp.add_argument("what", choices=("seed", "ev", "ev-hat", "mutate", "artin-T"))
    comp.add_argument("--word", required=True)
    comp.add_argument("--point", default=None,
                      help="comma-separated exact rationals")
    comp.add_argument("--direction", default=None, help="wire:counter")
    comp.add_argument("--j", type=int, default=1, help="Artin generator index")
    comp.set_defaults(func=cmd_compute)

    wrd = sub.add_parser("words", parents=[common], help="explore word moves")
    wrd.add_argument("action", choices=("path",))
    wrd.add_argument("--from", dest="src", required=True)
    wrd.add_argument("--to", dest="dst", required=True)
    wrd.add_argument("--moves", default="all",
                     help=" | ".join(MOVE_SETS))
    wrd.set_defaults(func=cmd_words)
    return parser


# Flags whose value may begin with a minus sign, as in "--word -1,1".
_SIGNED_VALUE_FLAGS = ("--word", "--from", "--to", "--point")


def _glue_signed_values(argv: list[str]) -> list[str]:
    """Spell "--word -1,1" as "--word=-1,1": argparse reads a value that
    starts with a minus sign and is not a single number as an unknown
    option, and would reject the flag for lacking its argument."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_signed_values(sys.argv[1:] if argv is None else argv))
    if args.command == "verify" and not args.all and args.identity is None:
        return _fail_config("name an identity or pass --all")
    try:
        return args.func(args)
    except _BadInput as exc:
        return _fail_config(str(exc))
    except ClusterDualError as exc:
        return _fail_config(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
