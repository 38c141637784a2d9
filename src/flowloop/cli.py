"""Command-line interface.

Exit codes: 0 success, 1 bad input (parse/validation), 2 failed
verification (internal contract, a verify suite reporting failures, or a
stabilization guard firing at a --cap set below what the word needs).
`template` and `verify` are imported only by the commands that use them.
"""

import argparse
import json
import sys

from . import braid, lawrence
from .errors import InputError, ParseError, VerificationError
from .zhat import zhat as _zhat


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own codes; route errors through ours instead
    def error(self, message):
        raise ParseError(message)


def _series_json(series):
    out = []
    for xh in sorted(series.terms):
        q = series.terms[xh]
        out.append({
            "x_exp_half": xh,
            "coeff": [
                {"q_exp_half": e, "value": str(q.terms[e])}
                for e in sorted(q.terms)
            ],
        })
    return out


def _print(payload, as_json, text_lines):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _word_head(word, stats):
    """The text lines and the JSON fields every word command starts with."""
    text = braid.render_word(word)
    return ([f"braid: {text}", f"writhe: {stats.writhe}"],
            {"braid": text, "n": word.n, "writhe": stats.writhe})


def _zhat_of(args):
    """The word of args and its zhat result: the one Phi route of both
    the zhat and the phi command."""
    word = braid.parse_braid(args.braid)
    return word, _zhat(word, args.order, cap=args.cap)


def _cmd_zhat(args):
    word, res = _zhat_of(args)
    sign, qh, xh = res.prefactor
    pref = f"{sign} * q^({qh}/2) * x^({xh}/2)"
    lines, payload = _word_head(word, res.stats)
    lines.append(f"prefactor: {pref}")
    lines.append(f"phi: {res.phi.render(tail=True)}")
    lines.append(f"zhat: {res.zhat.render(tail=True)}")
    for note in res.notes:
        lines.append(f"note: {note}")
    payload.update({
        "prefactor": {"sign": sign, "q_exp_half": qh, "x_exp_half": xh},
        "phi": _series_json(res.phi),
        "zhat": _series_json(res.zhat),
    })
    _print(payload, args.format == "json", lines)
    return 0


def _cmd_phi(args):
    word, res = _zhat_of(args)
    lines, payload = _word_head(word, res.stats)
    lines.append(f"phi: {res.phi.render(tail=True)}")
    payload["phi"] = _series_json(res.phi)
    _print(payload, args.format == "json", lines)
    return 0


def _cmd_trace(args):
    word = braid.parse_braid(args.braid)
    stats = braid.analyze(word)
    convention = (
        lawrence.UNDER if args.convention == "under" else lawrence.HALF
    )
    traces = lawrence.graded_trace(word, args.mmax, convention)
    lines, payload = _word_head(word, stats)
    for m, tr in enumerate(traces):
        lines.append(f"m={m}: {tr.render()}")
    if args.dump:
        for m in range(args.mmax + 1):
            lines.append(f"weight m={m}:")
            lines.append(lawrence.rep_matrix(word, m, convention).dump())
    payload.update({
        "convention": args.convention,
        "traces": [
            {"m": m, "series": _series_json(tr)}
            for m, tr in enumerate(traces)
        ],
    })
    _print(payload, args.format == "json", lines)
    return 0


def _cmd_alexander(args):
    word = braid.parse_braid(args.braid)
    stats = braid.analyze(word)
    delta, inv = braid.alexander_classical(word, args.order)
    lines, payload = _word_head(word, stats)
    lines.append(f"Delta: {delta.render()}")
    lines.append(f"inverse: {inv.render(tail=True)}")
    payload.update({
        "delta": _series_json(delta),
        "inverse": _series_json(inv),
    })
    _print(payload, args.format == "json", lines)
    return 0


def _cmd_orbits(args):
    from . import template

    word = braid.parse_braid(args.braid)
    stats = braid.analyze(word)
    tpl = template.build_template(word)
    orbits = template.enumerate_orbits(tpl, args.max_degree)
    zeta = template.zeta_classical(word, args.max_degree)
    lines, payload = _word_head(word, stats)
    lines.append(f"strips: {len(tpl.strips)}")
    lines.append(f"branch-lines: {tpl.branch_count}")
    lines.append(f"nullity: {tpl.nullity}")
    if args.dump:
        lines.append(tpl.dump())
    lines.append("orbits:")
    for orbit in orbits:
        lines.append(orbit.render())
    lines.append(f"zeta: {zeta.render(tail=True)}")
    payload.update({
        "strips": [
            {
                "id": s.sid, "src": s.src, "dst": s.dst,
                "mark": s.mark, "twist": s.twist,
            }
            for s in tpl.strips
        ],
        "nullity": tpl.nullity,
        "orbits": [
            {"degree": o.degree, "sign": o.sign, "strips": list(o.strips)}
            for o in orbits
        ],
        "zeta": _series_json(zeta),
    })
    _print(payload, args.format == "json", lines)
    return 0


def _cmd_verify(args):
    from . import verify

    results = verify.run_suite(args.suite)
    passed = sum(1 for r in results if r.ok)
    lines = [r.render() for r in results]
    lines.append(f"passed {passed}/{len(results)} checks")
    payload = {
        "suite": args.suite,
        "ok": passed == len(results),
        "results": [
            {
                "suite": r.suite, "name": r.name,
                "ok": r.ok, "detail": r.detail, "seconds": r.seconds,
            }
            for r in results
        ],
    }
    _print(payload, args.format == "json", lines)
    return 0 if passed == len(results) else 2


class _SuiteNames:
    """The choices of `verify --suite`, read from flowloop.verify only when
    argparse checks a value or prints help, so no other command loads it."""

    def __iter__(self):
        from . import verify

        return iter(verify.suite_names())

    def __contains__(self, name):
        return name in tuple(self)


def _add_common(sub, braid_arg=True):
    if braid_arg:
        sub.add_argument(
            "--braid", required=True,
            help="braid word, e.g. '1 -2 1 -2' or 'n=4; 1 -2 1 -3 -2'",
        )
    sub.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )


def build_parser():
    parser = _Parser(
        prog="flowloop",
        description="Exact flow-loop counts and BPS q-series for "
                    "homogeneous braid closures",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, about, fn in (("zhat", "loop count and BPS series", _cmd_zhat),
                            ("phi", "loop count only", _cmd_phi)):
        p = subs.add_parser(name, help=about)
        _add_common(p)
        p.add_argument("--order", type=int, default=5,
                       help="truncation order in x (default 5)")
        p.add_argument("--cap", type=int, default=None,
                       help="override the label/weight cutoff "
                            "(default: order)")
        p.set_defaults(fn=fn)

    p = subs.add_parser("trace", help="weight-graded braid traces")
    _add_common(p)
    p.add_argument("--mmax", type=int, default=3,
                   help="largest weight (default 3)")
    p.add_argument("--convention", choices=("half", "under"),
                   default="half")
    p.add_argument("--dump", action="store_true",
                   help="also print the sparse matrices")
    p.set_defaults(fn=_cmd_trace)

    p = subs.add_parser("alexander", help="dual classical invariant")
    _add_common(p)
    p.add_argument("--order", type=int, default=8,
                   help="truncation of the inverse series (default 8)")
    p.set_defaults(fn=_cmd_alexander)

    p = subs.add_parser("orbits", help="template orbits and zeta")
    _add_common(p)
    p.add_argument("--max-degree", type=int, default=3,
                   help="largest orbit degree (default 3)")
    p.add_argument("--dump", action="store_true",
                   help="also print the strip chart")
    p.set_defaults(fn=_cmd_orbits)

    p = subs.add_parser("verify", help="built-in consistency suites")
    _add_common(p, braid_arg=False)
    # set after add_argument, whose check of the usage text would read them
    p.add_argument("--suite", default="all").choices = _SuiteNames()
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
