"""Command-line front end.

Subcommands cover the product engine (product, moment, connected,
commutator, transport, genus-table), the scaling calculator, and a
manifest verifier that replays claimed moments against the brute-force
finite-size checker.

Manifest lines look like

    # two-leg square moment
    CHECK W{Tr[x1 x2]} W{Tr[y1 y2]} == 2*hbar^2*g^2 @ N=2, c=1

with optional ``blocks=n1,n2,...`` (which switches on colors) and
``hbar=<rational>``.  Exit status is zero only when every line passes.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (commutator, connected_product, expectation, poisson_bracket,
                      product, product_chain)
from .coeffring import Coefficient
from .exprparse import (ParseError, Parser, Token, parse_series, render_series,
                        series_to_json, tokenize)
from .observables import Generator, Mode, Series, UNIT_GENERATOR
# oracle_moment is bound here so the benchmark's tracer (perfbench/tracing.py HOOKS) finds it
from .oracle import OracleConfig, oracle_check, oracle_moment  # noqa: F401
from .ribbon import RibbonError
from .scaling import (FieldDescriptor, connected_degree_bound,
                      free_normalization_exponent,
                      interacting_normalization_exponent,
                      rg_strength_exponent, thooft_coupling_exponent)
from .transport import transport


def _mode_from_args(args: argparse.Namespace) -> Mode:
    return Mode(args.mode, args.colors)


def _parse_inputs(args: argparse.Namespace) -> list[Series]:
    mode = _mode_from_args(args)
    factors = [parse_series(text, mode) for text in args.series]
    seen: dict[str, int] = {}
    for i, factor in enumerate(factors):
        labels = {label for gen, _ in factor.terms for label in gen.labels()}
        for label in sorted(labels):
            if label in seen:
                raise ParseError(
                    f"slot label {label!r} appears in arguments "
                    f"{seen[label] + 1} and {i + 1}; factors need "
                    "disjoint labels so outputs stay unambiguous", 1, 1)
            seen[label] = i
    return factors


def _finish(series: Series, args: argparse.Namespace, *, scalar: bool = False) -> None:
    """Print a series, or only its unit coefficient when ``scalar`` (in
    text mode); its flags go to stderr in text and into the JSON document."""
    if args.hbar == "off":
        series = series.map_coefficients(lambda c: c.substitute({"hbar": 1}))
    if args.json:
        print(series_to_json(series))
    else:
        print(expectation(series).render() if scalar else render_series(series))
        if series.flags:
            print("flags: " + ", ".join(sorted(series.flags)), file=sys.stderr)


def _add_common(sub: argparse.ArgumentParser, *, count: str = "+",
                with_cap: bool = True) -> None:
    sub.add_argument("series", nargs=count, help="series literals")
    sub.add_argument("--mode", choices=("matrix", "kernel"), default="matrix")
    sub.add_argument("--colors", type=int, default=0)
    sub.add_argument("--hbar", choices=("on", "off"), default="on",
                     help="off sets the contraction grading to one")
    sub.add_argument("--json", action="store_true")
    if with_cap:
        sub.add_argument("--max-eps", type=int, default=None,
                         help="drop schemes above this eps degree")


def _cmd_product(args: argparse.Namespace) -> int:
    factors = _parse_inputs(args)
    _finish(product_chain(factors, max_eps_degree=args.max_eps), args)
    return 0


def _cmd_moment(args: argparse.Namespace) -> int:
    factors = _parse_inputs(args)
    chain = product_chain(factors, max_eps_degree=args.max_eps)
    # the moment keeps the chain's flags: a cap may have dropped schemes
    _finish(Series.build(chain.mode, [(UNIT_GENERATOR, expectation(chain))], chain.flags),
            args, scalar=True)
    return 0


def _cmd_connected(args: argparse.Namespace) -> int:
    factors = _parse_inputs(args)
    _finish(connected_product(factors, max_eps_degree=args.max_eps), args)
    return 0


def _cmd_commutator(args: argparse.Namespace) -> int:
    a, b = _parse_inputs(args)
    result = poisson_bracket(a, b) if args.poisson else commutator(a, b)
    _finish(result, args)
    return 0


def _cmd_transport(args: argparse.Namespace) -> int:
    (series,) = _parse_inputs(args)
    result = transport(series, symbol=args.symbol, negate=args.negate,
                       max_eps_degree=args.max_eps)
    if args.basis and not args.json:
        print(f"# target basis: {args.basis}")
    _finish(result, args)
    return 0


def _cmd_genus_table(args: argparse.Namespace) -> int:
    a, b = _parse_inputs(args)
    mode = _mode_from_args(args)
    # a product of bare generators has one unit per scheme, so a degree's
    # rationals add up to its scheme count
    counts: Counter = Counter()
    layers: dict[int, list] = defaultdict(list)
    for ga, ca in a.terms:
        for gb, cb in b.terms:
            scale = ca * cb
            for gen, coeff in product(Series.of(ga, mode), Series.of(gb, mode)).terms:
                for mono, q in coeff.terms:
                    counts[mono.eps_degree] += q
                    layers[mono.eps_degree].append((gen, Coefficient.monomial(mono, q) * scale))
    for degree in sorted(counts):
        print(f"eps^{degree}: {counts[degree]} schemes")
        print("  " + render_series(Series.build(mode, layers[degree])))
    return 0


def _descriptor_of(text: str) -> FieldDescriptor:
    series = parse_series(text, Mode("matrix"))
    gens = [gen for gen, _ in series.terms]
    if len(gens) != 1:
        raise ParseError("scaling expects a single generator literal", 1, 1)
    return FieldDescriptor(gens[0].trace_count, gens[0].size)


def _cmd_scaling(args: argparse.Namespace) -> int:
    fd = _descriptor_of(args.field)
    print(f"traces: {fd.traces}, slots: {fd.size}")
    print(f"free normalization exponent: {free_normalization_exponent(fd)}")
    print(f"interacting normalization exponent: {interacting_normalization_exponent(fd)}")
    print(f"coupling exponent: {thooft_coupling_exponent(fd)}")
    if args.target:
        dst = _descriptor_of(args.target)
        print(f"flow strength exponent into traces={dst.traces},slots={dst.size}: "
              f"{rg_strength_exponent(fd, dst)}")
    if args.connected_bound:
        counts = [int(x) for x in args.connected_bound.split(",")]
        print(f"connected degree bound for trace counts {counts}: "
              f"{connected_degree_bound(counts)}")
    return 0


# -- manifest verification -----------------------------------------------------


@dataclass(frozen=True)
class ManifestCheck:
    gens: tuple[Generator, ...]
    claim: Coefficient
    cfg: OracleConfig
    source: str


def _split_config(tokens: list[Token]) -> int:
    """Index of the config separator: the last '@' that an identifier
    follows (a slot's color mark is followed by a number)."""
    for i in range(len(tokens) - 2, -1, -1):
        if tokens[i].text == "@" and tokens[i + 1].kind == "ident":
            return i
    raise ParseError("missing '@ N=..., c=...' configuration",
                     tokens[-1].line, tokens[-1].column)


def _parse_config(parser: Parser) -> OracleConfig:
    values: dict[str, Fraction] = {}
    blocks: tuple[int, ...] = ()
    while True:
        key = parser.expect("ident").text
        parser.expect("punct", "=")
        if key == "blocks":
            sizes = [int(parser.expect("num").text)]
            while parser.at_punct(",") and parser.peek(1).kind == "num":
                parser.advance()
                sizes.append(int(parser.expect("num").text))
            blocks = tuple(sizes)
        elif key in ("N", "c", "hbar"):
            tok = parser.peek()
            values[key] = parser.parse_rational()
            if key == "N" and values[key].denominator != 1:
                raise ParseError(f"matrix size N={tok.text} is not an integer",
                                 tok.line, tok.column)
        else:
            raise parser.fail(f"unknown configuration key {key!r}")
        if parser.at_punct(","):
            parser.advance()
            continue
        break
    if "N" not in values or "c" not in values:
        raise parser.fail("configuration needs at least N and c")
    return OracleConfig(n=int(values["N"]), block_sizes=blocks,
                        covariance=values["c"],
                        hbar=values.get("hbar", Fraction(1)))


def parse_manifest_line(line: str) -> ManifestCheck | None:
    tokens = tokenize(line.rstrip("\r\n"))
    if tokens[0].kind == "end":
        return None
    split = _split_config(tokens)
    end = tokens[split]._replace(kind="end", text="")   # claim errors point at the '@'
    config_parser = Parser(tokens[split + 1:], Mode("matrix"))
    cfg = _parse_config(config_parser)
    if not config_parser.done():
        raise config_parser.fail("trailing configuration input")
    mode = Mode("matrix", len(cfg.block_sizes))
    front = Parser(tokens[:split] + [end], mode)
    front.expect("ident", "CHECK")
    gens = []
    while front.peek().kind == "ident" and front.peek().text == "W":
        gens.append(front.parse_generator())
    if not gens:
        raise front.fail("CHECK needs at least one generator")
    front.expect("punct", "=")
    front.expect("punct", "=")
    claim_series = front.parse_series()
    if any(gen != UNIT_GENERATOR for gen, _ in claim_series.terms):
        raise front.fail("the claimed value must be scalar")
    if not front.done():
        raise front.fail(f"trailing input {front.peek().text!r}")
    return ManifestCheck(tuple(gens), claim_series.coefficient(UNIT_GENERATOR),
                         cfg, line.strip())


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    checked = 0
    with open(args.manifest, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                check = parse_manifest_line(raw)
                if check is None:
                    continue
                line, = oracle_check(check.gens, check.claim, [check.cfg],
                                     max_legs=args.max_legs).lines
                ok = line.ok
                text = check.source + (
                    "" if ok else f"  [claimed {line.claimed}, oracle {line.observed}]")
            except ValueError as exc:
                # a bad line (syntax, config, symbol, oracle limits) fails alone
                ok, text = False, str(exc)
            checked += 1
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} line {number}: {text}")
    print(f"{checked - failures}/{checked} checks passed")
    return 0 if failures == 0 else 1


class _ArgumentParser(argparse.ArgumentParser):
    # every option but -h is a "--" long option, so an argument that starts
    # with a single "-" is a series literal with a negative leading term
    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="multitrace",
        description="exact size-expansion algebra of multi-trace observables")
    subs = top.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("product", help="operator product of series")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_product)

    sub = subs.add_parser("moment", help="expectation of a product")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_moment)

    sub = subs.add_parser("connected", help="connected part of a product")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_connected)

    sub = subs.add_parser("commutator", help="commutator of two series")
    _add_common(sub, count=2, with_cap=False)
    sub.add_argument("--poisson", action="store_true",
                     help="divide by eps^2 (must be exact)")
    sub.set_defaults(fn=_cmd_commutator)

    sub = subs.add_parser("transport", help="re-expand over a shifted kernel")
    _add_common(sub, count=1)
    sub.add_argument("--symbol", default="F", help="difference-kernel name")
    sub.add_argument("--negate", action="store_true", help="apply the inverse shift")
    sub.add_argument("--basis", default=None,
                     help="tag naming the target basis, echoed in text output")
    sub.set_defaults(fn=_cmd_transport)

    sub = subs.add_parser("genus-table",
                          help="schemes of a two-factor product by their eps degree; "
                               "each layer sums the schemes of that degree times "
                               "the input coefficients")
    _add_common(sub, count=2, with_cap=False)
    sub.set_defaults(fn=_cmd_genus_table)

    sub = subs.add_parser("scaling", help="size exponents for a field shape")
    sub.add_argument("field", help="generator literal, e.g. W{Tr[x1 x2 x3 x4]}")
    sub.add_argument("--target", default=None, metavar="GEN",
                     help="also print the flow strength exponent into this shape")
    sub.add_argument("--connected-bound", default=None, metavar="T1,T2,...",
                     help="also print the connected degree bound")
    sub.set_defaults(fn=_cmd_scaling)

    sub = subs.add_parser("verify", help="replay a manifest against brute force")
    sub.add_argument("manifest")
    sub.add_argument("--max-legs", type=int, default=10)
    sub.set_defaults(fn=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RibbonError as exc:
        # a counting invariant failed inside the engine: a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
