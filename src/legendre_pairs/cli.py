"""Command-line front end.

Every command is a thin binding over the library; exit codes are 0 for
success, 2 for validation errors, 3 for verification failures and 4 for I/O
errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import nt, oracle, pipeline, ranking
from . import search as se
from . import sequences as sq
from . import verify as vf


def _parse_subgroup(length: int, text: str) -> nt.Subgroup:
    return nt.Subgroup(length, tuple(int(x) for x in text.split(",")))


def _format_triples(triples) -> str:
    return ", ".join("[" + ", ".join(str(v) for v in t) + "]" for t in triples)


def cmd_spectrum(args) -> int:
    rows = nt.spectrum_candidates(args.l)
    for row in rows:
        lo, hi = row.psd_pair
        print(f"[{lo}, {hi}]")
        print(f"  A: sum of squares = {row.square_sum_a} -> {_format_triples(row.triples_a) or 'no all-odd solutions'}")
        print(f"  B: sum of squares = {row.square_sum_b} -> {_format_triples(row.triples_b) or 'no all-odd solutions'}")
        if row.admissible:
            wa, wb = row.witnesses_a[0], row.witnesses_b[0]
            print(f"  compatible assignments: (A1,A2,A3) = {wa}, (B1,B2,B3) = {wb}")
        else:
            print(f"  discarded: {row.reason}")
    kept = [r.psd_pair for r in rows if r.admissible]
    print(f"spectrum: {kept}")
    return 0


def cmd_subgroups(args) -> int:
    groups = nt.subgroups_of_order(args.l, args.order)
    for g in groups:
        print("{" + ", ".join(str(x) for x in g.elements) + "}")
    if not groups:
        print(f"no subgroups of order {args.order} in Z_{args.l}^*")
    return 0


def cmd_orbits(args) -> int:
    sub = _parse_subgroup(args.l, args.subgroup)
    decomp = nt.orbit_decomposition(args.l, sub)
    for orb in decomp.orbits:
        print("{" + ", ".join(str(x) for x in orb) + "}")
    counts = ", ".join(
        f"{decomp.size_counts[s]} of size {s}" for s in decomp.sizes
    )
    print(f"nonzero orbits: {counts}")
    if args.l % 3 == 0:
        # ascending size, then (3, 0, 0) before (0, 3, 0) before (0, 0, 3)
        for (size, residues), c in sorted(
            decomp.residue_counts.items(), key=lambda kv: (kv[0][0], kv[0][1][::-1])
        ):
            if size in residues:  # every element has the same residue
                elements = f"{residues.index(size)} (mod 3)"
            else:
                elements = "0, 1, 2 (mod 3) {}, {}, {} times".format(*residues)
            print(f"  size {size}, elements = {elements}: {c} orbits")
    return 0


def cmd_alg2(args) -> int:
    sub = _parse_subgroup(args.l, args.subgroup)
    decomp = nt.orbit_decomposition(args.l, sub)
    counts = tuple(int(x) for x in args.counts.split(","))
    values = nt.orbit_psd_values(decomp, counts)
    print(f"compatible PSD values at lag {args.l // 3} for counts {counts}:")
    print(", ".join(str(v) for v in values))
    if args.admissible:
        entries = nt.admissible_psd_pairs(args.l, sub, counts)
        print(f"admissible spectrum pairs: {[e.psd_pair for e in entries]}")
    return 0


def cmd_decode(args) -> int:
    sub = _parse_subgroup(args.l, args.subgroup)
    decomp = nt.orbit_decomposition(args.l, sub)
    polarity = ranking.parse_polarity(args.polarity)
    if args.indices:
        indices = [int(x) for x in args.indices.split(",")]
        sel = ranking.indices_to_selection(decomp, indices, polarity)
    else:
        if args.rank is None or args.composition is None:
            raise ValueError("need either --indices or both --rank and --composition")
        comp = ranking.parse_composition(args.composition)
        sel = ranking.rank_to_selection(args.rank, decomp, comp, polarity)
    seq = ranking.decode_selection(sel)
    print(seq.pm_string())
    print(f"entry sum: {sum(seq)}")
    if args.l % 3 == 0:
        a1, a2, a3 = sq.residue_sums_mod3(seq)
        print(f"residue sums mod 3: ({a1}, {a2}, {a3}); PSD at lag {args.l // 3}: {sq.psd_exact_third(seq)}")
    return 0


def cmd_search(args) -> int:
    sub = _parse_subgroup(args.l, args.subgroup)
    comp = ranking.parse_composition(args.composition)
    polarity = ranking.parse_polarity(args.polarity)
    [plan] = pipeline.build_plans(args.l, sub, [comp], (polarity,))
    if args.range:
        lo, _, hi = args.range.partition(":")
        plan = replace(plan, rank_range=(int(lo), int(hi)))
    out_dir = Path(args.out)
    stats = pipeline.run_plan_workers(plan, out_dir, args.workers)
    scanned = sum(s.scanned for s in stats)
    s1 = sum(s.stage1_survivors for s in stats)
    s2 = sum(s.stage2_survivors for s in stats)
    print(f"scanned {scanned} ranks; stage-1 survivors {s1}; stage-2 survivors {s2}")
    print(f"records in {out_dir}")
    return 0


def cmd_match(args) -> int:
    record_sets = pipeline.load_record_sets(Path(p) for p in args.records)
    for plan, _ in record_sets:
        if plan.length != args.l:
            raise ValueError(f"records of a plan of length {plan.length}, expected {args.l}")
    matches = se.match_candidates(record_sets)
    verified = [m for m in matches if m.verified]
    false_candidates = sum(1 for m in matches if not m.verified)
    print(f"{len(matches)} fingerprint matches; {len(verified)} verified pairs; "
          f"{false_candidates} false candidates dropped")
    if args.emit_pairs:
        pipeline.write_pairs(Path(args.emit_pairs), matches)
        print(f"pairs written to {args.emit_pairs}")
    return 0


def cmd_verify(args) -> int:
    pairs = pipeline.read_pairs(Path(args.pairs))
    lines = []
    failures = 0
    for i, (a, b) in enumerate(pairs):
        result = vf.verify_pair(a, b)
        if result:
            third = f" psd_third={result.psd_third}" if result.psd_third else ""
            lines.append(f"pair {i}: VERIFIED{third}")
        else:
            failures += 1
            lines.append(f"pair {i}: FAILED ({result.reason}, lag {result.lag})")
    report = "\n".join(lines) + "\n"
    if args.report:
        Path(args.report).write_text(report)
    print(report, end="")
    if failures:
        raise vf.VerificationError(f"{failures} of {len(pairs)} pairs failed")
    return 0


def cmd_hadamard(args) -> int:
    pairs = pipeline.read_pairs(Path(args.pairs))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (a, b) in enumerate(pairs):
        result = vf.verify_pair(a, b)
        if not result:
            raise vf.VerificationError(f"pair {i} is not a Legendre pair: {result.reason}")
        matrix, variant = vf.hadamard_from_pair(result)
        path = out_dir / f"hadamard-{result.length}-{i:03d}.txt"
        path.write_text(vf.format_matrix(matrix) + "\n")
        print(f"pair {i}: order-{matrix.shape[0]} matrix (template variant {variant}) -> {path}")
    return 0


def cmd_pipeline(args) -> int:
    sub = _parse_subgroup(args.l, args.subgroup)
    comps = None
    if args.compositions:
        comps = [ranking.parse_composition(c) for c in args.compositions.split(";")]
    if args.polarity == "both":
        polarities: tuple[int, ...] = (1, -1)
    else:
        polarities = (ranking.parse_polarity(args.polarity),)
    plans = pipeline.build_plans(args.l, sub, comps, polarities)
    if not plans:
        raise ValueError("no plans match the requested compositions and polarities")
    result = pipeline.run_pipeline(Path(args.out), plans, args.workers)
    scanned = sum(s.scanned for s in result.stats)
    print(f"{len(plans)} plans, {scanned} ranks scanned")
    print(f"{len(result.pairs)} verified pairs; {result.false_candidates} false candidates")
    print(f"artifacts in {args.out}")
    return 0


def cmd_oracle(args) -> int:
    sub = _parse_subgroup(args.l, args.subgroup) if args.subgroup else None
    pairs = oracle.brute_force_pairs(args.l, sub)
    qualifier = f" with multiplier subgroup {{{args.subgroup}}}" if args.subgroup else ""
    print(f"{len(pairs)} normalized Legendre pairs of length {args.l}{qualifier}")
    if args.show:
        for pair in sorted(tuple(sorted(p)) for p in pairs):
            for entries in pair:
                print("  " + sq.BinarySequence(entries).pm_string())
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lptool", description="Legendre pair search, decoding and verification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of the search and pipeline commands
    search_flags = argparse.ArgumentParser(add_help=False)
    search_flags.add_argument("--l", type=int, required=True)
    search_flags.add_argument("--subgroup", required=True)
    search_flags.add_argument("--out", required=True)
    search_flags.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("spectrum", help="admissible PSD value pairs at lag l/3")
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("subgroups", help="subgroups of the units mod l")
    p.add_argument("l", type=int)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("orbits", help="orbit decomposition of Z_l under a subgroup")
    p.add_argument("l", type=int)
    p.add_argument("--subgroup", required=True, help="comma-separated elements, e.g. 1,16,22")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("alg2", help="PSD values compatible with chosen orbit counts")
    p.add_argument("l", type=int)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--counts", required=True, help="orbits chosen per ascending size class, e.g. 2,19")
    p.add_argument("--admissible", action="store_true", help="also intersect with the spectrum")
    p.set_defaults(func=cmd_alg2)

    p = sub.add_parser("decode", help="decode an index set or rank into a sequence")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--indices", help="orbit representatives, comma-separated")
    p.add_argument("--rank", type=int)
    p.add_argument("--composition", help="e.g. 2x1+19x3")
    p.add_argument("--polarity", default="plus", choices=("plus", "minus"))
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "search", parents=[search_flags], help="run the two-stage filtered search over a rank range"
    )
    p.add_argument("--composition", required=True)
    p.add_argument("--polarity", default="plus", choices=("plus", "minus"))
    p.add_argument("--range", help="LO:HI rank range (default: full space)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("match", help="match candidate records and verify pairs")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("records", nargs="+", help="record files (plan.json read from their directories)")
    p.add_argument("--emit-pairs", help="write verified pairs as JSON")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("verify", help="verify pairs from a pairs JSON file")
    p.add_argument("--pairs", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hadamard", help="build Hadamard matrices from verified pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("pipeline", parents=[search_flags], help="search + match + verify end to end")
    p.add_argument("--compositions", help="semicolon-separated, e.g. '2x1+19x3'; default: full sweep")
    p.add_argument("--polarity", default="both", choices=("plus", "minus", "both"))
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("oracle", help="brute-force reference pairs for small lengths")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--subgroup")
    p.add_argument("--show", action="store_true")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except vf.VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
