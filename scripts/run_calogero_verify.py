"""Run the full residual battery on the four-body inverse-square chain."""

import argparse

from blocksep import cli, config, expr


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="verification battery for the calogero4 entry")
    ap.add_argument("--points", type=int, default=100,
                    help="sample points per residual family")
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--out", default="out/calogero4")
    ap.add_argument("--corrupt", action="store_true",
                    help="rerun with a corrupted separation matrix entry "
                         "and show the battery failing")
    args = ap.parse_args(argv)

    cfg = config.RunConfig(source="<script>", system_name="calogero4",
                           points=args.points, seed=args.seed,
                           out_dir=args.out)
    code = cli.cmd_verify(cfg)

    if args.corrupt:
        # S[1][1] picks up a block-2 coordinate, which no valid
        # separation matrix row may mention
        print("\n--- corrupted run: S[1][1] <- 1+0.1*phi1 ---")
        bad_code = cli.cmd_verify(cfg.override(
            out_dir=args.out + "_corrupt",
            corrupt=(1, 1, expr.parse("1+0.1*phi1"))))
        print(f"corrupted battery exit code: {bad_code} (expected 1)")
        if bad_code != cli.EXIT_VERIFY:
            # the battery missed the broken matrix, so the demo fails
            return bad_code or cli.EXIT_VERIFY

    return code


if __name__ == "__main__":
    raise SystemExit(main())
