#!/usr/bin/env python3
"""Build and run the DHL repo benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout.  Every call configures and builds
the DHL libraries plus the dhl_perfbench program (Release) under
$CARGO_TARGET_DIR (default .bench_build); after the first call that is an
incremental no-op.  Build output goes to stderr, so the last line of stdout is
dhl_perfbench's JSON result.  `--workload all` runs every workload in turn.

Exit code: dhl_perfbench's (0 ok, 1 output/conservation/determinism failure,
2 usage or refused environment); 3 when the build fails or the sources are
missing; 4 when dhl_perfbench overruns its time limit.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ["nids-64b", "ipsec-nids-imix", "compncrypt-1500"]
BENCH_DIR = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> pathlib.Path:
    """Configure and build dhl_perfbench; returns the binary path."""
    binary = build_dir / "dhl_perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "dhl_perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    if not binary.exists():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target / "perfbench").resolve()
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3

    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        spans = build_dir / f"spans-{workload}-seed{args.seed}.json"
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans-out", str(spans)]
        sys.stdout.flush()
        try:
            result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} overran {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 4
        rc = max(rc, result.returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
