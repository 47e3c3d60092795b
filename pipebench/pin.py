#!/usr/bin/env python3
"""Pin the output digests the benchmark checks against.

    python3 pipebench/pin.py                      # every seed slot, full scale
    python3 pipebench/pin.py --seeds 0 --scale collect=2e-05 \\
        --scale durable-sharded=2e-05             # the self-test scale

For each configuration, scale and experiment seed this runs the program
once and records the ``events`` digest of both databases and the digest
of the report text in ``references.json`` (merged into what is there).
Pin only from a commit whose outputs are trusted: every later run is
checked against these digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checks
import run


def pin(config: str, scale: float, seed: int, work: Path) -> dict:
    collected = run.collect_once(config, seed, scale, work / "pin")
    # Every check but the comparison with the digests being pinned.
    problems = [problem for problem in
                run.check_collect(config, collected, seed, scale)
                if "pinned" not in problem]
    if problems:
        raise SystemExit(f"{config} seed {seed}: {problems}")
    pair = run.report_round(Path(collected["low_db"]),
                            Path(collected["midhigh_db"]), scale)
    if any(text != pair["texts"][0] for text in pair["texts"]):
        raise SystemExit(f"{config} seed {seed}: cold != warm report")
    pinned = {tier: checks.events_digest(Path(collected[f"{tier}_db"]))
              for tier in ("low", "midhigh")}
    pinned["report"] = checks.text_digest(pair["texts"][0])
    shutil.rmtree(work / "pin")
    return pinned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*",
                        default=list(range(run.SEED_SLOTS)))
    parser.add_argument("--scale", action="append", default=[],
                        metavar="CONFIG=SCALE",
                        help="pin CONFIG at SCALE (default: both "
                             "configurations at their benchmark scale)")
    args = parser.parse_args()
    targets = [item.split("=", 1) for item in args.scale] or [
        ["collect", run.SCALES["collect"]],
        ["durable-sharded", run.SCALES["durable-sharded"]]]
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "pin"
    references = checks.load_references()
    try:
        for config, scale in targets:
            scale = float(scale)
            for seed in args.seeds:
                pinned = pin(config, scale, seed, work)
                references.setdefault(config, {}).setdefault(
                    repr(scale), {})[str(seed)] = pinned
                checks.REFERENCES.write_text(
                    json.dumps(references, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
                print(f"pinned {config} scale {scale} seed {seed}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
