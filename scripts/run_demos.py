"""Replay every bundled figure demo through the CLI and summarize."""

import sys

from detl.cli import FIGURES, main


def run():
    failures = 0
    for fig in FIGURES:
        print(f"--- {fig}")
        failures += main(["demo", fig]) != 0
    print(f"--- {len(FIGURES) - failures}/{len(FIGURES)} demos passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
