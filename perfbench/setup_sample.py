"""One set-up sample in a fresh interpreter: import twirlqfi, then parse a config.

Usage: python3 perfbench/setup_sample.py SRC_DIR [CONFIG]
Prints the seconds from interpreter hand-over to the parsed config.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[1])
    from twirlqfi import cli

    if len(argv) > 2:
        cli.load_config(argv[2])
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
