"""Runs one pickled call in a fresh interpreter.

Reads a pickled (function, args) pair from standard input, calls it and
writes the pickled result to standard output. Anything the call prints goes
to standard error. Functions are pickled by reference, so they must live in
a module of the benchmark or of the package.

Usage: python3 child.py SRC_DIR < call.pickle > result.pickle
"""

import pickle
import sys
from pathlib import Path


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    fn, args = pickle.load(sys.stdin.buffer)
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    result = fn(*args)
    out.write(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    out.flush()


if __name__ == "__main__":
    main(sys.argv)
