"""sha256 of the output of a fixed set of CLI commands, one `sha256  argv` line each.

Runs every command through `chanent.cli.main` in this one process, at seeds 42, 1108
and 5065: `hierarchy` at ancilla 1 and 3; `verify` theorem1 (--k 4), davies and
multiplicativity; conjecture1, props, lindblad and sandwich at dims 2 and 3; the five
figures. Reports drop their `elapsed_ms` line, the one field outside byte-level
determinism, before hashing. Run it on two trees and `diff` the outputs: a line that
differs names a command whose output changed.

    PYTHONPATH=src python tests/cli_digest.py
"""

import contextlib
import hashlib
import io
import re

from chanent import cli

SEEDS = (42, 1108, 5065)


def commands():
    for seed in SEEDS:
        tail = ["--seed", str(seed)]
        for ancilla in (1, 3):
            yield ["hierarchy", "--ancilla", str(ancilla)] + tail
        yield ["verify", "--suite", "theorem1", "--k", "4"] + tail
        for suite in ("davies", "multiplicativity"):
            yield ["verify", "--suite", suite] + tail
        for suite in ("conjecture1", "props", "lindblad", "sandwich"):
            for dim in (2, 3):
                yield ["verify", "--suite", suite, "--dim", str(dim)] + tail
        for figure in cli.FIGURES:
            yield ["figure", "--figure", figure] + tail


def output(argv) -> str:
    """argv's stdout through cli.main, without a report's elapsed_ms line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return re.sub(r'\n *"elapsed_ms": \d+,', "", out.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv) -> str:
    return sha256(output(argv))


if __name__ == "__main__":
    for argv in commands():
        print(f"{digest(argv)}  {' '.join(argv)}", flush=True)
