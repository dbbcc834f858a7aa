"""The one process entry of the `landau-modular` command.

`python -m landau_modular` and the installed console script both run
`main`.  Importing this module loads nothing and runs nothing: `main`
imports the CLI itself, and only `main` touches the garbage collector, so
the library stays free of process-wide side effects when tests or tools
import it in-process.
"""

import gc
import sys


def main(argv=None) -> int:
    # Importing the CLI (numpy and the eagerly loaded layers) allocates
    # about 20,000 GC-tracked objects that live until exit, and would run
    # 33 cyclic collections over them that free only some 340 objects, so
    # the collector is off while it imports (those few are frozen with the
    # rest; collecting them first would cost the saving).  Freezing moves
    # them out of the collector's generations, so neither the run's
    # collections nor the ones at interpreter exit walk them again.  What
    # the run allocates is collected as before, and shutdown (atexit,
    # flushes, closing --out) runs as before.
    gc.disable()
    try:
        from . import cli
        gc.freeze()
    finally:
        gc.enable()
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
