"""The one process entry of the `landau-modular` command.

`python -m landau_modular` and the installed console script both run
`main`.  Importing this module runs nothing; only `main` touches the
garbage collector, so the library stays free of process-wide side effects
when tests or tools import it in-process.
"""

import gc
import sys

from . import cli


def main(argv=None) -> int:
    # numpy and the eagerly loaded layers leave about 20,000 GC-tracked
    # objects that live until exit.  Freezing them moves them out of the
    # collector's generations, so the collections at interpreter exit no
    # longer walk them (about 10 ms per process).  What the run allocates
    # is collected as before, and shutdown (atexit, flushes, closing
    # --out) runs as before.
    gc.freeze()
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
