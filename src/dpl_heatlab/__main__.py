"""Command-line entry: ``python -m dpl_heatlab`` and the ``dpl-heatlab``
console script.

BLAS runs on one thread unless the caller sets the variables: the FDM's
small eigenbasis products are slower on OpenBLAS's default pool.  The
variables act only before numpy's first import, so they are set here,
before ``cli`` loads; ``cli.main`` and library imports set nothing.
"""

import os
import sys


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
