import os
import sys

# One BLAS thread for the battery: the FDM's small eigenbasis products are
# slower on OpenBLAS's default pool.  The variables act only before numpy's
# first import, which no pytest plugin makes before this file; a value set
# by the caller wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))
