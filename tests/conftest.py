import os
import sys

import distlab

sys.path.insert(0, os.path.dirname(__file__))

# Child interpreters (the DIMACS front end ``distlab.cli solve``, the
# CLI exit-code checks, the numpy-free run) load the same source tree as this one,
# whether or not the package is installed.
_src = os.path.dirname(os.path.dirname(os.path.abspath(distlab.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_src, os.environ.get("PYTHONPATH")) if p
)
