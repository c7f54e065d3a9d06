"""``python -m repro`` — the experiment orchestration CLI.

The actual implementation lives in :mod:`repro.cli`; this module
only wires it to the interpreter's ``-m`` entry point.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
