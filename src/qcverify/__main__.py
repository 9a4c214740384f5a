"""The qcv command line as a module: python -m qcverify builtin <name>."""

import sys

from .verify_cli import main

if __name__ == "__main__":
    sys.exit(main())
