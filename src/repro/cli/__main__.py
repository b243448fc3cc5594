"""``python -m repro.cli``: the ``graphalytics`` command."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
