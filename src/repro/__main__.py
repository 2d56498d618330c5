"""``python -m repro`` entry point (same as the ``bestk`` script)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
