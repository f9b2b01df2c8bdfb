"""``python -m pricedisclosure``: the ``pricedisclosure`` command, run from a
checkout with ``src`` on ``PYTHONPATH`` as from an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
