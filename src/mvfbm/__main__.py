"""``python -m mvfbm``: the command line; importing it runs nothing."""

import sys

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    sys.exit(main())
