"""``python -m wordpat``: the same command line as the ``wordpat`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
