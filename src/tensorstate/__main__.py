"""`python -m tensorstate`: the tensorstate command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
