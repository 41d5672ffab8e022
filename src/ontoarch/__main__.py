"""`python -m ontoarch`: the command-line interface of `ontoarch.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
