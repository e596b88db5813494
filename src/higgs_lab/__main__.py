"""python -m higgs_lab <command> ...: the same front end as the higgs-lab script."""

from .cli import main

main()
