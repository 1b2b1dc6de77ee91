"""Times the program's set-up in a fresh process.

    python3 bench/setup_probe.py CONFIG...

Set-up is what comes before the first command: importing the program
(NumPy included), loading every config file and building every catalog
entry they name.  Prints the elapsed seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(paths) -> int:
    from blocksep import catalog, cli  # noqa: F401  (cli imports it all)
    from blocksep.config import load_config

    for path in paths:
        cfg = load_config(path)
        catalog.load(cfg.system_name, **cfg.system_params)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
