"""Record the golden outputs that the cli_session workload compares against.

    python3 bench/record_golden.py

Runs every variant of every command in `workloads.CLI_COMMANDS` once and
writes its standard output to bench/golden/.  Re-record only when a change
is meant to alter CLI numbers beyond the tolerance of
`workloads.compare_to_golden`, and say so in the change description.
"""
import os
import sys
import tempfile

import run  # noqa: F401  (puts the checkout's src/ on sys.path)
import workloads


def main() -> int:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        workloads.write_cli_files(directory)
        for command, variants in workloads.CLI_COMMANDS.items():
            for v, argv in enumerate(variants):
                code, out, err = workloads.run_cli(argv, directory)
                if code != 0:
                    sys.stderr.write(f"{command}-{v} exited {code}: {err}")
                    return 1
                path = os.path.join(workloads.GOLDEN_DIR, workloads.golden_name(command, v))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(out)
                print(f"{path}: {len(out)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
