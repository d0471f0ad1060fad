"""Record ``pins.json``: the golden model's answer for every input.

Runs every variant of every workload and profile with the golden
timing model (``fast="off"``) and stores, per cold variant, the sha256
of the command's canonical ``data`` plus its simulated instruction,
cycle and window counts, and per served request the sha256 of the
response body.  Re-run it only when the program's outputs are meant
to change:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402

GOLDEN = "off"


def pin_cold(api, workdir: pathlib.Path):
    pins = {}
    for name, (command, profiles) in workloads.COLD.items():
        pins[name] = {}
        for profile, variants in profiles.items():
            pins[name][profile] = []
            for index, params in enumerate(variants):
                record = worker.run_command(
                    api, command, params,
                    workdir / f"{name}-{profile}-{index}", GOLDEN)
                if record["error"] or record["failed_windows"]:
                    raise SystemExit(f"{name} {profile} {index}: "
                                     f"{record['error']}")
                pins[name][profile].append({
                    key: record[key] for key in (
                        "digest", "simulated_instructions",
                        "simulated_cycles", "windows")})
                print(name, profile, index, pins[name][profile][-1],
                      flush=True)
    return pins


def pin_serve(workdir: pathlib.Path):
    procs = run.Processes()
    deadline = run.Deadline(900)
    pins = {}
    try:
        for profile in ("full", "tiny"):
            pins[profile] = []
            for variant in range(2):
                server = run.Server(procs, workdir / f"serve-{profile}-"
                                    f"{variant}", GOLDEN, traced=False)
                server.wait_listening(deadline)
                digests = []
                for command, params in workloads.serve_requests(variant,
                                                                profile):
                    status, body = server.call(
                        "GET", run._figure_path(command, params))
                    if status != 200:
                        raise SystemExit(f"{command} {params}: {status}")
                    digests.append(run._sha256(body))
                server.stop(deadline)
                pins[profile].append(digests)
                print("serve", profile, variant, digests, flush=True)
    finally:
        procs.stop_all()
    return pins


def main() -> int:
    from repro import api

    workdir = workloads.ROOT / ".perfbench-work" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        pins = pin_cold(api, workdir)
        pins[workloads.SERVE] = pin_serve(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pins["recorded_with"] = {"jobs": workloads.ENGINE["jobs"],
                             "fast": GOLDEN}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
