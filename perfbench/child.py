"""One CLI invocation in a fresh interpreter, the way a user pays for it.

Usage::

    python3 child.py RESULT_JSON setup
    python3 child.py RESULT_JSON run   OP_ID -- CLI_ARGS...
    python3 child.py RESULT_JSON trace OP_ID -- CLI_ARGS...
    python3 child.py RESULT_JSON probe OP_ID -- CLI_ARGS...

``setup`` imports the package and stops where ``cli.main`` would be called.
``run`` calls ``cli.main`` once; ``trace`` does the same with the span
wrappers installed.  ``probe`` times single traces at each reflection order
on the room the CLI arguments configure.  The result file holds
``time.monotonic()`` at the moment the package is imported (CLOCK_MONOTONIC,
shared by every process on Linux), so the parent can measure set-up time
from before it spawned this process.
"""

import json
import resource
import sys
import time


def _probe(argv):
    """Mean per-link trace time at max_order 0, 1 and 2 on sample links."""
    from owcfog.channel import grid_positions, surface_elements, trace_impulse_response
    from owcfog.cli import build_parser
    from owcfog.config import apply_overrides, load_config, receiver_from_config, room_from_config

    args = build_parser().parse_args(argv)
    cfg = apply_overrides(load_config(args.config), args.override)
    room, receiver = room_from_config(cfg), receiver_from_config(cfg)
    positions = grid_positions(room)
    # Eight links spread over the grid, each to a different AP in turn.
    links = [(positions[(i * len(positions)) // 8], room.aps[i % len(room.aps)])
             for i in range(8)]
    z = room.receiver_plane_m
    order_ms = []
    for order in (0, 1, 2):
        per_link = []
        for (x, y), ap in links:
            reps = []
            for _ in range(3):
                t = time.perf_counter()
                trace_impulse_response(room, ap, receiver, (x, y, z), "red", order)
                reps.append(time.perf_counter() - t)
            per_link.append(sorted(reps)[1])
        order_ms.append(1e3 * sum(per_link) / len(per_link))
    return {"elements": int(surface_elements(room, "red")[0].shape[0]),
            "order_ms": order_ms}


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    from owcfog import cli
    result = {"ready": time.monotonic()}
    if mode != "setup":
        op_id = int(sys.argv[3])
        argv = sys.argv[sys.argv.index("--") + 1:]
        if mode == "probe":
            result.update(_probe(argv))
        else:
            entry, tracer = cli.main, None
            if mode == "trace":
                import tracing
                tracer = tracing.Tracer(op_id)
                tracing.install(tracer)
                entry = tracer.wrap("cli.main", cli.main)
            start = time.perf_counter()
            result["exit"] = entry(argv)
            result["pass_s"] = time.perf_counter() - start
            if tracer is not None:
                result.update(spans=tracer.spans,
                              solver_stats=tracer.solver_stats,
                              fft_calls=tracer.fft_calls,
                              fft_distinct=tracer.fft_distinct)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["maxrss_mb"] = usage.ru_maxrss / 1024.0      # Linux reports KiB
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
