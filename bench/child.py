"""One cold CLI call, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/child.py COMMAND CONFIG [--trace SPANS_CSV] [--import-only]

Times ``import nmotto.cli`` (setup) and ``nmotto.cli.main`` (run) and
prints one JSON object on stdout; the CSV goes where the config's
``out`` key says.  With ``--trace`` the module-boundary wrappers of
``tracer`` are installed between the two timings, so the import is
never traced, and the spans are written to SPANS_CSV after the run.
"""

import sys
import time

IMPORT_DONE = "--bench: import done--"


def main(argv):
    command, config = argv[0], argv[1]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    t0 = time.perf_counter()
    import nmotto.cli as cli
    setup_s = time.perf_counter() - t0
    # -X importtime lines after this marker belong to the run, not the import
    print(IMPORT_DONE, file=sys.stderr, flush=True)

    import json
    import resource

    result = {"setup_s": setup_s}
    if "--import-only" not in argv:
        tracer = None
        if spans_path is not None:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()

        t0 = time.perf_counter()
        code = cli.main([command, "--config", config])
        run_s = time.perf_counter() - t0

        with open(config, encoding="utf-8") as fh:
            canonical = cli.serialize_config(cli.build_config(cli.parse_config(fh.read())))
        result.update(run_s=run_s, exit_code=code, config=canonical)
        if tracer is not None:
            tracer.uninstall()
            tracer.write_spans(spans_path)
            result["layers"] = tracer.layer_metrics(run_s)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
