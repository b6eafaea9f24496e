"""``vppb`` command-line interface.

Mirrors the fig. 1 workflow for the bundled workloads and for log files
on disk:

* ``vppb record <workload> -p 8 -o run.log`` — monitored uni-processor
  execution of a bundled workload, written as a log file;
* ``vppb predict run.log --cpus 8 [--lwps N] [--comm-delay US]`` —
  simulate the traced program on a configured machine and print the
  predicted speed-up;
* ``vppb visualize run.log --cpus 8 -o run.svg`` — render the predicted
  execution's parallelism and flow graphs (SVG, or ASCII to stdout);
* ``vppb report run.log --cpus 2,4,8`` — a speed-up sweep plus the
  bottleneck table;
* ``vppb stats run.log --cpus 8`` — the per-thread time decomposition of
  the predicted execution;
* ``vppb knee run.log`` — the smallest machine reaching 80 % of the
  trace's achievable speed-up;
* ``vppb compare before.log after.log --cpus 8`` — the §5 tuning loop's
  "inspect the performance change" step;
* ``vppb whatif run.log --shard-lock buffer:16 --scale-cs buffer:0.5`` —
  preview a tuning hypothesis by transforming the trace itself;
* ``vppb doctor run.log`` — validate a (possibly damaged) log, salvage
  what can be salvaged, dry-run the replay under a watchdog, and print
  a diagnosis instead of a traceback;
* ``vppb lint run.log --format sarif`` — static synchronisation analysis
  of the recorded trace (races, lock-order inversions, cond misuse);
  exits 1 when findings reach the ``--fail-on`` severity;
* ``vppb batch sweep.json`` — run a scenario-grid manifest through the
  batch job engine (worker pool + content-addressed result cache);
* ``vppb serve`` — long-lived local prediction service over HTTP
  (trace uploads, prediction requests, ``/metrics``);
* ``vppb calibrate -o profiles/default.json`` — fit the §3.2 cost
  parameters to measured runs of the calibration suite and write the
  profile artifact;
* ``vppb validate --profile profiles/default.json`` — re-measure the
  profile's own suite and gate on the §4 error budget (exit 0 ok,
  1 drift, 2 over budget);
* ``vppb workloads`` — list the bundled programs.

The prediction commands (``predict``, ``report``, ``stats``, ``knee``,
``visualize``, ``whatif``) all accept ``--profile PATH`` to run under a
fitted cost model instead of the built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.metrics import contention_by_object
from repro.core.config import SimConfig
from repro.core.predictor import compile_trace, predict, sweep_speedup
from repro.core.timebase import to_seconds
from repro.recorder import logfile
from repro.visualizer.ascii_render import render_ascii
from repro.visualizer.svg_render import save_svg

__all__ = ["main", "build_parser"]


def _parse_cpus(text: str) -> List[int]:
    try:
        counts = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad CPU list {text!r}")
    if not counts or any(n < 1 for n in counts):
        raise argparse.ArgumentTypeError(f"bad CPU list {text!r}")
    return counts


def _config_from(args: argparse.Namespace, cpus: int) -> SimConfig:
    config = SimConfig(
        cpus=cpus,
        lwps=args.lwps,
        comm_delay_us=args.comm_delay,
    )
    profile_path = getattr(args, "profile", None)
    if profile_path:
        from repro.calib import CalibrationProfile

        config = CalibrationProfile.load(profile_path).apply(config)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vppb",
        description="VPPB reproduction: record, predict and visualize "
        "multithreaded program behaviour (Broberg/Lundberg/Grahn, IPPS'98)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("record", help="monitored uni-processor run of a workload")
    p_rec.add_argument("workload", help="bundled workload name (see 'vppb workloads')")
    p_rec.add_argument("-p", "--threads", type=int, default=4, help="worker threads")
    p_rec.add_argument("-s", "--scale", type=float, default=0.1, help="problem scale")
    p_rec.add_argument("-o", "--output", required=True, help="log file to write")
    p_rec.add_argument(
        "--overhead", type=int, default=None, help="probe overhead per record (µs)"
    )
    p_rec.add_argument(
        "--seed", type=int, default=None,
        help="pin the program's RNG streams so the recorded trace is "
        "bit-reproducible (calibration inputs need this)",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("log", help="log file from 'vppb record'")
    common.add_argument("--lwps", type=int, default=None, help="LWP pool size")
    common.add_argument(
        "--comm-delay", type=int, default=0, help="inter-CPU wake delay (µs)"
    )
    common.add_argument(
        "--profile", default=None, metavar="PATH",
        help="run under the fitted cost model from this calibration "
        "profile (see 'vppb calibrate')",
    )

    p_pred = sub.add_parser("predict", parents=[common], help="predict speed-up")
    p_pred.add_argument("--cpus", type=_parse_cpus, default=[2, 4, 8])

    p_vis = sub.add_parser("visualize", parents=[common], help="render the graphs")
    p_vis.add_argument("--cpus", type=int, default=4)
    p_vis.add_argument("-o", "--output", default=None, help="SVG path (else ASCII)")
    p_vis.add_argument("--width", type=int, default=1000)
    p_vis.add_argument("--compress", action="store_true", help="hide idle threads")
    p_vis.add_argument(
        "--chrome",
        action="store_true",
        help="write Trace Event JSON (chrome://tracing) instead of SVG",
    )
    p_vis.add_argument(
        "--html",
        action="store_true",
        help="write a standalone HTML report instead of SVG",
    )
    p_vis.add_argument(
        "--lint",
        action="store_true",
        help="overlay lint findings on the HTML report (implies --html)",
    )

    p_rep = sub.add_parser("report", parents=[common], help="sweep + bottlenecks")
    p_rep.add_argument("--cpus", type=_parse_cpus, default=[2, 4, 8])
    p_rep.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run the sweep on N worker processes (0 = in-process)",
    )
    p_rep.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )

    p_batch = sub.add_parser(
        "batch", help="run a sweep manifest through the batch job engine"
    )
    p_batch.add_argument("manifest", help="sweep manifest (JSON; see docs/service.md)")
    p_batch.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: up to 8, one per CPU)",
    )
    p_batch.add_argument(
        "--inline", action="store_true",
        help="run jobs in-process instead of on a worker pool",
    )
    p_batch.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $VPPB_CACHE_DIR or ~/.cache/vppb)",
    )
    p_batch.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor persist cached results",
    )
    p_batch.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report format (default: table)",
    )
    p_batch.add_argument(
        "-o", "--output", default=None, help="write the report here (else stdout)"
    )
    p_batch.add_argument(
        "--tier", choices=("sim", "analytic", "auto"), default="sim",
        help="prediction tier: sim replays every cell; analytic answers "
        "from calibrated closed-form intervals; auto screens analytically "
        "and replays only the cells the intervals cannot decide "
        "(default: sim)",
    )
    p_batch.add_argument(
        "--analytic-profile", default=None, metavar="PATH",
        help="analytic calibration profile for --tier analytic/auto "
        "(default: $VPPB_ANALYTIC_PROFILE or profiles/analytic.json)",
    )
    p_batch.add_argument(
        "--target", type=float, default=None, metavar="FRAC",
        help="knee target as a fraction of each group's best speed-up "
        "(default: 0.8)",
    )

    p_srv = sub.add_parser(
        "serve", help="long-lived local prediction service (HTTP)"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8123)
    p_srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: up to 8, one per CPU)",
    )
    p_srv.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $VPPB_CACHE_DIR or ~/.cache/vppb)",
    )
    p_srv.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="where uploaded traces are spooled (default: a temp dir)",
    )
    p_srv.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )
    p_srv.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admission watermark: concurrent /predict requests before "
        "shedding 429s (default: 8)",
    )
    p_srv.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; expiry returns 504 with any "
        "partial result (default: none)",
    )
    p_srv.add_argument(
        "--max-body-mb", type=float, default=None, metavar="MB",
        help="request-body cap in MiB; larger uploads get 413 "
        "(default: $VPPB_MAX_BODY_BYTES or 64 MiB)",
    )
    p_srv.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests (default: 10)",
    )
    p_srv.add_argument(
        "--legacy", action="store_true",
        help="serve with the threaded http.server front end instead of "
        "the asyncio one (no admission control or deadlines)",
    )

    p_client = sub.add_parser(
        "client", help="call a running vppb serve instance (with retries)"
    )
    p_client.add_argument(
        "action", choices=("predict", "upload", "metrics", "ready"),
        help="predict: upload a log and predict speed-ups; upload: spool a "
        "log; metrics: dump /metrics; ready: readiness probe",
    )
    p_client.add_argument(
        "log", nargs="?", default=None,
        help="trace log file (predict/upload)",
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=8123)
    p_client.add_argument(
        "--cpus", default="2,4,8", metavar="N,N,...",
        help="CPU counts to predict (default: 2,4,8)",
    )
    p_client.add_argument(
        "--binding", choices=("unbound", "bound"), default="unbound"
    )
    p_client.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline; a 504 still prints any partial result",
    )
    p_client.add_argument(
        "--stream", action="store_true",
        help="upload with chunked transfer encoding (streaming salvage)",
    )
    p_client.add_argument(
        "--attempts", type=int, default=4,
        help="max tries per request incl. backoff retries (default: 4)",
    )
    p_client.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-attempt socket timeout (default: 60)",
    )

    p_stats = sub.add_parser(
        "stats", parents=[common], help="per-thread time decomposition"
    )
    p_stats.add_argument("--cpus", type=int, default=4)
    p_stats.add_argument(
        "--top", type=int, default=None, help="show only the N worst-utilised"
    )
    p_stats.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text: simulated per-thread decomposition; json: the raw "
        "TraceStats profile the analytic tier screens from (default: text)",
    )

    p_knee = sub.add_parser(
        "knee", parents=[common], help="smallest machine near the speed-up bound"
    )
    p_knee.add_argument(
        "--target", type=float, default=0.8, help="fraction of the bound to reach"
    )
    p_knee.add_argument("--max-cpus", type=int, default=32)

    p_what = sub.add_parser(
        "whatif", parents=[common], help="preview tuning hypotheses on the trace"
    )
    p_what.add_argument("--cpus", type=int, default=8)
    p_what.add_argument(
        "--scale-compute", type=float, default=None, metavar="F",
        help="scale every CPU burst by F",
    )
    p_what.add_argument(
        "--scale-io", type=float, default=None, metavar="F",
        help="scale every recorded I/O wait by F",
    )
    p_what.add_argument(
        "--scale-cs", default=None, metavar="LOCK:F",
        help="scale the work held under LOCK by F",
    )
    p_what.add_argument(
        "--shard-lock", default=None, metavar="LOCK:N",
        help="split LOCK into N round-robin shards",
    )
    p_what.add_argument(
        "--scheduler", default=None, metavar="NAME[,NAME...]",
        help="cross-OS what-if: predict the trace under these kernel "
        "scheduler backends (e.g. solaris,clutch,cfs) and compare "
        "speed-ups; cannot be combined with trace transformations",
    )

    p_cmp = sub.add_parser(
        "compare", help="diff two logs' predicted executions (before/after)"
    )
    p_cmp.add_argument("before", help="log file before the change")
    p_cmp.add_argument("after", help="log file after the change")
    p_cmp.add_argument("--cpus", type=int, default=8)
    p_cmp.add_argument("--lwps", type=int, default=None)
    p_cmp.add_argument("--comm-delay", type=int, default=0)

    p_doc = sub.add_parser(
        "doctor", help="diagnose a damaged log: validate, salvage, dry-run"
    )
    p_doc.add_argument("log", help="log file to examine")
    p_doc.add_argument("--cpus", type=int, default=4, help="CPUs for the dry-run")
    p_doc.add_argument(
        "--no-replay", action="store_true", help="skip the replay dry-run"
    )
    p_doc.add_argument(
        "--max-events", type=int, default=5_000_000,
        help="watchdog event budget for the dry-run",
    )
    p_doc.add_argument(
        "--max-wall", type=float, default=30.0,
        help="watchdog wall-clock budget in seconds for the dry-run",
    )
    p_doc.add_argument(
        "--repairs", type=int, default=10, metavar="N",
        help="show at most N individual repairs (0 = none)",
    )

    p_lint = sub.add_parser(
        "lint", help="static synchronisation analysis of a recorded trace"
    )
    p_lint.add_argument("log", help="log file from 'vppb record'")
    p_lint.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="run only these rule ids (repeatable; accepts R001 or VPPB-R001)",
    )
    p_lint.add_argument(
        "--ignore", action="append", default=None, metavar="RULE",
        help="skip these rule ids (repeatable)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    p_lint.add_argument(
        "--fail-on", default="error", metavar="SEVERITY",
        help="exit 1 when any finding reaches this severity "
        "(note|warning|error|never; default: error)",
    )
    p_lint.add_argument(
        "-o", "--output", default=None, help="write the report here (else stdout)"
    )
    p_lint.add_argument(
        "--no-explain", action="store_true",
        help="omit the per-rule rationale lines from the text report",
    )
    p_lint.add_argument(
        "--strict-parse", action="store_true",
        help="fail on a damaged log instead of salvaging and linting "
        "what remains",
    )
    p_lint.add_argument(
        "--whatif", default=None, metavar="MANIFEST",
        help="predictive grid: probe every race/deadlock finding across "
        "the machine configs of this sweep manifest (JSON; 'trace' "
        "defaults to the linted log) and tag each finding with the "
        "configs under which it manifests",
    )
    p_lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress findings whose fingerprints appear in FILE (a "
        "previous json/sarif report, or one fingerprint per line); "
        "exit 0 if only baselined findings remain",
    )
    p_lint.add_argument(
        "--replay-witness", default=None, metavar="DIGEST",
        help="replay the witness schedule with this digest (prefix ok) "
        "and report whether it exhibits the claimed hazard "
        "(exit 0 yes / 1 no)",
    )
    p_lint.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for the --whatif grid (0 = inline)",
    )
    p_lint.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory for --whatif probes "
        "(default: the standard vppb cache)",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache for --whatif probes",
    )

    p_cal = sub.add_parser(
        "calibrate",
        help="fit the cost model to measured runs, write a profile",
    )
    p_cal.add_argument(
        "-o", "--output", default="profiles/default.json", metavar="PATH",
        help="where to write the profile (default: profiles/default.json)",
    )
    p_cal.add_argument(
        "--workload", action="append", default=None, metavar="NAME[:THREADS[:SCALE]]",
        help="add a workload to the suite (repeatable; default: the "
        "stock synthetic+prodcons suite)",
    )
    p_cal.add_argument(
        "--cpus", type=_parse_cpus, default=[2, 4, 8],
        help="machine sizes to measure and fit against (default: 2,4,8)",
    )
    p_cal.add_argument(
        "--seed", type=int, default=None,
        help="program seed for the suite's measured runs",
    )
    p_cal.add_argument(
        "--runs", type=int, default=5,
        help="ground-truth runs per cell, median reported (default: 5)",
    )
    p_cal.add_argument(
        "--max-evals", type=int, default=80,
        help="objective evaluation budget for the fit (default: 80)",
    )
    p_cal.add_argument(
        "--cv-folds", type=int, default=0, metavar="K",
        help="k-fold cross-validation across workloads "
        "(0 = leave-one-out, the default)",
    )
    p_cal.add_argument(
        "--no-cv", action="store_true", help="skip cross-validation"
    )
    p_cal.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fit on N worker processes (0 = in-process)",
    )
    p_cal.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $VPPB_CACHE_DIR or ~/.cache/vppb)",
    )
    p_cal.add_argument(
        "--no-cache", action="store_true",
        help="keep the result cache in memory only (no disk reads/writes)",
    )
    p_cal.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )

    p_val = sub.add_parser(
        "validate",
        help="re-measure a profile's suite and gate on the error budget",
    )
    p_val.add_argument(
        "--profile", required=True, metavar="PATH",
        help="calibration profile to validate (from 'vppb calibrate')",
    )
    p_val.add_argument(
        "--budget", type=float, default=None, metavar="FRAC",
        help="per-cell |error| budget (default: 0.062, the paper's "
        "worst Table 1 cell)",
    )
    p_val.add_argument(
        "--drift-tolerance", type=float, default=None, metavar="FRAC",
        help="allowed |fresh - recorded| error before a cell counts as drift",
    )
    p_val.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report format (default: table)",
    )
    p_val.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="also write the JSON report here (the CI artifact)",
    )
    p_val.add_argument(
        "--attribute", action="store_true",
        help="break the worst cell's gap down by thread phase "
        "(running/runnable/blocked/sleeping)",
    )
    p_val.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="validate on N worker processes (0 = in-process)",
    )
    p_val.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $VPPB_CACHE_DIR or ~/.cache/vppb)",
    )
    p_val.add_argument(
        "--no-cache", action="store_true",
        help="keep the result cache in memory only (no disk reads/writes)",
    )
    p_val.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )

    p_aca = sub.add_parser(
        "calibrate-analytic",
        help="fit the analytic tier's interval margins against the DES",
    )
    p_aca.add_argument(
        "-o", "--output", default="profiles/analytic.json", metavar="PATH",
        help="where to write the profile (default: profiles/analytic.json)",
    )
    p_aca.add_argument(
        "--cpus", type=_parse_cpus, default=[1, 2, 4, 8],
        help="CPU counts in the calibration grid (default: 1,2,4,8)",
    )
    p_aca.add_argument(
        "--pad", type=float, default=None, metavar="FRAC",
        help="safety pad beyond the observed model-error range; wider "
        "brackets mean fewer bound violations off-suite but more "
        "escalations (default: 0.02)",
    )
    p_aca.add_argument(
        "--verify", metavar="PATH", default=None,
        help="instead of fitting, re-check that PATH's intervals bracket "
        "the DES on its own suite (exit 1 on violations)",
    )
    p_aca.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="simulate ground truth on N worker processes (0 = in-process)",
    )
    p_aca.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $VPPB_CACHE_DIR or ~/.cache/vppb)",
    )
    p_aca.add_argument(
        "--no-cache", action="store_true",
        help="keep the result cache in memory only (no disk reads/writes)",
    )
    p_aca.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )

    sub.add_parser("workloads", help="list bundled workloads")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.program.uniexec import record_program
    from repro.recorder.recorder import DEFAULT_PROBE_OVERHEAD_US
    from repro.workloads import get_workload

    try:
        workload = get_workload(args.workload)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    program = workload.make_program(args.threads, args.scale, seed=args.seed)
    overhead = (
        DEFAULT_PROBE_OVERHEAD_US if args.overhead is None else args.overhead
    )
    run = record_program(program, overhead_us=overhead)
    size = logfile.dump(run.trace, args.output)
    stats = run.trace.stats(serialized_bytes=size)
    print(
        f"recorded {program.name}: {stats.n_events} events, "
        f"{stats.n_threads} threads, {to_seconds(stats.duration_us):.3f}s "
        f"monitored, {size} bytes -> {args.output}"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    trace = logfile.load(args.log)
    plan = compile_trace(trace)
    print(f"{trace.meta.program}: {len(trace)} events, "
          f"{len(trace.thread_ids())} threads")
    # one base config (and one --profile read); the sweep sets each CPU count
    base = _config_from(args, 1)
    for pred in sweep_speedup(trace, args.cpus, base_config=base, plan=plan):
        print(
            f"  {pred.cpus:>2} CPUs: predicted speed-up {pred.speedup:.2f} "
            f"({to_seconds(pred.makespan_us):.3f}s vs "
            f"{to_seconds(pred.uniprocessor_us):.3f}s on one)"
        )
    return 0


def _cmd_visualize(args: argparse.Namespace) -> int:
    trace = logfile.load(args.log)
    # --lint exists for traces whose replay may deadlock (lock-order
    # inversions manifest under more CPUs): degrade to a partial replay
    # so the findings still render
    result = predict(trace, _config_from(args, args.cpus), strict=not args.lint)
    if result.incomplete:
        print(
            f"replay incomplete ({result.incompleteness.reason}); "
            "rendering the partial schedule",
            file=sys.stderr,
        )
    if args.chrome:
        from repro.visualizer.chrome_trace import save_chrome_trace

        out = args.output or "trace.json"
        save_chrome_trace(result, out, program=trace.meta.program)
        print(f"wrote {out} (open in chrome://tracing or ui.perfetto.dev)")
        return 0
    if args.html or args.lint:
        from repro.visualizer.html_report import save_html_report

        findings = None
        if args.lint:
            from repro.analysis.lint import run_lint

            findings = run_lint(trace)
        out = args.output or "report.html"
        save_html_report(
            result,
            out,
            title=f"{trace.meta.program} on {args.cpus} CPUs (predicted)",
            compress_threads=args.compress,
            findings=findings,
        )
        print(f"wrote {out}" + (f" ({findings.summary()})" if findings else ""))
        return 0
    if args.output:
        save_svg(
            result,
            args.output,
            width=args.width,
            compress_threads=args.compress,
            title=f"{trace.meta.program} on {args.cpus} CPUs (predicted)",
        )
        print(f"wrote {args.output}")
    else:
        print(render_ascii(result, width=args.width if args.width < 300 else 100))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.jobs import JobEngine, default_engine

    trace = logfile.load(args.log)
    if args.workers and args.workers > 1:
        engine = JobEngine(workers=args.workers, mode="process")
    else:
        engine = default_engine()
    try:
        base = _config_from(args, 1)
        predictions = engine.predict_speedups(
            trace,
            args.cpus,
            base_config=base,
            use_cache=not args.no_cache,
        )
        print(f"speed-up prediction for {trace.meta.program}")
        for pred in predictions:
            print(f"  {pred.cpus:>2} CPUs: {pred.speedup:.2f}")
        worst = max(args.cpus)
        result = predict(trace, base.with_cpus(worst))
        profiles = contention_by_object(result)[:5]
        if profiles:
            print(f"top blocking objects on {worst} CPUs:")
            for p in profiles:
                print(
                    f"  {str(p.obj):<24} blocked {to_seconds(p.total_blocked_us):.4f}s "
                    f"over {p.blocking_operations}/{p.operations} ops"
                )
    finally:
        if engine is not default_engine():
            engine.close()
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.errors import TraceError, VppbError
    from repro.jobs import JobEngine, ResultCache, SweepManifest, default_cache_dir
    from repro.jobs.manifest import run_manifest
    from repro.jobs.tiering import DEFAULT_TARGET_FRACTION

    try:
        manifest = SweepManifest.load(args.manifest)
    except VppbError as exc:  # AnalysisError (shape) or ConfigError (keys)
        print(f"batch: {exc}", file=sys.stderr)
        return 2

    analytic_profile = None
    if args.tier != "sim":
        from repro.analytic.profile import AnalyticProfile, default_profile_path
        from repro.core.errors import CalibrationError

        path = args.analytic_profile or default_profile_path()
        if path is None:
            print(
                "batch: --tier needs an analytic profile; run "
                "'vppb calibrate-analytic' or pass --analytic-profile",
                file=sys.stderr,
            )
            return 2
        try:
            analytic_profile = AnalyticProfile.load(path)
        except CalibrationError as exc:
            print(f"batch: {exc}", file=sys.stderr)
            return 2

    cache_root = None
    if not args.no_cache:
        cache_root = args.cache_dir or default_cache_dir()
    engine = JobEngine(
        workers=args.workers,
        mode="inline" if args.inline else "process",
        cache=ResultCache(cache_root),
    )
    try:
        report = run_manifest(
            manifest,
            engine,
            use_cache=not args.no_cache,
            tier=args.tier,
            analytic_profile=analytic_profile,
            target_fraction=(
                args.target if args.target is not None else DEFAULT_TARGET_FRACTION
            ),
        )
    except (OSError, TraceError) as exc:
        print(f"batch: cannot run {args.manifest}: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()

    text = report.to_json() if args.format == "json" else report.format_table()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(
            f"wrote {args.output} ({len(report.scenarios)} scenarios, "
            f"{len(report.failed)} failed)"
        )
    else:
        print(text)
    return 1 if report.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.jobs import JobEngine, ResultCache, default_cache_dir
    from repro.jobs.service import serve
    from repro.jobs.service_async import serve_async

    engine = JobEngine(
        workers=args.workers,
        cache=ResultCache(args.cache_dir or default_cache_dir()),
    )
    spool_dir = Path(args.spool_dir) if args.spool_dir else None
    if args.legacy:
        serve(
            host=args.host,
            port=args.port,
            engine=engine,
            spool_dir=spool_dir,
            verbose=not args.quiet,
        )
        return 0
    max_body_bytes = (
        int(args.max_body_mb * 1024 * 1024) if args.max_body_mb else None
    )
    serve_async(
        host=args.host,
        port=args.port,
        engine=engine,
        spool_dir=spool_dir,
        max_inflight=args.max_inflight,
        default_deadline_s=args.deadline,
        max_body_bytes=max_body_bytes,
        drain_timeout_s=args.drain_timeout,
        verbose=not args.quiet,
    )
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.jobs.client import ClientError, ServiceClient

    client = ServiceClient(
        args.host,
        args.port,
        timeout_s=args.timeout,
        attempts=args.attempts,
    )
    try:
        if args.action == "ready":
            payload = client.ready()
            print(json.dumps(payload, indent=2))
            return 0 if payload.get("status") == "ready" else 1
        if args.action == "metrics":
            print(json.dumps(client.metrics(), indent=2))
            return 0
        if args.log is None:
            print(f"client {args.action}: needs a log file", file=sys.stderr)
            return 2
        upload = client.upload_trace(args.log, stream=args.stream)
        if args.action == "upload":
            print(json.dumps(upload, indent=2))
            return 0
        cpus = [int(n) for n in str(args.cpus).split(",") if n]
        payload = client.predict(
            trace=upload["trace"],
            cpus=cpus,
            binding=args.binding,
            deadline_s=args.deadline,
        )
        print(json.dumps(payload, indent=2))
        return 0
    except ClientError as exc:
        if exc.status == 504 and exc.partial is not None:
            print(json.dumps(exc.body, indent=2))
            print(
                f"client: deadline exceeded after {exc.attempts} attempt(s); "
                "partial result above",
                file=sys.stderr,
            )
            return 1
        print(f"client: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 2


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.visualizer.stats import format_thread_stats

    trace = logfile.load(args.log)
    if args.format == "json":
        # the analytic tier's input: pure trace decomposition, no replay
        from repro.analytic import extract_stats

        print(json.dumps(extract_stats(trace).to_dict(), indent=2, sort_keys=True))
        return 0
    result = predict(trace, _config_from(args, args.cpus))
    print(
        f"{trace.meta.program} on {args.cpus} CPUs (predicted), "
        f"makespan {to_seconds(result.makespan_us):.3f}s:"
    )
    print(format_thread_stats(result, top=args.top))
    return 0


def _cmd_knee(args: argparse.Namespace) -> int:
    from repro.analysis.whatif import find_knee

    trace = logfile.load(args.log)
    knee = find_knee(
        trace,
        target_fraction=args.target,
        max_cpus=args.max_cpus,
        base_config=_config_from(args, 1),
    )
    print(
        f"{trace.meta.program}: {knee.cpus} CPU(s) reach "
        f"{knee.speedup:.2f}x of an achievable {knee.bound:.2f}x "
        f"({knee.fraction_of_bound:.0%} of the bound)"
    )
    return 0


def _whatif_schedulers(args: argparse.Namespace) -> int:
    """Cross-OS what-if: one trace, several simulated kernels.

    Every cell (and the shared recorded-uniprocessor baseline) runs
    through the default :class:`JobEngine` and its result cache, so
    repeated comparisons are served from content-addressed results.
    """
    from repro.jobs import default_engine
    from repro.sched import available_backends

    names = [s.strip() for s in args.scheduler.split(",") if s.strip()]
    known = available_backends()
    for name in names:
        if name not in known:
            print(
                f"whatif: unknown scheduler {name!r} "
                f"(known: {', '.join(known)})",
                file=sys.stderr,
            )
            return 2
    if not names:
        print("whatif: --scheduler needs at least one name", file=sys.stderr)
        return 2

    trace = logfile.load(args.log)
    engine = default_engine()
    base = _config_from(args, 1)
    rows = []
    for name in names:
        preds = engine.predict_speedups(
            trace, [args.cpus], base_config=base.with_scheduler(name)
        )
        rows.append((name, preds[0]))
    print(
        f"cross-kernel what-if for {trace.meta.program} on {args.cpus} "
        "CPUs (baseline: recorded uniprocessor run)"
    )
    print(f"{'scheduler':<10} {'makespan':>12} {'speedup':>8}")
    for name, pred in rows:
        print(f"{name:<10} {pred.makespan_us:>10}us {pred.speedup:>8.2f}")
    best = max(rows, key=lambda r: r[1].speedup)
    print(f"best: {best[0]} ({best[1].speedup:.2f}x)")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_results, format_comparison
    from repro.analysis.transform import (
        scale_compute,
        scale_critical_sections,
        scale_io,
        split_lock,
    )
    from repro.core.simulator import Simulator

    if args.scheduler is not None:
        transforms = (
            args.scale_compute, args.scale_io, args.scale_cs, args.shard_lock,
        )
        if any(t is not None for t in transforms):
            print(
                "whatif: --scheduler cannot be combined with trace "
                "transformations",
                file=sys.stderr,
            )
            return 2
        return _whatif_schedulers(args)

    trace = logfile.load(args.log)
    plan = compile_trace(trace)
    transformed = plan
    applied = []
    if args.scale_compute is not None:
        transformed = scale_compute(transformed, args.scale_compute)
        applied.append(f"compute x{args.scale_compute}")
    if args.scale_io is not None:
        transformed = scale_io(transformed, args.scale_io)
        applied.append(f"io x{args.scale_io}")
    if args.scale_cs is not None:
        lock, _, factor = args.scale_cs.rpartition(":")
        transformed = scale_critical_sections(transformed, lock, float(factor))
        applied.append(f"critical section of {lock!r} x{factor}")
    if args.shard_lock is not None:
        lock, _, ways = args.shard_lock.rpartition(":")
        transformed = split_lock(transformed, lock, int(ways))
        applied.append(f"{lock!r} split {ways} ways")
    if not applied:
        print("no transformation requested (see --help)", file=sys.stderr)
        return 2

    config = _config_from(args, args.cpus)
    before = Simulator(config).run_replay(plan)
    after = Simulator(config).run_replay(transformed)
    print(f"what-if on {args.cpus} CPUs: " + "; ".join(applied))
    print(format_comparison(compare_results(before, after)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_results, format_comparison

    config = _config_from(args, args.cpus)
    before = predict(logfile.load(args.before), config)
    after = predict(logfile.load(args.after), config)
    report = compare_results(before, after)
    print(f"performance change on {args.cpus} CPUs (predicted):")
    print(format_comparison(report))
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Diagnose a log file without ever raising.

    Exit status: 0 — healthy (strict parse, complete replay); 1 — usable
    but damaged (salvaged, or replay came back partial); 2 — unusable
    (unreadable file, or nothing salvageable).
    """
    from repro.core.errors import LogFormatError, TraceError, VppbError
    from repro.core.engine import Watchdog
    from repro.recorder.salvage import salvage_loads

    try:
        with open(args.log, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"doctor: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2

    def _salvage():
        result = salvage_loads(text, source=str(args.log))
        report = result.report
        print(f"salvage: {report.summary()}")
        for kind, count in sorted(report.counts_by_kind().items()):
            print(f"  {count:>4}x {kind}")
        if args.repairs:
            shown = report.repairs[: args.repairs]
            for repair in shown:
                where = f"line {repair.lineno}: " if repair.lineno else ""
                print(f"    {where}{repair.kind}: {repair.detail}")
            if len(report.repairs) > len(shown):
                print(f"    ... and {len(report.repairs) - len(shown)} more")
        return result.trace

    salvaged = False
    try:
        trace = logfile.loads(text, mode="strict", source=str(args.log))
    except TraceError as exc:
        print(f"strict parse failed: {exc}")
        if isinstance(exc, LogFormatError) and exc.snippet():
            for line in exc.snippet().splitlines():
                print(f"    {line}")
        trace = _salvage()
        salvaged = True
    else:
        print(
            f"strict parse ok: {len(trace)} records, "
            f"{len(trace.thread_ids())} threads"
        )

    if len(trace) == 0:
        print("diagnosis: UNUSABLE — nothing salvageable from this log")
        return 2

    incomplete = False
    if not args.no_replay:
        watchdog = Watchdog(
            max_events=args.max_events, max_wall_s=args.max_wall
        )

        def _dry_run(t):
            return predict(
                t, SimConfig(cpus=args.cpus), watchdog=watchdog, strict=False
            )

        try:
            result = _dry_run(trace)
        except VppbError as exc:
            # A log can parse strictly yet not replay (e.g. truncation
            # that happened to leave every line well-formed but cut calls
            # off from their returns).  Salvage repairs exactly that.
            print(f"replay dry-run failed: {exc}")
            if not salvaged:
                trace = _salvage()
                salvaged = True
            try:
                result = _dry_run(trace) if len(trace) else None
            except VppbError as exc2:
                print(f"replay of salvaged trace failed: {exc2}")
                result = None
            if result is None:
                print("diagnosis: UNUSABLE — the trace cannot be replayed")
                return 2
        if result.incomplete:
            incomplete = True
            print(f"replay dry-run: partial — {result.incompleteness.describe()}")
        else:
            print(
                f"replay dry-run ok: {args.cpus} CPUs, makespan "
                f"{to_seconds(result.makespan_us):.3f}s"
            )

    if salvaged or incomplete:
        verdict = []
        if salvaged:
            verdict.append("log damaged but salvaged")
        if incomplete:
            verdict.append("replay incomplete")
        print(f"diagnosis: DEGRADED — {'; '.join(verdict)}")
        return 1
    print("diagnosis: HEALTHY")
    return 0


def _lint_baseline_fingerprints(path: str) -> set:
    """Fingerprints to suppress, from any report shape we ever emit.

    Accepts the ``--format json`` report, a SARIF log (reading
    ``partialFingerprints``), a JSON list of fingerprint strings, or
    plain text with one fingerprint per line (``#`` comments allowed).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError:
        return {
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        }
    fps: set = set()
    if isinstance(data, list):
        fps.update(str(v) for v in data if isinstance(v, str))
    elif isinstance(data, dict):
        for f in data.get("findings", ()):
            if isinstance(f, dict) and f.get("fingerprint"):
                fps.add(str(f["fingerprint"]))
        for run in data.get("runs", ()):
            for result in run.get("results", ()):
                partial = result.get("partialFingerprints", {})
                if partial.get("vppbFingerprint/v1"):
                    fps.add(str(partial["vppbFingerprint/v1"]))
    return fps


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of a recorded log.

    Exit status: 0 — no finding reached the ``--fail-on`` severity
    (after ``--baseline`` suppression); 1 — at least one did; 2 — bad
    request (unknown rule id, unreadable log, bad severity).  Damaged
    logs are salvaged and linted anyway (with an incomplete-input note)
    unless ``--strict-parse`` forbids it.
    """
    from repro.analysis.lint import (
        LintReport,
        Severity,
        find_witness,
        render_json,
        render_text,
        replay_witness,
        run_lint,
        sarif_json,
        whatif_lint,
    )
    from repro.core.errors import AnalysisError, TraceError, VppbError

    fail_on: Optional[Severity]
    if args.fail_on.lower() == "never":
        fail_on = None
    else:
        try:
            fail_on = Severity.parse(args.fail_on)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2

    # lenient load: a partially corrupt log still carries evidence, so
    # lint what the salvage pipeline can keep (doctor's loader)
    try:
        with open(args.log, "r", encoding="utf-8", errors="replace") as fh:
            log_text = fh.read()
    except OSError as exc:
        print(f"lint: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    salvage = None
    try:
        trace = logfile.loads(log_text, mode="strict", source=str(args.log))
    except TraceError as exc:
        if args.strict_parse:
            print(f"lint: cannot load {args.log}: {exc}", file=sys.stderr)
            return 2
        from repro.recorder.salvage import salvage_loads

        result = salvage_loads(log_text, source=str(args.log))
        if len(result.trace) == 0:
            print(
                f"lint: nothing salvageable from {args.log}: {exc}",
                file=sys.stderr,
            )
            return 2
        trace, salvage = result.trace, result.report
        print(f"lint: salvaged input — {salvage.summary()}", file=sys.stderr)

    try:
        report = run_lint(
            trace, select=args.select, ignore=args.ignore, salvage=salvage
        )
    except AnalysisError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.whatif:
        from repro.jobs import SweepManifest

        try:
            with open(args.whatif, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                data.setdefault("trace", str(args.log))
            manifest = SweepManifest.from_dict(data)
        except (OSError, ValueError, AnalysisError) as exc:
            print(f"lint: bad --whatif manifest: {exc}", file=sys.stderr)
            return 2
        engine = _calib_engine(args)
        with engine:
            res = whatif_lint(trace, manifest, report=report, engine=engine)
        report = res.report
        for cell in res.cells:
            where = "cache" if cell.from_cache else "probe"
            verdict = cell.replay_status or cell.error or cell.status
            print(
                f"lint: whatif {cell.label}: {verdict} ({where})",
                file=sys.stderr,
            )

    if args.replay_witness:
        witness = find_witness(report, args.replay_witness)
        if witness is None:
            print(
                f"lint: no finding carries a witness matching "
                f"{args.replay_witness!r}",
                file=sys.stderr,
            )
            return 2
        try:
            replay = replay_witness(trace, witness)
        except VppbError as exc:
            print(f"lint: witness replay failed: {exc}", file=sys.stderr)
            return 2
        shown = "EXHIBITED" if replay.exhibited else "NOT EXHIBITED"
        print(
            f"witness {witness.digest[:12]} ({witness.kind}, "
            f"{witness.cpus} cpu): {shown} — {replay.detail}"
        )
        return 0 if replay.exhibited else 1

    if args.baseline:
        try:
            baselined = _lint_baseline_fingerprints(args.baseline)
        except OSError as exc:
            print(f"lint: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        kept = [f for f in report if f.fingerprint() not in baselined]
        suppressed = len(report) - len(kept)
        if suppressed:
            print(
                f"lint: {suppressed} finding(s) suppressed by baseline",
                file=sys.stderr,
            )
        report = LintReport(
            program=report.program,
            findings=kept,
            rules_run=report.rules_run,
        ).sorted()

    if args.format == "sarif":
        text = sarif_json(report)
    elif args.format == "json":
        text = render_json(report)
    else:
        text = render_text(report, explain=not args.no_explain)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output} ({report.summary()})")
    else:
        print(text)

    if fail_on is not None and report.at_least(fail_on):
        return 1
    return 0


def _calib_engine(args: argparse.Namespace):
    """Engine for calibrate/validate honouring the cache/worker flags."""
    from repro.jobs import JobEngine, ResultCache, default_cache_dir

    cache_root = None
    if not args.no_cache:
        cache_root = args.cache_dir or default_cache_dir()
    mode = "process" if args.workers and args.workers > 1 else "inline"
    return JobEngine(
        workers=args.workers if mode == "process" else None,
        mode=mode,
        cache=ResultCache(cache_root),
    )


def _calib_progress(args: argparse.Namespace):
    if args.quiet:
        return None
    return lambda message: print(f"calib: {message}", file=sys.stderr)


def _parse_workload_arg(text: str, args: argparse.Namespace):
    """``NAME[:THREADS[:SCALE]]`` → WorkloadSpec with the shared flags."""
    from repro.calib import WorkloadSpec
    from repro.calib.measure import DEFAULT_SEED

    name, _, rest = text.partition(":")
    threads_s, _, scale_s = rest.partition(":")
    try:
        return WorkloadSpec(
            name=name,
            threads=int(threads_s) if threads_s else 4,
            scale=float(scale_s) if scale_s else 1.0,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            cpus=tuple(args.cpus),
            runs=args.runs,
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad workload spec {text!r}: {exc}")


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Exit status: 0 — profile written; 2 — the suite cannot be
    measured or the fit failed."""
    from dataclasses import replace as dc_replace

    from repro.calib import calibrate, default_suite, format_error_table
    from repro.core.errors import CalibrationError

    try:
        if args.workload:
            specs = [_parse_workload_arg(w, args) for w in args.workload]
        else:
            specs = default_suite()
            specs = [
                dc_replace(
                    s,
                    cpus=tuple(args.cpus),
                    runs=args.runs,
                    **({"seed": args.seed} if args.seed is not None else {}),
                )
                for s in specs
            ]
    except (argparse.ArgumentTypeError, CalibrationError) as exc:
        print(f"calibrate: {exc}", file=sys.stderr)
        return 2

    engine = _calib_engine(args)
    try:
        profile = calibrate(
            specs,
            engine=engine,
            max_evals=args.max_evals,
            cv_folds=None if args.no_cv else args.cv_folds,
            progress=_calib_progress(args),
        )
    except CalibrationError as exc:
        print(f"calibrate: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()

    path = profile.save(args.output)
    print(format_error_table(profile.error_table))
    print(
        f"mean |error| {profile.baseline_objective:.2%} (defaults) -> "
        f"{profile.objective:.2%} (fitted) in {profile.evaluations} "
        f"evaluations"
    )
    if profile.cv:
        print(
            f"cross-validation: mean holdout {profile.cv['mean_holdout']:.2%}, "
            f"worst {profile.cv['worst_holdout']:.2%}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Exit status: 0 — within budget, no drift; 1 — drift (the fresh
    error table left the profile's recorded one); 2 — over the error
    budget, or the profile/suite is unusable."""
    import json as json_mod

    from repro.calib import (
        DEFAULT_DRIFT_TOLERANCE,
        DEFAULT_ERROR_BUDGET,
        CalibrationProfile,
        format_validation,
        validate,
    )
    from repro.core.errors import CalibrationError

    try:
        profile = CalibrationProfile.load(args.profile)
    except CalibrationError as exc:
        print(f"validate: {exc}", file=sys.stderr)
        return 2

    engine = _calib_engine(args)
    try:
        report = validate(
            profile,
            profile_path=str(args.profile),
            engine=engine,
            budget=(
                args.budget if args.budget is not None else DEFAULT_ERROR_BUDGET
            ),
            drift_tolerance=(
                args.drift_tolerance
                if args.drift_tolerance is not None
                else DEFAULT_DRIFT_TOLERANCE
            ),
            progress=_calib_progress(args),
        )
    except CalibrationError as exc:
        print(f"validate: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()

    if args.format == "json":
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_validation(report))

    if args.attribute:
        _print_attribution(profile, report)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json_mod.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return report.exit_code


def _print_attribution(profile, report) -> int:
    """Phase breakdown of the worst cell's real-vs-predicted gap."""
    from repro.analysis.compare import attribute_error, format_attribution
    from repro.program.mpexec import run_multiprocessor
    from repro.workloads import get_workload

    worst = report.worst
    spec = next(s for s in profile.suite if s.name == worst.workload)
    workload = get_workload(spec.name)
    config = profile.apply(SimConfig()).with_cpus(worst.cpus)
    # noise-free ground-truth run vs the profile-configured replay
    real = run_multiprocessor(
        workload.make_program(spec.threads, spec.scale, seed=spec.seed),
        config,
    )
    from repro.program.uniexec import record_program

    recording = record_program(
        workload.make_program(spec.threads, spec.scale, seed=spec.seed),
        overhead_us=spec.probe_overhead_us,
    )
    predicted = predict(recording.trace, config)
    print(
        f"attribution for worst cell ({worst.workload}@{worst.cpus}cpu, "
        f"error {worst.error:+.2%}):"
    )
    print(format_attribution(attribute_error(real, predicted)))
    return 0


def _cmd_calibrate_analytic(args: argparse.Namespace) -> int:
    """Exit status: 0 — profile written (or --verify clean); 1 — --verify
    found bracket violations; 2 — calibration failed."""
    from repro.analytic import (
        DEFAULT_PAD,
        AnalyticProfile,
        calibrate_analytic,
        verify_profile,
    )
    from repro.core.errors import CalibrationError

    engine = _calib_engine(args)
    try:
        if args.verify:
            profile = AnalyticProfile.load(args.verify)
            violations = verify_profile(
                profile,
                engine=engine,
                use_cache=not args.no_cache,
                progress=_calib_progress(args),
            )
            if violations:
                for line in violations:
                    print(f"calibrate-analytic: VIOLATION {line}", file=sys.stderr)
                return 1
            print(
                f"calibrate-analytic: {args.verify} brackets the DES on all "
                f"{profile.samples} suite cells"
            )
            return 0
        profile = calibrate_analytic(
            engine=engine,
            cpus=tuple(args.cpus),
            pad=args.pad if args.pad is not None else DEFAULT_PAD,
            use_cache=not args.no_cache,
            progress=_calib_progress(args),
        )
    except CalibrationError as exc:
        print(f"calibrate-analytic: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()

    path = profile.save(args.output)
    print(
        f"calibrated {len(profile.margins)} margin keys over "
        f"{profile.samples} cells (pad {profile.pad:.0%}); wrote {path}"
    )
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    for w in all_workloads():
        print(f"{w.name:<16} {w.description}")
    return 0


_COMMANDS = {
    "record": _cmd_record,
    "predict": _cmd_predict,
    "visualize": _cmd_visualize,
    "report": _cmd_report,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "stats": _cmd_stats,
    "knee": _cmd_knee,
    "whatif": _cmd_whatif,
    "compare": _cmd_compare,
    "doctor": _cmd_doctor,
    "lint": _cmd_lint,
    "calibrate": _cmd_calibrate,
    "calibrate-analytic": _cmd_calibrate_analytic,
    "validate": _cmd_validate,
    "workloads": _cmd_workloads,
}


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.errors import VppbError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except VppbError as exc:
        # a command let a library error escape (bad profile on --profile,
        # unmonitorable workload, ...): report it, don't traceback
        print(f"vppb {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
