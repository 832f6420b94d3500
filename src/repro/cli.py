"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the paper's workflow:

* ``list``     — the Table-1 firmware registry
* ``probe``    — run the Prober on one firmware and print the DSL specs
* ``replay``   — replay a catalog bug's reproducer under a deployment
* ``fuzz``     — run a fuzzing campaign with EMBSAN attached
* ``fuzz-all`` — the full Table-3 sweep, optionally as a supervised
  multi-process fleet (``--workers N``) or a sharded single-firmware
  fleet (``--shard N``) cooperating through a shared corpus store
* ``corpus``   — inspect and maintain persistent corpus stores
  (``ls`` / ``distill`` / ``merge`` / ``export`` / ``import``)
* ``stats``    — render a ``--metrics`` JSON file as a readable table
* ``overhead`` — measure Figure-2 slowdowns for one or all firmware
* ``table2``   — the known-bug detection matrix
* ``serve``    — the always-on fuzzing daemon: a crash-safe WAL-backed
  job queue plus a JSONL control API (see ``docs/serve.md``)
* ``submit`` / ``jobs`` / ``drain`` — thin clients for a running
  ``serve`` daemon

Exit codes: 0 success, 1 replay miss, 2 usage error, 3 degraded — a
campaign exhausted its crash budget, or a fleet job exhausted its
retry budget and was abandoned; 4 interrupted — SIGTERM/SIGINT drained
a sweep cleanly and its checkpoints resume it; 5 rejected — the serve
daemon applied backpressure (retry after the advertised delay).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.fuzz.config import (
    EXEC_MODES,
    SEED_SCHEDULES,
    SURFACES,
    CampaignConfig,
)


def _cmd_list(_args) -> int:
    from repro.firmware.registry import all_firmware

    print(f"{'Firmware':24s} {'Base OS':15s} {'Arch':5s} {'Mode':9s} "
          f"{'Source':7s} Fuzzer")
    for spec in all_firmware():
        print(f"{spec.name:24s} {spec.base_os:15s} {spec.arch:5s} "
              f"{spec.inst_mode.value:9s} {spec.source:7s} {spec.fuzzer}")
    return 0


def _cmd_probe(args) -> int:
    from repro import prepare

    deployment = prepare(args.firmware, sanitizers=tuple(args.sanitizers))
    print(deployment.dsl_text())
    return 0


def _cmd_replay(args) -> int:
    from repro.bugs.catalog import TABLE2_BUGS, TABLE4_BUGS
    from repro.bugs.replay import replay_on_embsan, replay_on_native
    from repro.firmware.instrument import InstrumentationMode
    from repro.firmware.registry import firmware_spec

    catalog = {record.bug_id: record for record in TABLE2_BUGS + TABLE4_BUGS}
    record = catalog.get(args.bug)
    if record is None:
        print(f"unknown bug id {args.bug!r}; known ids: "
              f"{', '.join(sorted(catalog))}", file=sys.stderr)
        return 2
    if args.deployment == "native":
        result = replay_on_native(record)
    else:
        mode = (InstrumentationMode.EMBSAN_C if args.deployment == "embsan-c"
                else InstrumentationMode.EMBSAN_D if args.deployment == "embsan-d"
                else firmware_spec(record.firmware).inst_mode
                if record.firmware else InstrumentationMode.EMBSAN_C)
        result = replay_on_embsan(record, mode)
    print(f"bug {record.bug_id} ({record.location}) under {result.mode}: "
          f"{'DETECTED' if result.detected else 'not detected'}")
    for report in result.reports:
        print()
        print(report)
    return 0 if result.detected else 1


def _make_observer(args):
    """Build an Observer when ``--metrics``/``--trace`` asked for one."""
    if not (getattr(args, "metrics", None) or getattr(args, "trace", None)):
        return None
    from repro.obs import Observer

    return Observer(metrics=bool(args.metrics), trace=bool(args.trace))


def _write_observer(observer, args) -> None:
    """Flush an Observer's sinks to the paths the CLI was given."""
    if observer is None:
        return
    if args.metrics:
        observer.write_metrics(args.metrics)
        print(f"metrics written to {args.metrics}")
    if args.trace:
        observer.write_trace(args.trace)
        print(f"trace written to {args.trace}")


#: Every campaign flag, declared once: the :class:`CampaignConfig`
#: field it sets and its argparse options.  A flag left at ``None``
#: takes the config's code default; ``--budget`` and ``--seed`` have
#: CLI-specific defaults.
_CAMPAIGN_FLAGS = {
    "budget": dict(type=int, default=2000, help="fuzz executions"),
    "seed": dict(type=int, default=1, help="campaign RNG seed"),
    "faults": dict(metavar="SPEC",
                   help="fault plan DSL, e.g. 'alloc:every=50;"
                        "bitflip:0x20000000-0x20001000:p=0.001;"
                        "irq:drop=0.05' (compiled per campaign)"),
    "checkpoint_every": dict(type=int, default=CampaignConfig.checkpoint_every,
                             help="execs between checkpoints (0 = default "
                                  "cadence); results are deterministic per "
                                  "(seed, cadence) pair"),
    "crash_budget": dict(type=int,
                         help="host crashes tolerated before degradation"),
    "watchdog_insns": dict(type=int, help="per-program instruction budget "
                                          "before GuestHang"),
    "watchdog_cycles": dict(type=float,
                            help="per-program cycle budget before GuestHang"),
    "exec_mode": dict(default=CampaignConfig.exec_mode, choices=EXEC_MODES,
                      help="target reset strategy: per-program journal + "
                           "rebuild-per-refresh, or a golden fork-server "
                           "snapshot with dirty-page delta restores "
                           "(same census, higher execs/s)"),
    "seed_schedule": dict(default=CampaignConfig.seed_schedule,
                          choices=SEED_SCHEDULES,
                          help="corpus seed selection; 'rarity' weights "
                               "programs by how rare their coverage is"),
    "surface": dict(default=CampaignConfig.surface, choices=SURFACES,
                    help="fuzz surface: the syscall/task API (default) or "
                         "the driver-op surface of a build with modeled "
                         "peripherals (docs/peripherals.md); fuzz-all "
                         "sweeps only firmware modeling peripherals"),
}


def _add_campaign_flags(parser, *names: str) -> None:
    """Declare the named campaign flags (from ``_CAMPAIGN_FLAGS``)."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"),
                            **_CAMPAIGN_FLAGS[name])
    parser.set_defaults(campaign_flags=names)


def _campaign_knobs(args) -> dict:
    """The campaign knobs a parsed command line sets."""
    knobs = {name: getattr(args, name) for name in args.campaign_flags}
    return {name: value for name, value in knobs.items() if value is not None}


def _campaign_config(args, firmware: str):
    """The command line's :class:`CampaignConfig`; exits 2 if invalid."""
    from repro.errors import FuzzerError

    try:
        return CampaignConfig(firmware, **_campaign_knobs(args))
    except FuzzerError as exc:
        print(f"invalid campaign: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_fuzz(args) -> int:
    import json

    from repro.fuzz.campaign import run_campaign
    from repro.obs.observer import ensure_parent

    observer = _make_observer(args)
    config = _campaign_config(args, args.firmware)
    result = run_campaign(
        config,
        checkpoint_path=args.checkpoint,
        corpus_dir=args.corpus_dir,
        observer=observer,
    )
    print(f"fuzzer: {result.fuzzer}, seed: {result.seed}, "
          f"budget: {result.budget}, execs: {result.execs}, "
          f"coverage: {result.coverage}, crashes: {result.crashes}")
    if config.faults:
        from repro.emulator.faults import plan_for

        print(f"fault plan: "
              f"{plan_for(config.faults, seed=config.seed).describe()}")
    reproducible = [f for f in result.findings if f.reproducible]
    print(f"{len(reproducible)} reproducible unique finding(s):")
    for finding in reproducible:
        print(f"  {finding.report.dedup_key()}")
    if result.matched:
        print(f"catalog rows matched: {sorted(result.matched)}")
    if result.missed:
        print(f"catalog rows missed: {[r.bug_id for r in result.missed]}")
    diagnostics = result.diagnostics
    degraded = False
    if diagnostics is not None:
        if diagnostics.corpus:
            stats = diagnostics.corpus
            print(f"corpus: {stats.get('size', 0)} entr(ies), "
                  f"{stats.get('inserts', 0)} insert(s), "
                  f"{stats.get('dedup_hits', 0)} dedup hit(s), "
                  f"{stats.get('imported', 0)} imported")
        print(f"diagnostics: {diagnostics.summary()}")
        if diagnostics.checkpoint_discarded:
            print(f"checkpoint discarded as corrupt: "
                  f"{diagnostics.checkpoint_discarded}")
        if args.diagnostics:
            with open(ensure_parent(args.diagnostics), "w",
                      encoding="utf-8") as fh:
                json.dump(diagnostics.to_json(), fh, indent=2)
            print(f"diagnostics written to {args.diagnostics}")
        degraded = diagnostics.degraded
    if args.results:
        from repro.fuzz.checkpoint import result_to_json

        with open(ensure_parent(args.results), "w", encoding="utf-8") as fh:
            json.dump(result_to_json(result), fh, sort_keys=True)
        print(f"results written to {args.results}")
    _write_observer(observer, args)
    return 3 if degraded else 0


def _install_drain_handlers(state):
    """SIGTERM/SIGINT -> graceful drain for long sweeps.

    While a fleet supervisor is registered in ``state["sup"]`` the
    signal interrupts it (running attempts are killed, checkpoints
    stay, ``run()`` returns with ``interrupted=True``); otherwise the
    sequential path's ``KeyboardInterrupt`` handling takes over.
    Returns the previous handlers for restoration.
    """
    import signal

    def _graceful(_signum, _frame):
        state["hit"] = True
        sup = state.get("sup")
        if sup is not None:
            sup.interrupt()
        else:
            raise KeyboardInterrupt

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _graceful)
        except ValueError:  # not the main thread (tests)
            pass
    return previous


def _restore_handlers(previous) -> None:
    import signal

    for sig, handler in previous.items():
        signal.signal(sig, handler)


def _cmd_fuzz_all(args) -> int:
    import json

    from repro.fuzz.checkpoint import result_to_json
    from repro.fuzz.supervisor import FleetSupervisor, make_jobs
    from repro.obs.observer import ensure_parent

    observer = _make_observer(args)
    if args.shard:
        return _fuzz_sharded(args, observer)
    jobs = make_jobs(
        firmware=args.firmware or None,
        checkpoint_dir=args.checkpoint_dir,
        **_campaign_knobs(args),
    )
    fleet = None
    interrupted = False
    unfinished = []
    drain_state = {"sup": None, "hit": False}
    previous_handlers = _install_drain_handlers(drain_state)
    try:
        if args.workers <= 1:
            # sequential reference path: same jobs and job runner, no
            # worker processes — the fleet's determinism contract is
            # that --workers N output is byte-identical to this
            results = []
            try:
                for job in jobs:
                    results.append(job.run(observer=observer))
            except KeyboardInterrupt:
                # the drain contract: the last full checkpoint of the
                # in-flight campaign is already on disk; a rerun with
                # the same flags resumes it mid-budget
                interrupted = True
            unfinished = [job.job_id for job in jobs[len(results):]]
            results = results + [None] * len(unfinished)
        else:
            transport = None
            if args.listen:
                from repro.fuzz.transport import TcpJsonlTransport

                host, _, port = args.listen.rpartition(":")
                transport = TcpJsonlTransport(
                    host or "127.0.0.1", int(port), token=args.token,
                    spawn_fallback=not args.no_spawn_fallback,
                )
                print(f"listening for remote workers on {transport.address}")
                if args.wait_remote:
                    if not transport.wait_for_workers(
                            args.wait_remote,
                            timeout=args.wait_remote_timeout):
                        print(f"only some of the {args.wait_remote} remote "
                              f"worker(s) arrived within "
                              f"{args.wait_remote_timeout}s", file=sys.stderr)
                        transport.close()
                        return 2
            try:
                supervisor = FleetSupervisor(
                    jobs,
                    workers=args.workers,
                    heartbeat_timeout=args.heartbeat_timeout,
                    max_retries=args.max_retries,
                    backoff_base=args.backoff,
                    events_path=args.events_log,
                    observer=observer,
                    transport=transport,
                )
                drain_state["sup"] = supervisor
                if drain_state["hit"]:  # signal raced the registration
                    supervisor.interrupt()
                fleet = supervisor.run()
            finally:
                drain_state["sup"] = None
                if transport is not None:
                    transport.close()
            results = fleet.results
            interrupted = fleet.interrupted
            unfinished = fleet.unfinished
    finally:
        _restore_handlers(previous_handlers)

    degraded = False
    print(f"{'Firmware':24s} {'Execs':>6s} {'Crashes':>8s} {'Found':>6s}")
    for job, result in zip(jobs, results):
        if result is None:
            if interrupted and job.job_id in unfinished:
                print(f"{job.config.firmware:24s} {'-':>6s} {'-':>8s} "
                      f"{'-':>6s}  INTERRUPTED (checkpoint resumes it)")
                continue
            degraded = True
            print(f"{job.config.firmware:24s} {'-':>6s} {'-':>8s} "
                  f"{'-':>6s}  DEGRADED (abandoned after retries)")
            continue
        total = result.found_count() + len(result.missed)
        print(f"{result.firmware:24s} {result.execs:6d} "
              f"{result.crashes:8d} {result.found_count():3d}/{total:d}")
        if result.diagnostics is not None:
            if result.diagnostics.checkpoint_discarded:
                print(f"  checkpoint discarded as corrupt: "
                      f"{result.diagnostics.checkpoint_discarded}")
            degraded = degraded or result.diagnostics.degraded
    if fleet is not None:
        print(f"fleet: {fleet.diagnostics.summary()}")
        if args.events_log:
            print(f"events written to {args.events_log}")
    if args.diagnostics and fleet is not None:
        with open(ensure_parent(args.diagnostics), "w",
                  encoding="utf-8") as fh:
            json.dump(fleet.diagnostics.to_json(), fh, indent=2)
        print(f"fleet diagnostics written to {args.diagnostics}")
    if args.results:
        payload = [
            None if result is None else result_to_json(result)
            for result in results
        ]
        with open(ensure_parent(args.results), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        print(f"results written to {args.results}")
    _write_observer(observer, args)
    if interrupted:
        print(f"interrupted: {len(unfinished)} campaign(s) unfinished; "
              f"re-run with the same flags to resume from checkpoints")
        return 4
    return 3 if degraded else 0


def _fuzz_sharded(args, observer) -> int:
    """``fuzz-all --shard N``: one firmware, N cooperating shards."""
    import json

    from repro.fuzz.checkpoint import result_to_json
    from repro.fuzz.supervisor import run_sharded_fleet
    from repro.obs.observer import ensure_parent

    if not args.firmware or len(args.firmware) != 1:
        print("--shard fuzzes ONE firmware with N cooperating workers; "
              "pass exactly one --firmware NAME", file=sys.stderr)
        return 2
    config = _campaign_config(args, args.firmware[0])
    sharded = run_sharded_fleet(
        config,
        budget=config.budget,
        shards=args.shard,
        workers=args.workers,
        sync_every=args.sync_every,
        corpus_dir=args.corpus_dir,
        checkpoint_dir=args.checkpoint_dir,
        observer=observer,
        events_path=args.events_log,
        fleet_options=dict(
            heartbeat_timeout=args.heartbeat_timeout,
            max_retries=args.max_retries,
            backoff_base=args.backoff,
        ),
    )
    print(f"{'Shard':>5s} {'Execs':>6s} {'Crashes':>8s} {'Found':>6s}")
    for index, result in enumerate(sharded.shard_results):
        if result is None:
            print(f"{index:5d} {'-':>6s} {'-':>8s} {'-':>6s}  "
                  f"DEGRADED (abandoned after retries)")
            continue
        total = result.found_count() + len(result.missed)
        print(f"{index:5d} {result.execs:6d} {result.crashes:8d} "
              f"{result.found_count():3d}/{total:d}")
    merged = sharded.result
    if merged is not None:
        total = merged.found_count() + len(merged.missed)
        syncs = sum(1 for e in sharded.events
                    if e["event"] == "corpus_synced")
        print(f"merged: {merged.execs} execs over {sharded.shards} "
              f"shard(s), {sharded.rounds} round(s), {syncs} corpus "
              f"sync(s), found {merged.found_count()}/{total}")
        if merged.matched:
            print(f"catalog rows matched: {sorted(merged.matched)}")
    if args.events_log:
        print(f"events written to {args.events_log}")
    if args.diagnostics:
        with open(ensure_parent(args.diagnostics), "w",
                  encoding="utf-8") as fh:
            json.dump(sharded.diagnostics.to_json(), fh, indent=2)
        print(f"fleet diagnostics written to {args.diagnostics}")
    if args.results:
        payload = {
            "merged": None if merged is None else result_to_json(merged),
            "shards": [
                None if result is None else result_to_json(result)
                for result in sharded.shard_results
            ],
        }
        with open(ensure_parent(args.results), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        print(f"results written to {args.results}")
    _write_observer(observer, args)
    return 3 if sharded.degraded or merged is None else 0


def _cmd_worker(args) -> int:
    """``repro worker --connect HOST:PORT``: serve a remote fleet."""
    from repro.errors import TransportError
    from repro.fuzz.transport import run_worker

    host, _, port = args.connect.rpartition(":")
    if not port.isdigit():
        print(f"--connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    try:
        stats = run_worker(
            host or "127.0.0.1",
            int(port),
            token=args.token,
            name=args.name,
            max_jobs=args.max_jobs,
            max_reconnects=args.max_reconnects,
            reconnect_base=args.reconnect_base,
            reconnect_max=args.reconnect_max,
            seed=args.seed,
            chaos=args.chaos,
            log=lambda line: print(f"worker: {line}", flush=True),
        )
    except TransportError as exc:
        # version/auth rejections are permanent: retrying would hammer
        # a server that already said no
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(f"worker: served {stats.jobs_run} job(s), "
          f"{stats.jobs_failed} failed, {stats.reconnects} reconnect(s), "
          f"{stats.resends} resend(s), "
          f"{stats.checkpoints_synced} checkpoint sync(s)")
    return 1 if stats.jobs_failed else 0


def _cmd_serve(args) -> int:
    """``repro serve``: run the always-on fuzzing daemon."""
    import signal

    from repro.errors import FuzzerError
    from repro.fuzz.serve import FuzzService, parse_address

    try:
        host, port = parse_address(args.listen)
    except FuzzerError as exc:
        print(f"--listen: {exc}", file=sys.stderr)
        return 2
    observer = _make_observer(args)
    service = FuzzService(
        args.state_dir,
        host=host,
        port=port,
        token=args.token,
        max_running=args.max_running,
        max_pending=args.max_pending,
        max_attempts=args.max_attempts,
        retry_after=args.retry_after,
        snapshot_every=args.snapshot_every,
        workers_per_job=args.workers_per_job,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.max_retries,
        backoff_base=args.backoff,
        observer=observer,
        log=lambda line: print(f"serve: {line}", flush=True),
    )

    def _drain(signum, _frame):
        service.drain(cause=signal.Signals(signum).name)

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _drain)
        except ValueError:  # not the main thread (tests)
            pass
    service.start()
    service.serve_forever()
    _write_observer(observer, args)
    return 0


def _serve_client(args):
    from repro.fuzz.serve import ServeClient, parse_address

    host, port = parse_address(args.connect)
    return ServeClient(host, port, token=args.token)


def _cmd_submit(args) -> int:
    """``repro submit``: enqueue a campaign on a serve daemon."""
    import json

    from repro.errors import FuzzerError, TransportError
    from repro.obs.observer import ensure_parent

    try:
        spec = _campaign_config(args, args.firmware).to_json()
        with _serve_client(args) as client:
            reply = client.submit(spec, dedup_key=args.dedup_key)
            if reply.get("type") == "rejected":
                print(f"rejected ({reply['reason']}): retry after "
                      f"{reply['retry_after']:g}s", file=sys.stderr)
                return 5
            if reply.get("type") != "submitted":
                print(f"submit failed: {reply.get('reason', reply)}",
                      file=sys.stderr)
                return 2
            job_id = reply["job"]
            print(f"job {job_id} "
                  f"{'deduplicated' if reply['deduped'] else 'submitted'} "
                  f"({reply['state']})")
            if not args.wait:
                return 0
            final = client.wait(job_id, timeout=args.wait_timeout)
    except (FuzzerError, TransportError, OSError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    print(f"job {job_id} finished: {final['state']}")
    if final["state"] != "done":
        if final.get("error"):
            print(f"  {final['error']}", file=sys.stderr)
        return 3
    result = final["result"]
    print(f"  execs: {result['execs']}, coverage: {result['coverage']}, "
          f"crashes: {result['crashes']}, "
          f"findings: {len(final['findings'])}")
    for record in final["findings"]:
        bug = record["bug_id"] or "unmatched"
        print(f"  {bug}: {record['tool']} {record['bug_type']} "
              f"at {record['location']}")
    if args.results:
        with open(ensure_parent(args.results), "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True)
        print(f"results written to {args.results}")
    if args.findings:
        with open(ensure_parent(args.findings), "w",
                  encoding="utf-8") as fh:
            json.dump(final["findings"], fh, sort_keys=True)
        print(f"findings written to {args.findings}")
    return 0


def _cmd_jobs(args) -> int:
    """``repro jobs``: list or watch a serve daemon's job table."""
    from repro.errors import FuzzerError, TransportError

    try:
        with _serve_client(args) as client:
            if args.watch:
                client.watch(
                    args.job,
                    on_event=lambda ev: print(
                        f"{ev.get('seq', '-'):>6} {ev.get('job') or '-':12s} "
                        f"{ev['event']}", flush=True),
                    timeout=args.watch_timeout,
                )
                return 0
            reply = client.status(args.job)
            if reply.get("type") == "error":
                print(f"jobs: {reply['reason']}", file=sys.stderr)
                return 2
            rows = [reply["job"]] if args.job else reply["jobs"]
            print(f"{'Job':12s} {'Firmware':24s} {'State':12s} "
                  f"{'Att':>3s} Requeues")
            for row in rows:
                print(f"{row['job_id']:12s} "
                      f"{row['firmware'] or '?':24s} "
                      f"{row['state']:12s} {row['attempts']:3d} "
                      f"{len(row['requeues'])}")
            if not args.job:
                counts = ", ".join(
                    f"{n} {state}"
                    for state, n in sorted(reply["counts"].items()))
                drain = " (draining)" if reply["draining"] else ""
                print(f"{len(rows)} job(s): {counts or 'none'}{drain}")
    except (FuzzerError, TransportError, OSError) as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_drain(args) -> int:
    """``repro drain``: gracefully drain a serve daemon."""
    from repro.errors import FuzzerError, TransportError

    try:
        with _serve_client(args) as client:
            reply = client.drain()
    except (FuzzerError, TransportError, OSError) as exc:
        print(f"drain: {exc}", file=sys.stderr)
        return 2
    if reply.get("type") != "draining":
        print(f"drain refused: {reply}", file=sys.stderr)
        return 2
    print("draining: daemon stops admitting, requeues running jobs, "
          "flushes its WAL and exits")
    return 0


def _cmd_corpus(args) -> int:
    """The ``corpus`` maintenance subcommands."""
    from repro.corpus import CorpusStore, distill_store, merge_stores
    from repro.errors import CorpusError

    try:
        if args.corpus_command == "ls":
            store = CorpusStore(args.dir)
            by_kind = {}
            for digest in store.digests():
                entry = store.entries[digest]
                by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
                if args.long:
                    print(f"{digest[:16]} {entry.kind:5s} "
                          f"execs={entry.execs:<6d} "
                          f"signature={len(entry.signature)} point(s)")
            kinds = ", ".join(f"{count} {kind}"
                              for kind, count in sorted(by_kind.items()))
            print(f"{len(store)} entr(ies) ({kinds or 'empty'}) "
                  f"for firmware {store.firmware!r}")
        elif args.corpus_command == "distill":
            store = CorpusStore(args.dir)
            before = len(store)
            distilled = distill_store(store, out_root=args.out)
            where = args.out or args.dir
            print(f"distilled {before} -> {len(distilled)} entr(ies) "
                  f"into {where}")
        elif args.corpus_command == "merge":
            dest = merge_stores(args.dest, args.sources)
            print(f"merged {len(args.sources)} store(s) -> "
                  f"{len(dest)} entr(ies) in {args.dest}")
        elif args.corpus_command == "export":
            store = CorpusStore(args.dir)
            count = store.export_bundle(args.bundle)
            print(f"exported {count} entr(ies) to {args.bundle}")
        elif args.corpus_command == "import":
            store = CorpusStore(args.dir)
            count = store.import_bundle(args.bundle)
            print(f"imported {count} new entr(ies) from {args.bundle} "
                  f"({len(store)} total)")
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(args) -> int:
    import json

    from repro.obs import format_metrics
    from repro.obs.metrics import SCHEMA

    try:
        with open(args.metrics_file, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics file {args.metrics_file!r}: {exc}",
              file=sys.stderr)
        return 2
    if data.get("schema") != SCHEMA:
        print(f"{args.metrics_file!r} is not a {SCHEMA} document "
              f"(schema: {data.get('schema')!r})", file=sys.stderr)
        return 2
    print(format_metrics(data))
    return 0


def _cmd_overhead(args) -> int:
    from repro.bench.overhead import figure2, format_rows, measure_firmware

    if args.firmware:
        rows = measure_firmware(args.firmware,
                                sanitizers=tuple(args.sanitizers))
    else:
        rows = figure2(sanitizers=tuple(args.sanitizers))
    print(format_rows(rows))
    return 0


def _cmd_table2(_args) -> int:
    from repro.bugs.catalog import TABLE2_BUGS
    from repro.bugs.replay import replay_on_embsan, replay_on_native
    from repro.firmware.instrument import InstrumentationMode

    print(f"{'bug':26s} {'kernel':10s} {'C':4s} {'D':4s} KASAN")
    for record in TABLE2_BUGS:
        c = replay_on_embsan(record, InstrumentationMode.EMBSAN_C).detected
        d = replay_on_embsan(record, InstrumentationMode.EMBSAN_D).detected
        k = replay_on_native(record).detected
        print(f"{record.location:26s} {record.kernel_version:10s} "
              f"{'Yes' if c else 'No':4s} {'Yes' if d else 'No':4s} "
              f"{'Yes' if k else 'No'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EMBSAN reproduction: sanitize embedded OS firmware "
                    "at the emulator boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the Table-1 firmware registry")

    probe = sub.add_parser("probe", help="probe a firmware, print DSL specs")
    probe.add_argument("firmware")
    probe.add_argument("--sanitizers", nargs="+", default=["kasan"])

    replay = sub.add_parser("replay", help="replay a catalog bug")
    replay.add_argument("bug", help="bug id, e.g. t2_01 or t4_tp_01")
    replay.add_argument("--deployment", default="paper",
                        choices=["paper", "embsan-c", "embsan-d", "native"])

    fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    fuzz.add_argument("firmware")
    _add_campaign_flags(fuzz, "budget", "seed", "faults", "checkpoint_every",
                        "crash_budget", "watchdog_insns", "watchdog_cycles",
                        "exec_mode", "seed_schedule", "surface")
    fuzz.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="checkpoint file; resumes if it exists")
    fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                      help="persistent corpus store: existing entries seed "
                           "the campaign, discoveries persist back")
    fuzz.add_argument("--diagnostics", default=None, metavar="PATH",
                      help="write campaign diagnostics JSON here")
    fuzz.add_argument("--results", default=None, metavar="PATH",
                      help="write the campaign result JSON here")
    fuzz.add_argument("--metrics", default=None, metavar="PATH",
                      help="write the campaign metrics JSON here "
                           "(render with 'repro stats PATH')")
    fuzz.add_argument("--trace", default=None, metavar="PATH",
                      help="write a Perfetto-loadable Chrome trace here")

    fuzz_all = sub.add_parser(
        "fuzz-all",
        help="run every firmware's campaign, optionally as a worker fleet",
    )
    fuzz_all.add_argument("--workers", type=int, default=1,
                          help="worker processes (1 = in-process sequential)")
    _add_campaign_flags(fuzz_all, "budget", "seed", "faults", "exec_mode",
                        "surface", "crash_budget")
    fuzz_all.add_argument("--firmware", action="append", default=None,
                          metavar="NAME",
                          help="restrict the sweep (repeatable); "
                               "default is the whole Table-1 catalog")
    fuzz_all.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="per-firmware checkpoint files; fleet "
                               "workers resume from these after a crash")
    fuzz_all.add_argument("--shard", type=int, default=0, metavar="N",
                          help="fuzz ONE firmware (exactly one --firmware) "
                               "with N cooperating shards syncing through "
                               "a shared corpus store")
    fuzz_all.add_argument("--sync-every", type=int, default=0,
                          metavar="EXECS",
                          help="per-shard execs between corpus syncs "
                               "(0 = one round, sync only at the end)")
    fuzz_all.add_argument("--corpus-dir", default=None, metavar="DIR",
                          help="shared persistent corpus store for "
                               "--shard mode (temporary if omitted)")
    fuzz_all.add_argument("--heartbeat-timeout", type=float, default=30.0,
                          help="seconds of worker silence before it is "
                               "declared hung and killed")
    fuzz_all.add_argument("--max-retries", type=int, default=3,
                          help="restarts per job before it is abandoned")
    fuzz_all.add_argument("--backoff", type=float, default=0.5,
                          help="first retry delay; doubles per retry")
    fuzz_all.add_argument("--events-log", default=None, metavar="PATH",
                          help="append structured fleet events as JSONL")
    fuzz_all.add_argument("--diagnostics", default=None, metavar="PATH",
                          help="write FleetDiagnostics JSON here")
    fuzz_all.add_argument("--results", default=None, metavar="PATH",
                          help="write per-firmware campaign results JSON "
                               "(the byte-identity artifact)")
    fuzz_all.add_argument("--metrics", default=None, metavar="PATH",
                          help="write fleet-merged metrics JSON here")
    fuzz_all.add_argument("--trace", default=None, metavar="PATH",
                          help="write a Perfetto-loadable Chrome trace "
                               "merging supervisor and worker timelines")
    fuzz_all.add_argument("--listen", default=None, metavar="HOST:PORT",
                          help="accept remote `repro worker --connect` "
                               "peers on this address and dispatch fleet "
                               "jobs to them (port 0 picks a free port); "
                               "local spawn workers remain the fallback")
    fuzz_all.add_argument("--token", default=None,
                          help="shared secret remote workers must present "
                               "in their hello frame")
    fuzz_all.add_argument("--wait-remote", type=int, default=0, metavar="N",
                          help="block until N remote workers are connected "
                               "before starting the fleet")
    fuzz_all.add_argument("--wait-remote-timeout", type=float, default=60.0,
                          help="seconds to wait for --wait-remote peers "
                               "before giving up")
    fuzz_all.add_argument("--no-spawn-fallback", action="store_true",
                          help="with --listen: never fall back to local "
                               "spawn workers; jobs wait for a remote")

    worker = sub.add_parser(
        "worker",
        help="serve fleet jobs from a fuzz-all --listen supervisor",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="supervisor address to dial")
    worker.add_argument("--token", default=None,
                        help="shared secret for the hello handshake")
    worker.add_argument("--name", default=None,
                        help="stable worker name (reconnects under the "
                             "same name resume the same fleet identity)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after completing this many jobs")
    worker.add_argument("--max-reconnects", type=int, default=None,
                        help="give up after this many failed re-dials "
                             "(default: keep trying forever)")
    worker.add_argument("--reconnect-base", type=float, default=0.5,
                        help="first reconnect delay in seconds; doubles "
                             "per consecutive failure")
    worker.add_argument("--reconnect-max", type=float, default=15.0,
                        help="ceiling on the reconnect backoff delay")
    worker.add_argument("--seed", type=int, default=0,
                        help="seeds reconnect jitter (and any chaos plan)")
    worker.add_argument("--chaos", default=None, metavar="SPEC",
                        help="chaos plan DSL applied to this worker's "
                             "outbound frames, e.g. "
                             "'drop:kind=heartbeat,p=1;disconnect:nth=9'")

    serve = sub.add_parser(
        "serve",
        help="run the always-on fuzzing daemon (crash-safe job queue + "
             "JSONL control API; see docs/serve.md)",
    )
    serve.add_argument("--state-dir", required=True, metavar="DIR",
                       help="durable state: WAL, snapshots, checkpoints")
    serve.add_argument("--listen", default="127.0.0.1:7400",
                       metavar="HOST:PORT",
                       help="control API address (port 0 picks a free one)")
    serve.add_argument("--token", default=None,
                       help="shared secret clients must present")
    serve.add_argument("--max-running", type=int, default=2,
                       help="jobs run concurrently")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="live (non-terminal) jobs admitted before "
                            "submissions are rejected with retry_after")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="lease attempts per job before quarantine")
    serve.add_argument("--retry-after", type=float, default=2.0,
                       help="seconds clients are told to back off")
    serve.add_argument("--snapshot-every", type=int, default=256,
                       help="WAL records between compacted snapshots")
    serve.add_argument("--workers-per-job", type=int, default=1,
                       help="fleet workers per running job")
    serve.add_argument("--heartbeat-timeout", type=float, default=30.0,
                       help="seconds of worker silence before restart")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="supervisor restarts per job attempt")
    serve.add_argument("--backoff", type=float, default=0.5,
                       help="first supervisor retry delay")
    serve.add_argument("--metrics", default=None, metavar="PATH",
                       help="write serve.* metrics JSON on drain")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace on drain")

    submit = sub.add_parser(
        "submit", help="submit a campaign job to a serve daemon"
    )
    submit.add_argument("firmware")
    submit.add_argument("--connect", required=True, metavar="HOST:PORT")
    submit.add_argument("--token", default=None)
    _add_campaign_flags(submit, "budget", "seed", "faults", "crash_budget",
                        "watchdog_insns", "watchdog_cycles", "exec_mode",
                        "surface", "checkpoint_every")
    submit.add_argument("--dedup-key", default=None,
                        help="idempotency key: resubmitting the same key "
                             "returns the original job, never a duplicate")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal and print "
                             "its results")
    submit.add_argument("--wait-timeout", type=float, default=600.0)
    submit.add_argument("--results", default=None, metavar="PATH",
                        help="with --wait: write the campaign result JSON "
                             "(byte-identical to `repro fuzz --results` "
                             "at the same seed and cadence)")
    submit.add_argument("--findings", default=None, metavar="PATH",
                        help="with --wait: write the normalized findings "
                             "records JSON")

    jobs_cmd = sub.add_parser(
        "jobs", help="list jobs on a serve daemon (or stream events)"
    )
    jobs_cmd.add_argument("--connect", required=True, metavar="HOST:PORT")
    jobs_cmd.add_argument("--token", default=None)
    jobs_cmd.add_argument("--job", default=None, metavar="ID",
                          help="show one job instead of the table")
    jobs_cmd.add_argument("--watch", action="store_true",
                          help="stream job events until the watched job "
                               "is terminal (or the daemon drains)")
    jobs_cmd.add_argument("--watch-timeout", type=float, default=300.0)

    drain_cmd = sub.add_parser(
        "drain", help="gracefully drain a serve daemon"
    )
    drain_cmd.add_argument("--connect", required=True, metavar="HOST:PORT")
    drain_cmd.add_argument("--token", default=None)

    corpus = sub.add_parser(
        "corpus", help="inspect and maintain persistent corpus stores"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_ls = corpus_sub.add_parser("ls", help="summarize a store")
    corpus_ls.add_argument("dir", help="corpus store directory")
    corpus_ls.add_argument("--long", action="store_true",
                           help="one line per entry")
    corpus_distill = corpus_sub.add_parser(
        "distill",
        help="greedy coverage minset (keeps every crash reproducer)",
    )
    corpus_distill.add_argument("dir", help="corpus store directory")
    corpus_distill.add_argument("--out", default=None, metavar="DIR",
                                help="write the minset to a fresh store "
                                     "instead of pruning in place")
    corpus_merge = corpus_sub.add_parser(
        "merge", help="union several stores into one"
    )
    corpus_merge.add_argument("dest", help="destination store directory")
    corpus_merge.add_argument("sources", nargs="+",
                              help="source store directories")
    corpus_export = corpus_sub.add_parser(
        "export", help="write a store as one portable JSON bundle"
    )
    corpus_export.add_argument("dir", help="corpus store directory")
    corpus_export.add_argument("bundle", help="bundle file to write")
    corpus_import = corpus_sub.add_parser(
        "import", help="load an exported bundle into a store"
    )
    corpus_import.add_argument("dir", help="corpus store directory")
    corpus_import.add_argument("bundle", help="bundle file to read")

    stats = sub.add_parser(
        "stats", help="render a --metrics JSON file as a readable table"
    )
    stats.add_argument("metrics_file", help="path written by --metrics")

    overhead = sub.add_parser("overhead", help="measure Figure-2 slowdowns")
    overhead.add_argument("firmware", nargs="?", default=None)
    overhead.add_argument("--sanitizers", nargs="+", default=["kasan"])

    sub.add_parser("table2", help="the known-bug detection matrix")
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "probe": _cmd_probe,
    "replay": _cmd_replay,
    "fuzz": _cmd_fuzz,
    "fuzz-all": _cmd_fuzz_all,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "drain": _cmd_drain,
    "corpus": _cmd_corpus,
    "stats": _cmd_stats,
    "overhead": _cmd_overhead,
    "table2": _cmd_table2,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
