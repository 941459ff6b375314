// Command gmdfbench is the repository's end-to-end benchmark: live
// model-level debugging over both command interfaces, debug-farm session
// lifecycles and campaign fleets, measured end to end and layer by layer.
//
// Run it from the root of a checkout:
//
//	bash gmdfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package (a module of its own that imports the
// repository's packages through a replace directive) into .bench_build/
// and runs it. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; the lines before it
// record the machine, the tail percentile, the simulated-statistics
// fingerprint and, on traced runs, where each per-layer metric came from.
// The benchmark's own tests run with `go test` in this directory.
//
// # Workloads
//
// Every workload is a closed loop: each caller sends its next op only
// after the previous one completed, as the debugger CLI and `gmdf
// -connect` do. A rate sweep on two shared cores would not repeat. Every
// input is derived from --seed.
//
//   - live-ring-active: one repro.Debug session of the 4-machine token ring
//     on one board over the active RS-232 transport, one caller. An op
//     advances a seeded 10-30 virtual ms with Debugger.RunNs and renders
//     one SVG frame. The UART saturates by design, so host time goes to
//     target-side frame encode and CRC, the serial queue, protocol decode
//     and engine dispatch. JTAG and checkpointing do nothing here.
//   - live-heating-passive-rewind: one heating session over passive JTAG
//     with EnableCheckpointing on. Ops are the same frames, except that a
//     seeded 2% are time travel: Session.RewindTo up to 300 virtual ms
//     behind the frontier, then ReplayUntil back to it. Bit-serial JTAG
//     scans dominate; the recorder writes a checkpoint every 250 virtual
//     ms and the rewinds read them back, so a trade between the two
//     shows. The serial line and the protocol decoder are idle.
//   - farm-mix: an in-process farm.Server on a loopback listener with two
//     closed-loop farm.NewClient clients. An op is one session lifecycle:
//     create, attach, break (a deadline-miss breakpoint), a 5-20 virtual
//     ms run-for, detach. The model is drawn by seed from ring (one
//     board), dist (a 2-node TDMA cluster) and a scenario-source create of
//     examples/dsl/heating.gmdf. Three quarters of the ring and dist ops
//     detach with a checkpoint, then resume from its digest, run and
//     detach again, so half of all ops resume. DSL heating ops never
//     resume: the plant's state lives in the environment closure, outside
//     the checkpoint. Session build, the JSON wire, the checkpoint store
//     and the simulation pool take the time here.
//   - campaign-dist: repeated campaign.Run on dist, one campaign per op
//     with a seed derived from --seed: 16 variants forked from a 10 ms
//     warm-up and run 25 ms each, loss and jitter sweeps, slot rotation,
//     Workers = nproc, a zero drop budget so some variants violate, and
//     shrinking on. Only this workload reaches campaign, the sched
//     work-stealing pool, Checkpoint.Clone and the TDMA bus at fleet scale.
//
// Each run is a sequence of blocks with a fixed op count per workload
// (200, 1000, 300 and 120 ops), after one uncounted warm-up block. Every
// block builds a fresh instance (its set-up), runs the same seeded ops and
// checks the outputs outside the timed region. Blocks repeat until one
// more would overrun --seconds, and at least three run. Every seed draws
// the same multiset of op sizes in its own order (campaign seeds excepted),
// so seeds differ in order and timing, not in the amount of work.
//
// # End-to-end metrics
//
// An op is what a user waits for: a frame, a session lifecycle or a
// campaign. Rates, latencies and set-up times are medians over the run's
// blocks, so a burst of load from outside the benchmark (other tenants,
// CPU time stolen by the hypervisor) that slows a few blocks does not move
// them.
//
//   - vms_per_s (vms/s): virtual ms of new timeline simulated per host
//     second of the op phase. Replayed time does not count, so cheaper
//     rewinds are not penalised.
//   - ops_per_s (1/s): ops completed per host second.
//   - op_p50_ms (ms): median host latency of an op.
//   - setup_s (s): from the start of a block to its first op being ready,
//     including the lazy set-up a user pays once: the model build and
//     program compile of repro.Debug; the farm server start, client
//     connects and the first create of each model, which compiles its
//     program; for campaigns, the block's first campaign.
//   - alloc_kb_per_op (KiB): runtime.MemStats.TotalAlloc growth over the
//     op phase, per op.
//   - live_heap_mb (MiB): HeapAlloc after a forced GC at the end of a
//     block's op phase, while the block still holds its session, recorder
//     checkpoints, farm store and sessions.
//   - ok_frac (ratio): 1 - failed/attempted. An op fails when a call
//     errors or its output check fails. It stands in for the failed
//     fraction because an end-to-end metric must never be 0; failed and
//     attempted are also reported as counts.
//
// The op tail is a per-layer metric: op_tail_ms (ms) is the highest
// nearest-rank percentile of a block's op latencies with at least ten
// samples above it, 100·(n-10)/n for n ops, as a median over the traced
// run's untraced blocks. The op count per block is fixed, so it is the
// same percentile on every run: p95, p99, p96.7 and p91.7 for the four
// workloads, printed with the sample count. On two shared cores it did
// not repeat within the largest allowed bound (campaign-dist's tail moved
// by half between runs), so it is reported without one.
//
// # Output checks
//
//   - Live workloads: the session's final stable trace
//     (Trace.FormatStable) equals that of an uninterrupted reference run
//     of the same model to the same virtual instant, computed before the
//     timed blocks. On the rewind workload this proves that replay lands
//     byte-identical. A mismatch fails every op of the block.
//   - farm-mix: every session's final RunResult equals the in-process
//     result of the same model with the same breakpoint after the same
//     virtual time; resumed sessions must match the uninterrupted run. A
//     seeded eighth of the ops also fetch TraceStable (excluded from the
//     op's latency), which must equal the in-process trace.
//   - campaign-dist: a seeded quarter of the aggregates must be
//     byte-identical to the same campaign run on one worker.
//
// The simulated-statistics fingerprint is printed on every run: target
// and instrumentation cycles, TCK cycles, probe operations, events
// handled, trace records, serial bytes and drops, checkpoints retained,
// farm session and store counts, campaign violating variants and drops,
// and the digest of the checked outputs. Every block of a run uses the
// same inputs, so any two blocks that disagree make the run incorrect; the
// fingerprint is also kept under .bench_build/ and a later run with the
// same workload, seed and block size that disagrees is incorrect too. A
// change that only makes the program faster must leave it identical.
//
// Seeds 1 to 15 were used while the benchmark was written; seed 424242
// was held out until it was done, and passes every check.
//
// # Traced run
//
// --trace 1 alternates untraced and traced blocks of the workload. Spans
// are recorded by this package's code around calls into the program's
// public functions, with name, start, end, parent and the op they belong
// to, kept in memory and written to .bench_build/gmdfbench-state/ at the
// end (the first 200000). A layer's self time is its spans' duration
// minus the part their child spans cover. The traced blocks replace
// Debugger.RunNs with the same loop timed per call: Board.RunFor,
// Session.ProcessEvents and Recorder.Observe. The event source's Poll is
// split from engine dispatch without replacing the source (the recorder
// finds the passive watcher by its type): Poll ends at the session's first
// Translate call or, when it returned nothing, when a marker source added
// after it is polled. The real source stays attached, so the active
// channel's RemoteDebug and on-target breakpoints work unchanged. Traced
// and untraced blocks must produce the same fingerprint and trace
// digest. trace.overhead_frac is the traced blocks' wall time per op over
// the untraced blocks', minus one.
//
// Every per-layer metric is reported on every workload. A layer the
// workload does not reach is measured on a short traced block of the
// workload that does, and the layer_source line names where each value
// came from.
//
// Per-layer metrics, and the end-to-end metric each should move:
//
//   - target (Board.RunFor in the traced loop): target.run_ns_per_vms
//     (ns/vms); simulated target.cycles_per_vms and
//     target.instr_cycles_per_vms (cycles/vms). Moves vms_per_s and
//     op_p50_ms on live-ring-active, little on the rewind workload.
//   - serial (the target port's Stats): serial.tx_bytes_per_vms (B/vms),
//     serial.frames_dropped_per_vms (frames/vms), serial.delivery_ratio
//     (delivered over offered bytes). Simulated: a speed-only change must
//     leave them identical.
//   - protocol (the active source's Poll, receive and decode):
//     protocol.poll_ns_per_vms (ns/vms). Moves vms_per_s on
//     live-ring-active.
//   - engine (ProcessEvents self time): engine.dispatch_ns_per_vms
//     (ns/vms), engine.events_per_vms (events/vms). Moves vms_per_s on
//     both live workloads.
//   - jtag (the passive source's Poll, Watcher.Poll): jtag.poll_ns_per_vms
//     (ns/vms), jtag.tck_per_vms (TAP.TCKCount, tck/vms, replays
//     included), jtag.probe_ops_per_vms (ops/vms). Moves vms_per_s on the
//     rewind workload and nothing on live-ring-active.
//   - graphics (Scene().SVG() via RenderSVG): graphics.svg_us_per_frame
//     (us). A small share of op_p50_ms on both live workloads.
//   - checkpoint (Recorder.Observe, Session.RewindTo, Session.ReplayUntil,
//     Checkpoint.Clone): checkpoint.observe_ns_per_vms (ns/vms),
//     checkpoint.rewind_ms (ms), checkpoint.replay_ns_per_vms (ns per
//     replayed vms), checkpoint.count (retained at block end),
//     checkpoint.clone_us (a warm dist checkpoint, us). Moves vms_per_s
//     and op_tail_ms on the rewind workload, ops_per_s on campaign-dist.
//   - repro (repro.Debug for ring, repro.DebugCluster for dist):
//     repro.debug_build_ms, repro.cluster_build_ms (ms). Moves op_p50_ms on
//     farm-mix and ops_per_s on campaign-dist.
//   - dsl (dsl.LoadSource on heating.gmdf): dsl.load_ms (ms). Moves
//     op_p50_ms on farm-mix through its DSL creates.
//   - farm (client-side per-call timing, p50 each): farm.create_ms,
//     farm.attach_ms, farm.break_ms, farm.run_ms, farm.detach_ms,
//     farm.resume_ms (ms); farm.wire_kb_per_op (bytes through the clients'
//     connections, KiB), farm.checkpoint_kb (stored checkpoint size, KiB),
//     farm.events_streamed_per_op (events). Moves op_p50_ms, ops_per_s and
//     alloc_kb_per_op on farm-mix.
//   - target cluster execution (ClusterDebugger.RunNs on dist for 200
//     virtual ms): target.cluster_run_ns_per_vms.serial and .parallel
//     (ns/vms). Moves op_p50_ms of farm-mix's dist sessions, which run on
//     ExecAuto.
//   - campaign and sched (campaign.Run at nproc workers and at one):
//     campaign.run_ms, campaign.serial_ms (ms, p50), sched.speedup (one
//     worker's time over nproc workers' on the same sampled campaigns);
//     simulated campaign.violating and campaign.drops per campaign. Moves
//     ops_per_s on campaign-dist.
//   - op_tail_ms (ms), see above: the rewinds form the tail on the rewind
//     workload, so checkpoint changes move it.
//   - trace.overhead_frac (ratio): the cost of the tracing itself.
//
// # Machine record
//
// Every run prints Go version, GOOS/GOARCH, CPU model, nproc and
// GOMAXPROCS. The bounds in BENCHMARK.json were set on go1.24.0
// linux/amd64, an "Intel(R) Xeon(R) Processor" virtual machine with
// nproc 2 and GOMAXPROCS 2, shared with other tenants. The host's own
// speed drifted by 10-25% over minutes, with bursts of up to 30% CPU time
// stolen by the hypervisor, so over ten seeds the host-time metrics spread
// by 0.04-0.15 of their median (set-up by up to 0.25) and carry the
// largest allowed bound, 0.25.
//
// The simulator has not been validated against real hardware and the
// repository holds no hardware measurements, so no accuracy error is
// reported: simulated statistics are checked for determinism, not truth.
//
// BENCH_*.json and cmd/benchgate remain the per-function
// microbenchmarks and their perf gate (`go test -bench`); they are not
// this benchmark and this benchmark does not read them.
package main
