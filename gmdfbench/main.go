package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
)

// workload is one of the benchmark's input sets.
type workload interface {
	// prepare derives the inputs from the seed and computes the reference
	// outputs the checks compare against, outside any timed region.
	prepare(e *env) error
	// block builds a fresh instance (timed as set-up), runs the block's
	// ops (each timed), then checks the outputs. tr is nil when untraced.
	block(tr *tracer) (blockStats, error)
	// layers derives the per-layer metrics this workload reaches from the
	// spans and counters of its traced blocks.
	layers(lt layerTimes, counts map[string]float64, nblocks int) map[string]float64
}

// env carries what every workload derives its inputs from.
type env struct {
	seed uint64
	root string // checkout root: examples/dsl lives here
	ops  int    // ops per block
}

// spec names a workload with its block size. Blocks have a fixed op count
// so the tail percentile is the same in every block and every run.
type spec struct {
	name     string
	ops      int // ops per block in a measured run
	probeOps int // ops per block when probing its layers for another workload
	make     func() workload
}

var specs = []spec{
	{"live-ring-active", 200, 60, func() workload {
		return &liveWorkload{model: "ring", transport: repro.Active}
	}},
	{"live-heating-passive-rewind", 1000, 100, func() workload {
		return &liveWorkload{model: "heating", transport: repro.Passive, rewinds: true}
	}},
	{"farm-mix", 300, 12, func() workload { return &farmWorkload{} }},
	{"campaign-dist", 120, 12, func() workload { return &campaignWorkload{} }},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// blockStats is one block's measurements.
type blockStats struct {
	setupNs     int64
	opNs        []float64 // per-op host latency
	wallNs      int64     // host time of the op phase
	newVms      float64   // virtual ms of new timeline simulated
	allocBytes  uint64    // TotalAlloc growth over the op phase
	heapBytes   uint64    // HeapAlloc after a forced GC, block state live
	attempted   int
	failed      int
	fingerprint map[string]uint64 // simulated statistics
	digest      string            // digest of the block's checked output
}

// meter measures the op phase of a block.
type meter struct {
	t0 time.Time
	m0 runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return m
}

// stop records wall time and allocation, then forces a GC and records the
// live heap while the caller still holds the block's state.
func (m *meter) stop(bs *blockStats) {
	bs.wallNs = int64(time.Since(m.t0))
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	bs.allocBytes = m1.TotalAlloc - m.m0.TotalAlloc
	// Twice: the first collection only moves sync.Pool contents to the
	// pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	bs.heapBytes = m1.HeapAlloc
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	root      string
	state     string // directory for span files and same-seed fingerprints
	minBlocks int
	opsScale  float64 // scales every block size (tests use a small one)
}

// statePath joins parts under the state directory, which is relative to
// the checkout root unless absolute.
func (o options) statePath(parts ...string) string {
	dir := o.state
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(o.root, dir)
	}
	return filepath.Join(append([]string{dir}, parts...)...)
}

// report is a run's result plus the detail lines printed before it.
type report struct {
	result
	info []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.state, "state", ".bench_build/gmdfbench-state", "directory for span files and fingerprints, relative to -root")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "gmdfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *trace == 1
	o.minBlocks = 3
	o.opsScale = 1
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmdfbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.info {
		fmt.Println(l)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmdfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*report, error) {
	sp, ok := findSpec(o.workload)
	if !ok {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if _, err := os.Stat(filepath.Join(o.root, "examples", "dsl", "heating.gmdf")); err != nil {
		return nil, fmt.Errorf("not a checkout of the repository: %w", err)
	}
	rep := &report{info: []string{machineRecord()}}
	w, err := prepare(sp, sp.ops, o)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		blocks, err := runBlocks(w, budget, o.minBlocks, nil, nil)
		if err != nil {
			return nil, err
		}
		rep.result = endToEnd(blocks)
		rep.info = append(rep.info, tailInfo(blocks), blockInfo(blocks))
		if err := checkFingerprints(rep, o, sp, blocks); err != nil {
			return nil, err
		}
		return rep, nil
	}

	// Traced run: untraced and traced blocks alternate, so the tracing
	// overhead is measured against untraced blocks of the same run.
	epoch := time.Now()
	tr := newTracer(epoch)
	traced := func(i int) bool { return i%2 == 1 }
	blocks, err := runBlocks(w, budget, max(o.minBlocks, 2), tr, traced)
	if err != nil {
		return nil, err
	}
	var plain, withTrace []blockStats
	for i, b := range blocks {
		if traced(i) {
			withTrace = append(withTrace, b)
		} else {
			plain = append(plain, b)
		}
	}
	metrics := w.layers(summarize(tr.spans), tr.counts, len(withTrace))
	metrics["op_tail_ms"] = blockTail(plain)
	metrics["trace.overhead_frac"] = wallPerOp(withTrace)/wallPerOp(plain) - 1
	all := endToEnd(blocks)
	rep.Attempted, rep.Failed, rep.Correct = all.Attempted, all.Failed, all.Correct
	if err := checkFingerprints(rep, o, sp, blocks); err != nil {
		return nil, err
	}
	if err := writeSpans(o.statePath(fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, o.seed)), tr.spans); err != nil {
		return nil, err
	}

	// Layers this workload does not reach are measured on a short traced
	// block of the workload that does, so every per-layer metric is
	// reported on every workload; the source of each is printed.
	source := map[string]string{}
	for k := range metrics {
		source[k] = sp.name
	}
	for _, other := range specs {
		if missing(metrics) == 0 {
			break
		}
		if other.name == sp.name {
			continue
		}
		ow, err := prepare(other, other.probeOps, o)
		if err != nil {
			return nil, err
		}
		ptr := newTracer(epoch)
		b, err := ow.block(ptr)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other.name, err)
		}
		rep.Attempted += b.attempted
		rep.Failed += b.failed
		rep.Correct = rep.Correct && b.failed == 0
		for k, v := range ow.layers(summarize(ptr.spans), ptr.counts, 1) {
			if _, have := metrics[k]; !have {
				metrics[k] = v
				source[k] = other.name + " (probe)"
			}
		}
	}
	if n := missing(metrics); n > 0 {
		return nil, fmt.Errorf("%d per-layer metrics not measured", n)
	}
	rep.Metrics = map[string]metric{}
	for _, pl := range perLayer {
		rep.Metrics[pl.name] = metric{metrics[pl.name], pl.unit}
	}
	src, _ := json.Marshal(source)
	rep.info = append(rep.info, tailInfo(plain), blockInfo(plain), "layer_source "+string(src))
	return rep, nil
}

func prepare(sp spec, ops int, o options) (workload, error) {
	w := sp.make()
	n := max(int(float64(ops)*o.opsScale), tailBeyond+1)
	if err := w.prepare(&env{seed: o.seed, root: o.root, ops: n}); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", sp.name, err)
	}
	return w, nil
}

// runBlocks runs blocks until one more block of average length would
// overrun the budget, and at least minBlocks; block i is traced when
// traced is set and traced(i) holds.
func runBlocks(w workload, budget time.Duration, minBlocks int, tr *tracer, traced func(int) bool) ([]blockStats, error) {
	// One uncounted block first: the process's heap, goroutine stacks and
	// CPU caches warm up on it, which a long-running debugger has done
	// long before its user waits on an op.
	if _, err := w.block(nil); err != nil {
		return nil, fmt.Errorf("warm-up block: %w", err)
	}
	start := time.Now()
	var blocks []blockStats
	for i := 0; ; i++ {
		if el := time.Since(start); i >= max(minBlocks, 1) && el+el/time.Duration(i) > budget {
			break
		}
		var btr *tracer
		if traced != nil && traced(i) {
			btr = tr
		}
		b, err := w.block(btr)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

func wallPerOp(blocks []blockStats) float64 {
	wall, ops := 0.0, 0
	for _, b := range blocks {
		wall += float64(b.wallNs)
		ops += len(b.opNs)
	}
	return wall / float64(ops)
}

// endToEnd computes the end-to-end metrics over untraced blocks. Rates,
// latencies and set-up times are medians over the run's blocks, so a burst
// of load from outside the benchmark that slows a few blocks does not move
// them.
func endToEnd(blocks []blockStats) result {
	var (
		alloc, ops                           float64
		attempted, failed                    int
		vmsRate, opsRate, p50s, setups, heap []float64
	)
	for _, b := range blocks {
		wall := float64(b.wallNs) / 1e9
		vmsRate = append(vmsRate, b.newVms/wall)
		opsRate = append(opsRate, float64(len(b.opNs))/wall)
		p50s = append(p50s, median(b.opNs))
		setups = append(setups, float64(b.setupNs)/1e9)
		heap = append(heap, float64(b.heapBytes)/(1<<20))
		alloc += float64(b.allocBytes)
		ops += float64(len(b.opNs))
		attempted += b.attempted
		failed += b.failed
	}
	r := result{Attempted: attempted, Failed: failed, Correct: failed == 0 && attempted > 0}
	r.Metrics = map[string]metric{
		"vms_per_s":       {median(vmsRate), "vms/s"},
		"ops_per_s":       {median(opsRate), "1/s"},
		"op_p50_ms":       {median(p50s) / 1e6, "ms"},
		"setup_s":         {median(setups), "s"},
		"alloc_kb_per_op": {alloc / ops / 1024, "KiB"},
		"live_heap_mb":    {median(heap), "MiB"},
		"ok_frac":         {1 - float64(failed)/float64(attempted), "ratio"},
	}
	return r
}

// blockTail is the median over blocks of each block's tail latency, in ms.
func blockTail(blocks []blockStats) float64 {
	var tails []float64
	for _, b := range blocks {
		if t, _, err := tailOf(b.opNs); err == nil {
			tails = append(tails, t)
		}
	}
	return median(tails) / 1e6
}

// blockInfo lists each block's throughput and median latency, so a run's
// noise is visible next to its medians.
func blockInfo(blocks []blockStats) string {
	var sb strings.Builder
	sb.WriteString("blocks ops_per_s/op_p50_ms/op_tail_ms:")
	for _, b := range blocks {
		t, _, _ := tailOf(b.opNs)
		fmt.Fprintf(&sb, " %.1f/%.4f/%.4f", float64(len(b.opNs))/(float64(b.wallNs)/1e9), median(b.opNs)/1e6, t/1e6)
	}
	return sb.String()
}

func tailInfo(blocks []blockStats) string {
	n := len(blocks[0].opNs)
	pct, _, err := tailPercentile(n)
	if err != nil {
		return "op_tail unavailable: " + err.Error()
	}
	return fmt.Sprintf("op_tail percentile p%.4g over %d ops per block, median of %d blocks", pct, n, len(blocks))
}

// checkFingerprints fails the run when two blocks with the same inputs —
// every block of a run uses the same ones — disagree on any simulated
// statistic or checked output, and when a previous run with the same
// workload, seed and block size recorded different ones.
func checkFingerprints(rep *report, o options, sp spec, blocks []blockStats) error {
	first := fingerprintText(blocks[0])
	for i, b := range blocks[1:] {
		if fp := fingerprintText(b); fp != first {
			rep.Correct = false
			rep.info = append(rep.info, fmt.Sprintf("fingerprint mismatch: block %d %s, block 0 %s", i+1, fp, first))
		}
	}
	rep.info = append(rep.info, "fingerprint "+first)
	path := o.statePath("fingerprints", fmt.Sprintf("%s-seed%d-ops%d.txt", sp.name, o.seed, len(blocks[0].opNs)))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != first {
			rep.Correct = false
			rep.info = append(rep.info, "fingerprint differs from an earlier run with this seed: "+string(prev))
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(first), 0o644)
	default:
		return err
	}
}

func fingerprintText(b blockStats) string {
	keys := make([]string, 0, len(b.fingerprint))
	for k := range b.fingerprint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("{")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%q:%d,", k, b.fingerprint[k])
	}
	fmt.Fprintf(&sb, "\"digest\":%q}", b.digest)
	return sb.String()
}

func machineRecord() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rec, _ := json.Marshal(map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	})
	return "machine " + string(rec)
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"op_tail_ms", "ms"},
	{"target.run_ns_per_vms", "ns/vms"},
	{"target.cycles_per_vms", "cycles/vms"},
	{"target.instr_cycles_per_vms", "cycles/vms"},
	{"serial.tx_bytes_per_vms", "B/vms"},
	{"serial.frames_dropped_per_vms", "frames/vms"},
	{"serial.delivery_ratio", "ratio"},
	{"protocol.poll_ns_per_vms", "ns/vms"},
	{"engine.dispatch_ns_per_vms", "ns/vms"},
	{"engine.events_per_vms", "events/vms"},
	{"jtag.poll_ns_per_vms", "ns/vms"},
	{"jtag.tck_per_vms", "tck/vms"},
	{"jtag.probe_ops_per_vms", "ops/vms"},
	{"graphics.svg_us_per_frame", "us"},
	{"checkpoint.observe_ns_per_vms", "ns/vms"},
	{"checkpoint.rewind_ms", "ms"},
	{"checkpoint.replay_ns_per_vms", "ns/vms"},
	{"checkpoint.count", "count"},
	{"checkpoint.clone_us", "us"},
	{"repro.debug_build_ms", "ms"},
	{"repro.cluster_build_ms", "ms"},
	{"dsl.load_ms", "ms"},
	{"farm.create_ms", "ms"},
	{"farm.attach_ms", "ms"},
	{"farm.break_ms", "ms"},
	{"farm.run_ms", "ms"},
	{"farm.detach_ms", "ms"},
	{"farm.resume_ms", "ms"},
	{"farm.wire_kb_per_op", "KiB"},
	{"farm.checkpoint_kb", "KiB"},
	{"farm.events_streamed_per_op", "events"},
	{"target.cluster_run_ns_per_vms.serial", "ns/vms"},
	{"target.cluster_run_ns_per_vms.parallel", "ns/vms"},
	{"campaign.run_ms", "ms"},
	{"campaign.serial_ms", "ms"},
	{"sched.speedup", "ratio"},
	{"campaign.violating", "count"},
	{"campaign.drops", "count"},
	{"trace.overhead_frac", "ratio"},
}

func missing(m map[string]float64) int {
	n := 0
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			n++
		}
	}
	return n
}
