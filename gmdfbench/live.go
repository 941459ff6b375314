package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/protocol"
	"repro/models"
)

// liveWorkload is one interactive debugging session: a single caller
// advances the target a seeded 10-30 virtual ms and renders one SVG frame
// per op, waiting for each op before sending the next (closed loop). With
// rewinds on, a seeded 2% of the ops are time travel instead: RewindTo a
// seeded instant up to 300 virtual ms behind the frontier, then
// ReplayUntil back to the frontier.
type liveWorkload struct {
	model     string
	transport repro.Transport
	rewinds   bool

	ops    int
	durMs  []uint64 // per op: virtual ms advanced, 0 on a time-travel op
	backNs []uint64 // per op: rewind distance on a time-travel op
	refDig string   // digest of the uninterrupted run's stable trace
}

// checkpointInterval is the recorder cadence of the rewind workload.
const checkpointInterval = time.Duration(checkpoint.DefaultIntervalNs)

// rewindShare is the fraction of time-travel ops on the rewind workload.
const rewindShare = 0.02

func (w *liveWorkload) prepare(e *env) error {
	w.ops = e.ops
	// Every seed draws the same multiset of inputs in its own order, so
	// runs with different seeds do the same amount of work and differ only
	// in the order and the instants at which they do it.
	rng := rand.New(rand.NewPCG(e.seed, 1))
	w.durMs = make([]uint64, w.ops)
	w.backNs = make([]uint64, w.ops)
	for i := range w.durMs {
		w.durMs[i] = 10 + uint64(i%21)
	}
	rng.Shuffle(w.ops, func(i, j int) { w.durMs[i], w.durMs[j] = w.durMs[j], w.durMs[i] })
	if w.rewinds {
		// A fixed count at seeded positions, none in the first tenth so
		// every rewind has history behind it. Distances are stratified over
		// 20-300 virtual ms, one draw per stratum.
		k := max(1, int(rewindShare*float64(w.ops)+0.5))
		lo := w.ops / 10
		backs := make([]uint64, k)
		for j := range backs {
			backs[j] = uint64((20 + 280*(float64(j)+rng.Float64())/float64(k)) * 1e6)
		}
		for n, j := range rng.Perm(w.ops - lo)[:k] {
			w.durMs[lo+j] = 0
			w.backNs[lo+j] = backs[n]
		}
		frontier := uint64(0)
		for i, d := range w.durMs {
			if d == 0 {
				w.backNs[i] = min(w.backNs[i], frontier/2)
			}
			frontier += d * 1_000_000
		}
	}
	// The reference: one uninterrupted run to the same virtual instant,
	// without a recorder, computed outside any timed region.
	d, err := w.build(false)
	if err != nil {
		return err
	}
	if err := d.RunNs(w.totalMs() * 1_000_000); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	w.refDig = digest(d.Session.Trace.FormatStable())
	return nil
}

func (w *liveWorkload) totalMs() uint64 {
	t := uint64(0)
	for _, d := range w.durMs {
		t += d
	}
	return t
}

// build assembles a session exactly as a user of the facade would.
func (w *liveWorkload) build(record bool) (*repro.Debugger, error) {
	sys, err := models.ByName(w.model)
	if err != nil {
		return nil, err
	}
	d, err := repro.Debug(sys, repro.DebugConfig{
		Transport:   w.transport,
		Environment: repro.StandardEnvironment(w.model),
		Board:       repro.StandardBoardConfig(w.model),
	})
	if err != nil {
		return nil, err
	}
	if record {
		if _, err := d.EnableCheckpointing(checkpointInterval); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (w *liveWorkload) block(tr *tracer) (blockStats, error) {
	var bs blockStats
	t0 := time.Now()
	id := tr.begin("repro.debug")
	d, err := w.build(w.rewinds)
	tr.end(id)
	if err != nil {
		return bs, err
	}
	bs.setupNs = int64(time.Since(t0))

	var hook *pollHook
	if tr != nil {
		// More samples of the build for repro.debug_build_ms; the block
		// keeps the first instance.
		for i := 0; i < 4; i++ {
			id := tr.begin("repro.debug")
			_, err := w.build(w.rewinds)
			tr.end(id)
			if err != nil {
				return bs, err
			}
		}
		hook = installPollHook(d, tr)
	}
	bs.opNs = make([]float64, 0, w.ops)
	replayVms := 0.0
	m := startMeter()
	for i := 0; i < w.ops; i++ {
		tr.setOp(i)
		ts := time.Now()
		root := tr.begin("op")
		var err error
		if w.durMs[i] > 0 {
			if tr != nil {
				err = tracedRunNs(d, w.durMs[i]*1_000_000, tr, hook)
			} else {
				err = d.RunNs(w.durMs[i] * 1_000_000)
			}
		} else {
			err = w.timeTravel(d, w.backNs[i], tr)
			replayVms += float64(w.backNs[i]) / 1e6
		}
		sid := tr.begin("graphics.svg")
		frame := d.RenderSVG()
		tr.end(sid)
		tr.end(root)
		bs.opNs = append(bs.opNs, float64(time.Since(ts)))
		bs.attempted++
		if err != nil || len(frame) == 0 {
			bs.failed++
		}
	}
	m.stop(&bs)
	bs.newVms = float64(w.totalMs())

	// Output check, outside the timed region: the session's final stable
	// trace must equal the uninterrupted reference run's.
	bs.digest = digest(d.Session.Trace.FormatStable())
	if bs.digest != w.refDig {
		bs.failed = bs.attempted
	}
	tx := d.Board.Link.PortA().Stats()
	bs.fingerprint = map[string]uint64{
		"target.cycles":         d.Board.Cycles(),
		"target.instr_cycles":   d.Board.InstrumentationCycles(),
		"jtag.tck":              d.Board.TAP.TCKCount,
		"engine.handled":        d.Session.Handled,
		"trace.records":         uint64(d.Session.Trace.Len()),
		"serial.tx_bytes":       tx.Bytes,
		"serial.dropped_bytes":  tx.Dropped,
		"serial.frames_dropped": tx.FramesDropped,
	}
	if d.Probe != nil {
		bs.fingerprint["jtag.probe_ops"] = d.Probe.Ops()
	}
	if d.Recorder != nil {
		bs.fingerprint["checkpoint.count"] = uint64(len(d.Recorder.Checkpoints()))
	}
	if tr != nil {
		for k, v := range bs.fingerprint {
			tr.count(k, float64(v))
		}
		tr.count("vms", bs.newVms)
		tr.count("checkpoint.replay_vms", replayVms)
	}
	return bs, nil
}

// timeTravel rewinds back ns behind the recorder's frontier and replays
// forward to the frontier again.
func (w *liveWorkload) timeTravel(d *repro.Debugger, back uint64, tr *tracer) error {
	frontier := d.Recorder.Frontier()
	id := tr.begin("checkpoint.rewind")
	landed, err := d.Session.RewindTo(frontier - back)
	tr.end(id)
	if err != nil {
		return err
	}
	if landed != frontier-back {
		return fmt.Errorf("rewind landed at %d, want %d", landed, frontier-back)
	}
	id = tr.begin("checkpoint.replay")
	ok, err := d.Session.ReplayUntil(func(now uint64) bool { return now >= frontier }, back+2_000_000)
	tr.end(id)
	if err != nil {
		return err
	}
	if !ok || d.Board.Now() != frontier {
		return fmt.Errorf("replay stopped at %d, want the frontier %d", d.Board.Now(), frontier)
	}
	return nil
}

// sliceNs is the facade's pump granularity (Debugger.RunNs).
const sliceNs = 1_000_000

// tracedRunNs is Debugger.RunNs with a span around each layer call: the
// board's RunFor, the session's ProcessEvents (with the source's Poll as a
// child span) and the recorder's Observe.
func tracedRunNs(d *repro.Debugger, durNs uint64, tr *tracer, hook *pollHook) error {
	end := d.Board.Now() + durNs
	for d.Board.Now() < end {
		if d.Session.Paused() {
			return nil
		}
		id := tr.begin("target.run")
		d.Board.RunFor(sliceNs)
		tr.end(id)

		id = tr.begin("engine.process")
		hook.start()
		_, err := d.Session.ProcessEvents(d.Board.Now())
		hook.finish()
		tr.end(id)
		if err != nil {
			return err
		}
		if d.Recorder != nil {
			id = tr.begin("checkpoint.observe")
			err := d.Recorder.Observe(d.Board.Now())
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// pollHook splits ProcessEvents into the event source's Poll and the
// engine's own dispatch without replacing the session's source (the
// recorder finds the passive watcher by its concrete type). Poll ends at
// the first Translate call — ProcessEvents translates each event right
// after the source returns them — or, when the source returned nothing,
// when the marker source appended after it is polled.
type pollHook struct {
	tr      *tracer
	name    string
	begin   int64
	pollEnd int64
	armed   bool
}

func installPollHook(d *repro.Debugger, tr *tracer) *pollHook {
	h := &pollHook{tr: tr, name: "protocol.poll"}
	if d.Probe != nil {
		h.name = "jtag.poll"
	}
	inner := d.Session.Translate
	d.Session.Translate = func(ev protocol.Event) protocol.Event {
		h.mark()
		if inner != nil {
			return inner(ev)
		}
		return ev
	}
	d.Session.AddSource(markerSource{h})
	return h
}

func (h *pollHook) start() {
	h.begin, h.pollEnd, h.armed = h.tr.now(), 0, true
}

func (h *pollHook) mark() {
	if h.armed && h.pollEnd == 0 {
		h.pollEnd = h.tr.now()
	}
}

// finish records the poll as a child of the open engine span.
func (h *pollHook) finish() {
	if h.pollEnd == 0 {
		h.pollEnd = h.tr.now()
	}
	h.tr.add(h.name, h.begin, h.pollEnd)
	h.armed = false
}

// markerSource is the event source polled after the real one; it never
// delivers an event.
type markerSource struct{ h *pollHook }

func (m markerSource) Poll(uint64) []protocol.Event {
	m.h.mark()
	return nil
}

func (w *liveWorkload) layers(lt layerTimes, c map[string]float64, nblocks int) map[string]float64 {
	vms := c["vms"]
	out := map[string]float64{
		"target.run_ns_per_vms":         float64(lt.self["target.run"]) / vms,
		"target.cycles_per_vms":         c["target.cycles"] / vms,
		"target.instr_cycles_per_vms":   c["target.instr_cycles"] / vms,
		"serial.tx_bytes_per_vms":       c["serial.tx_bytes"] / vms,
		"serial.frames_dropped_per_vms": c["serial.frames_dropped"] / vms,
		"engine.dispatch_ns_per_vms":    float64(lt.self["engine.process"]) / vms,
		"engine.events_per_vms":         c["engine.handled"] / vms,
		"graphics.svg_us_per_frame":     median(lt.durs["graphics.svg"]) / 1e3,
	}
	if offered := c["serial.tx_bytes"] + c["serial.dropped_bytes"]; offered > 0 {
		out["serial.delivery_ratio"] = c["serial.tx_bytes"] / offered
	}
	if w.transport == repro.Active {
		out["protocol.poll_ns_per_vms"] = float64(lt.self["protocol.poll"]) / vms
	} else {
		out["jtag.poll_ns_per_vms"] = float64(lt.self["jtag.poll"]) / vms
		out["jtag.tck_per_vms"] = c["jtag.tck"] / vms
		out["jtag.probe_ops_per_vms"] = c["jtag.probe_ops"] / vms
	}
	if w.rewinds {
		out["checkpoint.observe_ns_per_vms"] = float64(lt.self["checkpoint.observe"]) / vms
		out["checkpoint.rewind_ms"] = median(lt.durs["checkpoint.rewind"]) / 1e6
		out["checkpoint.replay_ns_per_vms"] = sum(lt.durs["checkpoint.replay"]) / c["checkpoint.replay_vms"]
		out["checkpoint.count"] = c["checkpoint.count"] / float64(nblocks)
	}
	if w.model == "ring" {
		out["repro.debug_build_ms"] = median(lt.durs["repro.debug"]) / 1e6
	}
	return out
}
