package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/farm"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/models"
)

// farmWorkload drives an in-process farm server on a loopback listener
// with farmClients closed-loop clients. An op is one session lifecycle:
// create, attach, break, a short run-for, detach. Most ring and dist ops
// detach with a checkpoint and then resume from its digest, run and
// detach again. The DSL heating model never resumes: its plant state
// lives in the environment closure, outside the checkpoint.
type farmWorkload struct {
	ops  []farmOp
	src  string               // examples/dsl/heating.gmdf
	refs map[string]*farmRefs // in-process results per model
}

const farmClients = 2

// farmModels are the models an op draws from; "dsl" is a scenario-source
// create of examples/dsl/heating.gmdf.
var farmModels = []string{"ring", "dist", "dsl"}

// farmBreakActor is the actor each op arms a deadline-miss breakpoint on.
var farmBreakActor = map[string]string{"ring": "ring0", "dist": "producer", "dsl": "heater"}

type farmOp struct {
	model       string
	ms1, ms2    uint64 // ms2 > 0: detach with a checkpoint, resume, run ms2
	traceSample bool   // compare the session's stable trace too
}

// farmRefs holds an uninterrupted in-process run's result after each
// virtual ms.
type farmRefs struct {
	res   []farm.RunResult
	trace []string // digest of the stable trace
}

const farmMaxMs = 20

func (w *farmWorkload) prepare(e *env) error {
	raw, err := os.ReadFile(filepath.Join(e.root, "examples", "dsl", "heating.gmdf"))
	if err != nil {
		return err
	}
	w.src = string(raw)
	// As in the live workloads, every seed draws the same multiset of ops
	// in its own order: models in equal shares, three quarters of the ring
	// and dist ops resumed, an eighth of all ops trace-checked, run lengths
	// spread evenly over 5-20 virtual ms.
	rng := rand.New(rand.NewPCG(e.seed, 3))
	w.ops = make([]farmOp, e.ops)
	var resumable []int
	for i := range w.ops {
		op := &w.ops[i]
		op.model = farmModels[i%len(farmModels)]
		op.ms1 = 5 + uint64(i%(farmMaxMs-4))
		if op.model != "dsl" {
			resumable = append(resumable, i)
		}
	}
	rng.Shuffle(len(resumable), func(i, j int) { resumable[i], resumable[j] = resumable[j], resumable[i] })
	for n, i := range resumable[:max(1, len(resumable)*3/4)] {
		w.ops[i].ms2 = 5 + uint64(n%(farmMaxMs-4))
	}
	for _, i := range rng.Perm(e.ops)[:max(1, e.ops/8)] {
		w.ops[i].traceSample = true
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })

	w.refs = map[string]*farmRefs{}
	for _, m := range farmModels {
		r, err := w.reference(m)
		if err != nil {
			return fmt.Errorf("reference %s: %w", m, err)
		}
		w.refs[m] = r
	}
	return nil
}

// reference runs the model in process exactly as the farm builds it, one
// virtual ms at a time, recording the run result after each ms.
func (w *farmWorkload) reference(model string) (*farmRefs, error) {
	var (
		sess *engine.Session
		now  func() uint64
		run  func(ns uint64) error
	)
	switch model {
	case "dist":
		sys, err := models.ByName("dist")
		if err != nil {
			return nil, err
		}
		cd, err := repro.DebugCluster(sys, repro.ClusterDebugConfig{
			Cluster: repro.StandardClusterConfig(sys.Nodes(), target.ExecAuto),
		})
		if err != nil {
			return nil, err
		}
		sess, now, run = cd.Session, cd.Cluster.Now, cd.RunNs
	default:
		var d *repro.Debugger
		if model == "dsl" {
			sc, _, err := dsl.LoadSource("heating.gmdf", w.src)
			if err != nil {
				return nil, err
			}
			if d, err = repro.Debug(sc.Sys, sc.DebugConfig()); err != nil {
				return nil, err
			}
		} else {
			sys, err := models.ByName(model)
			if err != nil {
				return nil, err
			}
			if d, err = repro.Debug(sys, repro.DebugConfig{Transport: repro.Active, Environment: repro.StandardEnvironment(model)}); err != nil {
				return nil, err
			}
		}
		sess, now, run = d.Session, d.Board.Now, d.RunNs
	}
	if err := sess.SetBreakpoint(engine.MissBreakpoint("miss", farmBreakActor[model])); err != nil {
		return nil, err
	}
	refs := &farmRefs{}
	for ms := 0; ms <= 2*farmMaxMs; ms++ {
		if ms > 0 {
			if err := run(1_000_000); err != nil {
				return nil, err
			}
		}
		r := farm.RunResult{NowNs: now(), Paused: sess.Paused(), Handled: sess.Handled, Records: sess.Trace.Len()}
		if sess.LastBreak != nil {
			r.LastBreak = sess.LastBreak.ID
		}
		refs.res = append(refs.res, r)
		refs.trace = append(refs.trace, digest(sess.Trace.FormatStable()))
	}
	return refs, nil
}

// countingConn counts the bytes a client moves over its connection.
type countingConn struct {
	net.Conn
	n int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

// farmOpResult is what one op leaves behind for the checks.
type farmOpResult struct {
	err    error
	final  farm.RunResult
	trace  string // stable trace digest, sampled ops only
	digest string // checkpoint digest, resumed ops only
}

func (w *farmWorkload) block(tr *tracer) (blockStats, error) {
	var bs blockStats
	t0 := time.Now()
	srv, err := farm.NewServer(farm.Options{})
	if err != nil {
		return bs, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return bs, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		srv.Close()
		<-served
	}()
	conns := make([]*countingConn, farmClients)
	clients := make([]*farm.Client, farmClients)
	for i := range clients {
		nc, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			return bs, err
		}
		conns[i] = &countingConn{Conn: nc}
		clients[i] = farm.NewClient(conns[i])
		defer clients[i].Close()
	}
	// The first create of each model compiles its program: lazy set-up a
	// farm user pays once.
	for _, m := range farmModels {
		cr, err := clients[0].Create(w.createParams(m, ""))
		if err != nil {
			return bs, fmt.Errorf("warm create %s: %w", m, err)
		}
		if _, err := clients[0].Detach(cr.Session, false); err != nil {
			return bs, err
		}
	}
	bs.setupNs = int64(time.Since(t0))

	if tr != nil {
		// DSL creates run the scenario front end server-side; time it from
		// outside on the same source.
		for i := 0; i < 5; i++ {
			id := tr.begin("dsl.load")
			_, _, err := dsl.LoadSource("heating.gmdf", w.src)
			tr.end(id)
			if err != nil {
				return bs, err
			}
		}
	}

	var wire0 [farmClients]int64
	events := make([]int, farmClients)
	for i, c := range clients {
		wire0[i] = conns[i].n
		c.OnEvents = func(_ string, recs []trace.Record) { events[i] += len(recs) }
	}
	results := make([]farmOpResult, len(w.ops))
	lat := make([]float64, len(w.ops))
	tracers := make([]*tracer, farmClients)
	m := startMeter()
	var wg sync.WaitGroup
	for c := 0; c < farmClients; c++ {
		if tr != nil {
			tracers[c] = newTracer(tr.epoch)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.ops); i += farmClients {
				lat[i], results[i] = w.lifecycle(clients[c], w.ops[i], i, tracers[c])
			}
		}(c)
	}
	wg.Wait()
	m.stop(&bs)
	bs.opNs = lat

	// Checks, outside the timed region.
	var sumNow, sumHandled, sumRecords, cpBytes, resumes uint64
	var finals []farm.RunResult
	for i, op := range w.ops {
		r := results[i]
		bs.attempted++
		ref := w.refs[op.model]
		want := ref.res[op.ms1+op.ms2]
		ok := r.err == nil && r.final == want
		if ok && op.traceSample {
			ok = r.trace == ref.trace[op.ms1+op.ms2]
		}
		if !ok {
			bs.failed++
		}
		bs.newVms += float64(op.ms1 + op.ms2)
		finals = append(finals, r.final)
		sumNow += r.final.NowNs
		sumHandled += r.final.Handled
		sumRecords += uint64(r.final.Records)
		if r.digest != "" {
			cp, err := srv.Store().Get(r.digest)
			if err != nil {
				return bs, err
			}
			raw, err := cp.Marshal()
			if err != nil {
				return bs, err
			}
			cpBytes += uint64(len(raw))
			resumes++
		}
	}
	st, err := clients[0].Stats()
	if err != nil {
		return bs, err
	}
	bs.fingerprint = map[string]uint64{
		"farm.now_ns":           sumNow,
		"engine.handled":        sumHandled,
		"trace.records":         sumRecords,
		"farm.events_streamed":  st.EventsStreamed,
		"farm.store_entries":    uint64(st.StoreEntries),
		"farm.checkpoint_bytes": cpBytes,
		"farm.sessions_created": st.SessionsCreated,
		"farm.sessions_resumed": st.SessionsResumed,
	}
	bs.digest = digest(fmt.Sprint(finals))
	if tr != nil {
		for _, t := range tracers {
			tr.merge(t)
		}
		wire := int64(0)
		for i := range conns {
			wire += conns[i].n - wire0[i]
		}
		tr.count("farm.ops", float64(len(w.ops)))
		tr.count("farm.wire_bytes", float64(wire))
		tr.count("farm.checkpoint_bytes", float64(cpBytes))
		tr.count("farm.resumes", float64(resumes))
		for _, n := range events {
			tr.count("farm.events", float64(n))
		}
	}
	return bs, nil
}

func (w *farmWorkload) createParams(model, checkpoint string) farm.CreateParams {
	if model == "dsl" {
		return farm.CreateParams{Source: w.src, SourceName: "heating.gmdf", Checkpoint: checkpoint}
	}
	return farm.CreateParams{Model: model, Checkpoint: checkpoint}
}

// lifecycle runs one op and returns its latency, which excludes the
// sampled trace fetch (a check, not part of the op).
func (w *farmWorkload) lifecycle(c *farm.Client, op farmOp, i int, tr *tracer) (float64, farmOpResult) {
	var res farmOpResult
	tr.setOp(i)
	ts := time.Now()
	root := tr.begin("op")
	var excluded time.Duration
	call := func(name string, f func() error) error {
		id := tr.begin(name)
		err := f()
		tr.end(id)
		return err
	}
	session := func(name, checkpoint string, ms uint64, bp bool, keep bool) (string, error) {
		var cr farm.CreateResult
		if err := call(name, func() (err error) { cr, err = c.Create(w.createParams(op.model, checkpoint)); return }); err != nil {
			return "", err
		}
		if err := call("farm.attach", func() error { _, err := c.Attach(cr.Session); return err }); err != nil {
			return "", err
		}
		if bp {
			if err := call("farm.break", func() error {
				_, err := c.Break(cr.Session, farm.BreakParams{ID: "miss", MissActor: farmBreakActor[op.model]})
				return err
			}); err != nil {
				return "", err
			}
		}
		if err := call("farm.run", func() (err error) { res.final, err = c.RunFor(cr.Session, ms); return }); err != nil {
			return "", err
		}
		if op.traceSample && !keep {
			t := time.Now()
			tres, err := c.TraceStable(cr.Session)
			excluded += time.Since(t)
			if err != nil {
				return "", err
			}
			res.trace = digest(tres.Stable)
		}
		var dr farm.DetachResult
		if err := call("farm.detach", func() (err error) { dr, err = c.Detach(cr.Session, keep); return }); err != nil {
			return "", err
		}
		return dr.Digest, nil
	}
	resume := op.ms2 > 0
	d, err := session("farm.create", "", op.ms1, true, resume)
	if err == nil && resume {
		res.digest = d
		_, err = session("farm.resume", d, op.ms2, false, false)
	}
	tr.end(root)
	res.err = err
	return float64(time.Since(ts) - excluded), res
}

func (w *farmWorkload) layers(lt layerTimes, c map[string]float64, nblocks int) map[string]float64 {
	ops := c["farm.ops"]
	return map[string]float64{
		"farm.create_ms":              median(lt.durs["farm.create"]) / 1e6,
		"farm.attach_ms":              median(lt.durs["farm.attach"]) / 1e6,
		"farm.break_ms":               median(lt.durs["farm.break"]) / 1e6,
		"farm.run_ms":                 median(lt.durs["farm.run"]) / 1e6,
		"farm.detach_ms":              median(lt.durs["farm.detach"]) / 1e6,
		"farm.resume_ms":              median(lt.durs["farm.resume"]) / 1e6,
		"farm.wire_kb_per_op":         c["farm.wire_bytes"] / ops / 1024,
		"farm.checkpoint_kb":          c["farm.checkpoint_bytes"] / c["farm.resumes"] / 1024,
		"farm.events_streamed_per_op": c["farm.events"] / ops,
		"dsl.load_ms":                 median(lt.durs["dsl.load"]) / 1e6,
	}
}
