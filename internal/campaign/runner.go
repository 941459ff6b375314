package campaign

import (
	"fmt"
	"sort"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/models"
)

// runner is one worker's warm simulator instance: built once, then
// rewound to a fresh fork of the base checkpoint for every variant it
// executes. Instances are never shared between workers. Board and
// cluster campaigns run the same fork/run/observe cycle; only the
// variant's parameters and the observation differ, and those are the
// kind's.
type runner struct {
	dbg      *repro.Core
	kind     kind
	base     *checkpoint.Checkpoint
	arena    *trace.Arena
	progName string // the session trace's program label
}

// kind is what a campaign varies and observes on its target shape.
type kind interface {
	// prepare turns cp, a fresh clone of the base checkpoint, into the
	// variant's starting state: it clears the accounting and the warm
	// trace the variant must not inherit and installs the variant's
	// parameters on the target and in cp.
	prepare(cp *checkpoint.Checkpoint, v variant) error
	// observe evaluates the variant's post-fork observations.
	observe(v variant) (VariantResult, error)
}

// newRunner builds a warm-able instance of the spec's model: a placed
// multi-node model on a serial-mode TDMA cluster (campaign parallelism is
// across variants, not within one), anything else on one board. prog is
// the shared single-board program (nil for clusters).
func newRunner(spec *Spec, prog *codegen.Program, base *checkpoint.Checkpoint, arena *trace.Arena) (*runner, error) {
	sys, err := models.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	r := &runner{base: base, arena: arena}
	if len(sys.Nodes()) >= 2 {
		cdbg, err := repro.DebugCluster(sys, repro.ClusterDebugConfig{
			Cluster: repro.StandardClusterConfig(sys.Nodes(), target.ExecSerial),
		})
		if err != nil {
			return nil, err
		}
		r.dbg = &cdbg.Core
		r.kind = &busKind{spec: spec, cl: cdbg.Cluster, nodes: cdbg.Cluster.Nodes()}
	} else {
		cfg := boardConfig(spec.Model)
		cfg.Program = prog
		dbg, err := repro.Debug(sys, cfg)
		if err != nil {
			return nil, err
		}
		r.dbg = &dbg.Core
		r.kind = &boardKind{spec: spec, board: dbg.Board, fixed: cfg.Board.Sched == dtm.FixedPriority}
	}
	r.progName = r.dbg.Session.Trace.Program
	return r, nil
}

// boardConfig is the single-board campaign configuration for model.
func boardConfig(model string) repro.DebugConfig {
	return repro.DebugConfig{
		Transport:   repro.Active,
		Board:       repro.StandardBoardConfig(model),
		Environment: repro.StandardEnvironment(model),
	}
}

// fork rewinds the instance to the base checkpoint with the variant's
// parameters applied and a fresh (arena-backed) trace installed.
func (r *runner) fork(v variant) error {
	cp := r.base.Clone()
	if err := r.kind.prepare(cp, v); err != nil {
		return err
	}
	r.arena.Recycle(r.dbg.Session.Trace)
	if err := r.dbg.RestoreCheckpoint(cp); err != nil {
		return err
	}
	r.dbg.Session.Trace = r.arena.NewTrace(r.progName)
	return nil
}

// dropWarmTrace drops the warm trace from a checkpoint's host session:
// the restore would replay it through the GDM, and the variant's
// observations start at the fork.
func dropWarmTrace(s *engine.SessionState) {
	s.Trace = nil
	s.Handled = 0
}

// zeroTaskAccounting clears the accounting fields of a cloned scheduler
// state so post-restore counters measure the variant's window alone.
// Rhythm fields (NextRelease, RelSeq) are behavioral and stay.
func zeroTaskAccounting(tasks []dtm.TaskState) {
	for i := range tasks {
		t := &tasks[i]
		t.Releases, t.DeadlineMisses = 0, 0
		t.ExecNs, t.WorstNs = 0, 0
		t.Suspensions, t.Preemptions = 0, 0
		t.ResponseNs, t.WorstResponseNs = 0, 0
	}
}

// zeroBusAccounting clears a cloned network state's counters (Queued is
// the live TX depth and stays — departures decrement it).
func zeroBusAccounting(st *dtm.NetworkState) {
	st.Sent, st.Dropped = 0, 0
	for node, bs := range st.Stats {
		bs.Enqueued, bs.Delivered, bs.Dropped, bs.WorstQueueNs = 0, 0, 0, 0
		st.Stats[node] = bs
	}
}

// boardKind varies single-board variants (priority-assignment sweeps).
type boardKind struct {
	spec  *Spec
	board *target.Board
	fixed bool // FixedPriority policy: run RTA per variant
}

func (k *boardKind) prepare(cp *checkpoint.Checkpoint, v variant) error {
	zeroTaskAccounting(cp.Board.Sched.Tasks)
	if cp.Host != nil {
		dropWarmTrace(&cp.Host.Session)
	}
	// Priorities are code-level (task registration), not checkpoint
	// state: apply the permutation before the restore so the rebuilt
	// ready queue orders under the variant's assignment.
	if v.Prios != nil {
		for _, t := range k.board.Tasks() {
			if p, ok := v.Prios[t.Name]; ok {
				t.Priority = p
			}
		}
	}
	return nil
}

func (k *boardKind) observe(v variant) (VariantResult, error) {
	res := VariantResult{Index: v.Index, Seed: v.Seed, Prios: v.Prios}
	var rta []dtm.RTAResult
	if k.fixed {
		var err error
		rta, err = k.board.ResponseTimeAnalysis()
		if err != nil {
			return res, fmt.Errorf("rta: %w", err)
		}
	}
	res.Tasks = observeTasks("", k.board.Tasks(), rta)
	res.Violations = violations(k.spec, res.Tasks, 0)
	return res, nil
}

// busKind varies distributed variants (bus seed / loss / jitter /
// slot-rotation sweeps).
type busKind struct {
	spec  *Spec
	cl    *target.Cluster
	nodes []string
}

// variantSchedule derives the variant's TDMA schedule from the base one.
func variantSchedule(base *dtm.BusSchedule, v variant) *dtm.BusSchedule {
	s := base.Clone()
	s.Seed = v.Seed
	if v.HasLoss {
		s.LossPerMille = v.Loss
	}
	if v.HasJit {
		s.JitterNs = v.JitterNs
	}
	if v.Rotation > 0 {
		n := len(s.Slots)
		for i := range s.Slots {
			s.Slots[i].Owner = base.Slots[(i+v.Rotation)%n].Owner
		}
	}
	return s
}

func (k *busKind) prepare(cp *checkpoint.Checkpoint, v variant) error {
	for _, bs := range cp.Cluster.Boards {
		zeroTaskAccounting(bs.Sched.Tasks)
	}
	zeroBusAccounting(&cp.Cluster.Net)
	if cp.ClusterHost != nil {
		dropWarmTrace(&cp.ClusterHost.Session)
	}
	// Re-parameterise the bus: the variant schedule replaces the installed
	// one (SetSchedule restarts the jitter/loss RNG on the variant seed),
	// the clone's captured schedule is mutated to match so the restore's
	// schedule-identity check passes, and the clone's RNG state is pinned
	// to the variant stream (Network.Restore would otherwise rewind it to
	// the warm-up's position).
	sched := variantSchedule(cp.Cluster.Net.Sched, v)
	cp.Cluster.Net.Sched = sched
	cp.Cluster.Net.RNG = v.Seed
	k.cl.Net.DropInflight()
	if err := k.cl.Net.SetSchedule(sched); err != nil {
		return fmt.Errorf("variant %d schedule: %w", v.Index, err)
	}
	return nil
}

func (k *busKind) observe(v variant) (VariantResult, error) {
	res := VariantResult{Index: v.Index, Seed: v.Seed, Rotation: v.Rotation}
	if v.HasLoss {
		res.Loss = v.Loss
	}
	if v.HasJit {
		res.JitterNs = v.JitterNs
	}
	var obs []TaskObs
	res.Bus = map[string]dtm.BusStats{}
	var drops uint64
	for _, node := range k.nodes {
		obs = append(obs, observeTasks(node, k.cl.Boards[node].Tasks(), nil)...)
		if bs, ok := k.cl.BusStats(node); ok {
			res.Bus[node] = bs
			drops += bs.Dropped
		}
	}
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].Node != obs[j].Node {
			return obs[i].Node < obs[j].Node
		}
		return obs[i].Task < obs[j].Task
	})
	res.Tasks = obs
	res.Drops = drops
	res.Violations = violations(k.spec, res.Tasks, drops)
	return res, nil
}
