package campaign

import (
	"fmt"

	"repro"
	"repro/internal/codegen"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/models"
)

// Run executes a campaign: warm one instance of the model for
// Spec.WarmNs, capture the checkpoint, then fork/run/observe
// Spec.Variants parameter variants of it across the work-stealing pool.
// The returned aggregate is a pure function of the spec — worker count
// and scheduling order cannot change a byte of it.
func Run(spec Spec) (*Aggregate, error) {
	if spec.Variants <= 0 {
		return nil, fmt.Errorf("campaign: Variants must be positive (got %d)", spec.Variants)
	}
	if spec.RunNs == 0 {
		return nil, fmt.Errorf("campaign: RunNs must be positive")
	}
	if spec.MaxRepros <= 0 {
		spec.MaxRepros = 3
	}
	if repro.StatefulEnvironment(spec.Model) {
		return nil, fmt.Errorf("campaign: model %q has environment state outside the checkpoint (the plant lives host-side); forked variants would resume against a plant that never saw the warm-up", spec.Model)
	}
	sys, err := models.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	clustered := len(sys.Nodes()) >= 2
	if !clustered && (len(spec.Loss) > 0 || len(spec.JitterNs) > 0 || spec.RotateSlots) {
		return nil, fmt.Errorf("campaign: bus sweeps (loss/jitter/rotation) need a multi-node model; %q is single-board", spec.Model)
	}
	if clustered && spec.ShufflePriorities {
		return nil, fmt.Errorf("campaign: priority shuffling is single-board only (cluster task sets are per node)")
	}

	// Build the coordinator instance, warm it, capture the shared base
	// checkpoint. The coordinator then serves as worker 0's runner.
	arena := &trace.Arena{}
	var prog *codegen.Program
	if !clustered {
		if prog, err = repro.CompileFor(sys, boardConfig(spec.Model)); err != nil {
			return nil, err
		}
	}
	coord, err := newRunner(&spec, prog, nil, arena)
	if err != nil {
		return nil, err
	}
	if spec.WarmNs > 0 {
		if err := coord.dbg.RunNs(spec.WarmNs); err != nil {
			return nil, fmt.Errorf("campaign: warm-up: %w", err)
		}
	}
	base, err := coord.dbg.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("campaign: base checkpoint: %w", err)
	}
	coord.base = base

	var (
		taskNames []string
		basePrios []int
		slots     int
	)
	if clustered {
		bus := base.Cluster.Net.Sched
		if bus == nil {
			return nil, fmt.Errorf("campaign: model %q has no TDMA schedule; bus campaigns need one", spec.Model)
		}
		slots = len(bus.Slots)
		shortest := ^uint64(0)
		for _, s := range bus.Slots {
			if s.LenNs < shortest {
				shortest = s.LenNs
			}
		}
		for _, j := range spec.JitterNs {
			if j >= shortest {
				return nil, fmt.Errorf("campaign: jitter %d ns >= shortest slot %d ns (a release jittered past its slot never departs)", j, shortest)
			}
		}
	} else {
		for _, t := range coord.kind.(*boardKind).board.Tasks() {
			taskNames = append(taskNames, t.Name)
			basePrios = append(basePrios, t.Priority)
		}
		sortByName(taskNames, basePrios)
	}

	variants := planVariants(&spec, taskNames, basePrios, slots)
	results := make([]VariantResult, len(variants))

	pool := sched.NewPool(spec.Workers)
	defer pool.Close()

	// One warm simulator per worker, built lazily on the worker's first
	// variant. Each slot is touched only by its own worker, so the slices
	// need no lock.
	runners := make([]*runner, pool.Workers())
	buildErr := make([]error, pool.Workers())
	runners[0] = coord
	getRunner := func(w int) (*runner, error) {
		if runners[w] == nil && buildErr[w] == nil {
			runners[w], buildErr[w] = newRunner(&spec, prog, base, arena)
		}
		return runners[w], buildErr[w]
	}

	pool.ForEach(len(variants), func(w, i int) {
		v := variants[i]
		r, err := getRunner(w)
		if err != nil {
			results[i] = VariantResult{Index: v.Index, Seed: v.Seed, Error: err.Error()}
			return
		}
		results[i] = runVariant(r, &spec, v)
	})

	if spec.Shrink {
		var targets []int
		for i := range results {
			if results[i].Error == "" && len(results[i].Violations) > 0 {
				targets = append(targets, i)
			}
		}
		if len(targets) > spec.MaxRepros {
			targets = targets[:spec.MaxRepros]
		}
		pool.ForEach(len(targets), func(w, ti int) {
			i := targets[ti]
			r, err := getRunner(w)
			if err != nil {
				return
			}
			ns, repro, err := shrinkVariant(r, &spec, variants[i])
			if err != nil {
				results[i].Error = "shrink: " + err.Error()
				return
			}
			results[i].ShrunkNs = ns
			results[i].ReproTrace = repro
		})
	}

	return &Aggregate{
		Model: spec.Model, Variants: spec.Variants, Seed: spec.Seed,
		WarmNs: spec.WarmNs, RunNs: spec.RunNs,
		Results: results, Summary: summarize(results),
	}, nil
}

// runVariant is one fork-run-observe cycle.
func runVariant(r *runner, spec *Spec, v variant) VariantResult {
	fail := func(err error) VariantResult {
		return VariantResult{Index: v.Index, Seed: v.Seed, Error: err.Error()}
	}
	if err := r.fork(v); err != nil {
		return fail(err)
	}
	if err := r.dbg.RunNs(spec.RunNs); err != nil {
		return fail(err)
	}
	res, err := r.kind.observe(v)
	if err != nil {
		return fail(err)
	}
	return res
}

// sortByName co-sorts the task name/priority pair lists by name, so the
// priority multiset lines up with the sorted names planVariants permutes
// over.
func sortByName(names []string, prios []int) {
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
			prios[j], prios[j-1] = prios[j-1], prios[j]
		}
	}
}
