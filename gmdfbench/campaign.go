package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/target"
	"repro/models"
)

// campaignWorkload runs campaign fleets on the 2-node TDMA cluster back to
// back: an op is one campaign.Run with a per-op seed, on nproc workers.
// Loss and jitter sweeps with slot rotation and a zero drop budget make
// some variants violate, and those are shrunk.
type campaignWorkload struct {
	specs   []campaign.Spec
	sampled []int          // op indexes checked against a one-worker run
	refDig  map[int]string // one-worker aggregate digest per sampled op
}

const (
	campaignVariants = 16
	campaignWarmNs   = 10_000_000
	campaignRunNs    = 25_000_000
)

func (w *campaignWorkload) prepare(e *env) error {
	rng := rand.New(rand.NewPCG(e.seed, 4))
	w.specs = make([]campaign.Spec, e.ops)
	for i := range w.specs {
		w.specs[i] = campaign.Spec{
			Model: "dist", Variants: campaignVariants, Seed: rng.Uint64(),
			WarmNs: campaignWarmNs, RunNs: campaignRunNs,
			Loss:        []uint32{0, 100, 400},
			JitterNs:    []uint64{0, 20_000, 60_000},
			RotateSlots: true,
			MissBudget:  -1, DropBudget: 0,
			Shrink: true, MaxRepros: 2,
			Workers: runtime.NumCPU(),
		}
	}
	// A seeded quarter of the ops (at least one) is checked against the
	// same campaign on one worker, computed here outside any timed region.
	w.refDig = map[int]string{}
	for _, i := range rng.Perm(e.ops)[:max(1, e.ops/4)] {
		w.sampled = append(w.sampled, i)
		dig, _, err := runCampaign(w.specs[i], 1)
		if err != nil {
			return err
		}
		w.refDig[i] = dig
	}
	return nil
}

// runCampaign runs spec on the given worker count and returns the
// aggregate's digest.
func runCampaign(spec campaign.Spec, workers int) (string, *campaign.Aggregate, error) {
	spec.Workers = workers
	agg, err := campaign.Run(spec)
	if err != nil {
		return "", nil, err
	}
	raw, err := json.Marshal(agg)
	if err != nil {
		return "", nil, err
	}
	return digest(string(raw)), agg, nil
}

func (w *campaignWorkload) block(tr *tracer) (blockStats, error) {
	var bs blockStats
	// Set-up: the block's first campaign, run once before the ops. It pays
	// whatever a process initialises lazily on its first fleet.
	t0 := time.Now()
	if _, _, err := runCampaign(w.specs[0], w.specs[0].Workers); err != nil {
		return bs, err
	}
	bs.setupNs = int64(time.Since(t0))

	digs := make([]string, len(w.specs))
	var violating, drops uint64
	bs.opNs = make([]float64, 0, len(w.specs))
	m := startMeter()
	for i, spec := range w.specs {
		tr.setOp(i)
		ts := time.Now()
		id := tr.begin("campaign.run")
		dig, agg, err := runCampaign(spec, spec.Workers)
		tr.end(id)
		bs.opNs = append(bs.opNs, float64(time.Since(ts)))
		bs.attempted++
		if err != nil {
			bs.failed++
			continue
		}
		digs[i] = dig
		violating += uint64(agg.Summary.Violating)
		drops += agg.Summary.TotalDrops
		bs.newVms += float64(spec.WarmNs+uint64(spec.Variants)*spec.RunNs) / 1e6
	}
	m.stop(&bs)

	for _, i := range w.sampled {
		if digs[i] != "" && digs[i] != w.refDig[i] {
			bs.failed++
		}
	}
	bs.digest = digest(strings.Join(digs, ","))
	bs.fingerprint = map[string]uint64{"campaign.violating": violating, "campaign.drops": drops}
	if tr != nil {
		tr.count("campaign.ops", float64(len(w.specs)))
		tr.count("campaign.violating", float64(violating))
		tr.count("campaign.drops", float64(drops))
		if err := w.traceSerial(tr, bs.opNs, &bs); err != nil {
			return bs, err
		}
		if err := traceCluster(tr); err != nil {
			return bs, err
		}
	}
	return bs, nil
}

// traceSerial reruns the sampled campaigns on one worker, for the pool's
// speedup over the same campaigns; their aggregates are checked again.
func (w *campaignWorkload) traceSerial(tr *tracer, parallelNs []float64, bs *blockStats) error {
	for _, i := range w.sampled {
		tr.setOp(i)
		id := tr.begin("campaign.serial")
		dig, _, err := runCampaign(w.specs[i], 1)
		tr.end(id)
		if err != nil {
			return err
		}
		if dig != w.refDig[i] {
			bs.failed++
		}
		tr.count("campaign.sampled_parallel_ns", parallelNs[i])
	}
	return nil
}

// traceCluster times the cluster layers the campaign runs on: building
// the dist cluster, cloning its warm checkpoint, and running it on the
// serial and the parallel executor.
func traceCluster(tr *tracer) error {
	sys, err := models.ByName("dist")
	if err != nil {
		return err
	}
	build := func(exec target.ExecMode) (*repro.ClusterDebugger, error) {
		return repro.DebugCluster(sys, repro.ClusterDebugConfig{Cluster: repro.StandardClusterConfig(sys.Nodes(), exec)})
	}
	for i := 0; i < 5; i++ {
		id := tr.begin("repro.cluster_build")
		_, err := build(target.ExecAuto)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	cd, err := build(target.ExecAuto)
	if err != nil {
		return err
	}
	if err := cd.RunNs(campaignWarmNs); err != nil {
		return err
	}
	cp, err := cd.Checkpoint()
	if err != nil {
		return err
	}
	var sink *checkpoint.Checkpoint
	for i := 0; i < 50; i++ {
		id := tr.begin("checkpoint.clone")
		sink = cp.Clone()
		tr.end(id)
	}
	if sink.Time != cp.Time {
		return fmt.Errorf("clone changed the checkpoint time")
	}
	const runMs = 200
	for _, m := range []struct {
		name string
		exec target.ExecMode
	}{{"serial", target.ExecSerial}, {"parallel", target.ExecParallel}} {
		cd, err := build(m.exec)
		if err != nil {
			return err
		}
		id := tr.begin("target.cluster_run." + m.name)
		err = cd.RunNs(runMs * 1_000_000)
		tr.end(id)
		if err != nil {
			return err
		}
		tr.count("target.cluster_run_vms."+m.name, runMs)
	}
	return nil
}

func (w *campaignWorkload) layers(lt layerTimes, c map[string]float64, nblocks int) map[string]float64 {
	ops := c["campaign.ops"]
	return map[string]float64{
		"campaign.run_ms":                        median(lt.durs["campaign.run"]) / 1e6,
		"campaign.serial_ms":                     median(lt.durs["campaign.serial"]) / 1e6,
		"sched.speedup":                          sum(lt.durs["campaign.serial"]) / c["campaign.sampled_parallel_ns"],
		"campaign.violating":                     c["campaign.violating"] / ops,
		"campaign.drops":                         c["campaign.drops"] / ops,
		"repro.cluster_build_ms":                 median(lt.durs["repro.cluster_build"]) / 1e6,
		"checkpoint.clone_us":                    median(lt.durs["checkpoint.clone"]) / 1e3,
		"target.cluster_run_ns_per_vms.serial":   sum(lt.durs["target.cluster_run.serial"]) / c["target.cluster_run_vms.serial"],
		"target.cluster_run_ns_per_vms.parallel": sum(lt.durs["target.cluster_run.parallel"]) / c["target.cluster_run_vms.parallel"],
	}
}
