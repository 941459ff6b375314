package repro

// The distributed half of the facade: Debug assembles the pipeline for a
// single board; DebugCluster does the same for a placed multi-node system
// — one board per node on a shared virtual clock, cross-node signals on
// the dtm.Network (constant-latency or a time-triggered TDMA bus), and ONE
// model-level session animated by every node's active command interface.
// Everything after construction is the shared Core.

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/comdes"
	"repro/internal/dtm"
	"repro/internal/target"
)

// ClusterDebugConfig parameterises DebugCluster.
type ClusterDebugConfig struct {
	// Cluster carries the target-side configuration: network latency, the
	// optional TDMA bus schedule, per-node board parameters.
	Cluster target.ClusterConfig
	// Instrument overrides the active instrumentation points woven into
	// every node's program (default: state entries, transitions, signals).
	Instrument *codegen.Instrument
	// Environment, when set, runs at every task release of every node (the
	// plant hook, with the node name for placement-aware stimuli).
	Environment func(now uint64, node string, b *target.Board)
}

// ClusterDebugger bundles one assembled distributed debugging setup:
// every node's active command interface feeds the one session of the
// embedded Core, which also supplies the run loop, checkpoints and
// rendering.
type ClusterDebugger struct {
	Core
	Cluster *target.Cluster
}

// DebugCluster assembles the full GMDF pipeline for a placed multi-node
// COMDES system.
func DebugCluster(sys *comdes.System, cfg ClusterDebugConfig) (*ClusterDebugger, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if len(sys.Nodes()) < 2 {
		return nil, fmt.Errorf("repro: DebugCluster needs a placed multi-node system (got %d nodes); use Debug", len(sys.Nodes()))
	}
	ccfg := cfg.Cluster
	if cfg.Instrument != nil {
		ccfg.Compile.Instrument = *cfg.Instrument
	} else {
		ccfg.Compile.Instrument = codegen.Instrument{StateEnter: true, Transitions: true, Signals: true}
	}
	cl, err := target.BuildCluster(sys, ccfg)
	if err != nil {
		return nil, err
	}
	if cfg.Environment != nil {
		env := cfg.Environment
		for _, node := range cl.Nodes() {
			node := node
			brd := cl.Boards[node]
			brd.PreLatch = func(now uint64, actor string) { env(now, node, brd) }
		}
	}

	d := &ClusterDebugger{Cluster: cl}
	if err := d.init(sys, nil, cl); err != nil {
		return nil, err
	}
	for _, node := range cl.Nodes() {
		d.addSerial(node)
	}
	return d, nil
}

// BusStats returns node's TX accounting on the time-triggered bus. ok is
// false when the bus does not know the node — no TDMA schedule, a
// misspelled name, or a slot-less node that never sent.
func (d *ClusterDebugger) BusStats(node string) (dtm.BusStats, bool) {
	return d.Cluster.BusStats(node)
}
