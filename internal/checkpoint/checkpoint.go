// Package checkpoint turns the explicit-state snapshots of the lower
// layers into checkpoint-replay debugging: the paper's DTM workflow wants
// to revisit the moment a timing anomaly occurred, but long runs were
// one-shot — once the virtual clock passed a deadline miss, the only
// recourse was a full rerun.
//
// It works over any debug target (target.Target): a standalone board is
// the one-node case of a cluster, and one code path serves both. A
// Checkpoint composes the target's snapshot with the host-side session
// state into one serializable value; Capture and Apply are the only
// places that tell the two serialized forms apart (Board/Host for a
// board, Cluster/ClusterHost for a cluster). One Recorder takes
// checkpoints periodically while logging the non-deterministic inputs
// (environment writes, host wire commands) of every node, so a session
// can reverse-step to the last checkpoint and deterministically
// re-execute forward to any instant (engine.Session.RewindTo /
// ReplayUntil).
//
// Determinism contract: everything below the host is a pure function of
// the restored state — the kernel replays pending events in their original
// sequence positions, the VM machines resume at exact instruction
// boundaries, the UART delivers the same bytes at the same instants, and
// on a cluster the bus draws jitter and loss from the restored network
// RNG. The two inputs that are NOT functions of target state are captured
// in the Recorder's logs: WriteInput stimuli (the environment/plant path)
// and instructions the host sends over the wire. Host-side interactive
// actions that never touch the wire (host-side Step on a passive session)
// are outside the replay contract.
//
// Serialized form: a checkpoint's canonical bytes are exactly what
// json.Encoder.Encode writes for it, trailing newline included, and their
// SHA-256 is its content address (Digest, the farm's checkpoint store).
// The codec in codec.go writes those bytes in one pass and reads them
// back in one pass. Its fast path is exact: it accepts only the canonical
// form, and any other input — whitespace, other key orders, unknown or
// case-folded keys, null, lone surrogates, malformed data — goes to
// encoding/json, so the accepted inputs, the values and the errors are
// encoding/json's (FuzzCheckpointCodec pins both directions). The bulk
// of a checkpoint is the per-byte serial in-flight queue (one {"b","at"}
// entry per byte on a saturated UART) and the trace records; the sha256
// pins on the ring, heating and dist checkpoints fail on any byte the
// codec moves.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/target"
)

// Version is the serialized checkpoint format version.
const Version = 1

// HostState is the host half of a checkpoint: the session (trace,
// breakpoints, run mode) and the serial command channel.
type HostState struct {
	Session engine.SessionState       `json:"session"`
	Serial  *engine.SerialSourceState `json:"serial,omitempty"`
}

// ClusterHostState is the host half of a distributed checkpoint: one
// session animated by the whole cluster plus the per-node serial command
// channels (keyed by node name).
type ClusterHostState struct {
	Session engine.SessionState                 `json:"session"`
	Serials map[string]engine.SerialSourceState `json:"serials,omitempty"`
}

// Checkpoint is one complete execution state: a standalone board or a
// whole cluster, plus (optionally) the host session attached to it. It is
// a plain value — JSON-serializable, so a checkpoint written by one
// process restores in a fresh one.
type Checkpoint struct {
	Version int    `json:"version"`
	Time    uint64 `json:"time"`

	Board       *target.BoardState   `json:"board,omitempty"`
	Cluster     *target.ClusterState `json:"cluster,omitempty"`
	Host        *HostState           `json:"host,omitempty"`
	ClusterHost *ClusterHostState    `json:"clusterHost,omitempty"`
}

// Clone deep-copies the whole checkpoint in memory (nil-safe), composing
// the per-layer Clone methods. This is the zero-serialization fork path:
// cloning a warm checkpoint and restoring the clone is equivalent to a
// Marshal/Decode round trip — the differential tests pin clones to the
// original's exact Marshal bytes — at a fraction of the allocation cost,
// which is what makes fleet-scale campaign forking cheap.
func (c *Checkpoint) Clone() *Checkpoint {
	if c == nil {
		return nil
	}
	cp := *c
	cp.Board = c.Board.Clone()
	cp.Cluster = c.Cluster.Clone()
	if c.Host != nil {
		h := HostState{Session: c.Host.Session.Clone()}
		if c.Host.Serial != nil {
			s := c.Host.Serial.Clone()
			h.Serial = &s
		}
		cp.Host = &h
	}
	if c.ClusterHost != nil {
		h := ClusterHostState{Session: c.ClusterHost.Session.Clone()}
		if c.ClusterHost.Serials != nil {
			h.Serials = make(map[string]engine.SerialSourceState, len(c.ClusterHost.Serials))
			for node, st := range c.ClusterHost.Serials {
				h.Serials[node] = st.Clone()
			}
		}
		cp.ClusterHost = &h
	}
	return &cp
}

// Encode writes the checkpoint's serialized form.
func (c *Checkpoint) Encode(w io.Writer) error {
	return c.canonical(func(b []byte) error {
		_, err := w.Write(b)
		return err
	})
}

// Decode reads a checkpoint written by Encode (see Unmarshal).
func Decode(r io.Reader) (*Checkpoint, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // read in one piece
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return Unmarshal(buf.Bytes())
}

// Marshal returns the checkpoint's canonical serialized form — the exact
// bytes Encode writes. Content addressing (Digest, the farm's checkpoint
// store) hashes these bytes, so Marshal is the one serialization path.
func (c *Checkpoint) Marshal() ([]byte, error) {
	var out []byte
	err := c.canonical(func(b []byte) error {
		out = bytes.Clone(b)
		return nil
	})
	return out, err
}

// DigestBytes is the content address of a serialized checkpoint: the hex
// SHA-256 of its canonical bytes.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Digest serializes the checkpoint and returns its content address. Two
// checkpoints of byte-identical execution states digest identically, so a
// store keyed by Digest deduplicates repeated captures for free and a
// reader can verify integrity by re-hashing what it fetched.
func (c *Checkpoint) Digest() (string, error) {
	var d string
	err := c.canonical(func(b []byte) error {
		d = DigestBytes(b)
		return nil
	})
	return d, err
}

// WriteFile serializes the checkpoint to a file.
func (c *Checkpoint) WriteFile(path string) error {
	return c.canonical(func(b []byte) error { return os.WriteFile(path, b, 0o666) })
}

// ReadFile deserializes a checkpoint from a file.
func ReadFile(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(raw)
}

// Capture snapshots a debug target plus the host session attached to it.
// A standalone board takes the Board/Host form, a cluster the
// Cluster/ClusterHost form; this and Apply are the only places the two
// forms are told apart. s may be nil (target state only); serials maps
// node name -> that node's command channel and may be nil or partial
// (passive nodes have none).
func Capture(t target.Target, s *engine.Session, serials map[string]*engine.SerialSource) (*Checkpoint, error) {
	cp := &Checkpoint{Version: Version, Time: t.Now()}
	switch t := t.(type) {
	case *target.Board:
		bs, err := t.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Board = bs
		if s != nil {
			host := &HostState{Session: s.Snapshot()}
			if src := serials[t.Name]; src != nil {
				ss := src.Snapshot()
				host.Serial = &ss
			}
			cp.Host = host
		}
	case *target.Cluster:
		cs, err := t.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Cluster = cs
		if s != nil {
			host := &ClusterHostState{Session: s.Snapshot()}
			if len(serials) > 0 {
				host.Serials = make(map[string]engine.SerialSourceState, len(serials))
				for node, src := range serials {
					host.Serials[node] = src.Snapshot()
				}
			}
			cp.ClusterHost = host
		}
	default:
		return nil, fmt.Errorf("checkpoint: unsupported target %T", t)
	}
	return cp, nil
}

// Apply restores a checkpoint onto a target built from the same system
// (possibly in a fresh process) and rewinds the attached host session and
// command channels alongside it. The checkpoint's form must match the
// target's shape: a board checkpoint restores onto a board, a cluster
// checkpoint onto a cluster with the same node set.
func Apply(cp *Checkpoint, t target.Target, s *engine.Session, serials map[string]*engine.SerialSource) error {
	var (
		session *engine.SessionState
		chans   map[string]engine.SerialSourceState
	)
	switch t := t.(type) {
	case *target.Board:
		if cp.Board == nil {
			return fmt.Errorf("checkpoint: no board state (cluster checkpoint?)")
		}
		if err := t.Restore(cp.Board); err != nil {
			return err
		}
		if cp.Host != nil {
			session = &cp.Host.Session
			if cp.Host.Serial != nil {
				chans = map[string]engine.SerialSourceState{t.Name: *cp.Host.Serial}
			}
		}
	case *target.Cluster:
		if cp.Cluster == nil {
			return fmt.Errorf("checkpoint: no cluster state")
		}
		if err := t.Restore(cp.Cluster); err != nil {
			return err
		}
		if cp.ClusterHost != nil {
			session, chans = &cp.ClusterHost.Session, cp.ClusterHost.Serials
		}
	default:
		return fmt.Errorf("checkpoint: unsupported target %T", t)
	}
	if session == nil || s == nil {
		return nil
	}
	if err := s.Restore(*session); err != nil {
		return err
	}
	for node, st := range chans {
		if src := serials[node]; src != nil {
			src.Restore(st)
		}
	}
	return nil
}
