package dtm

import (
	"fmt"
	"testing"
)

// TestSchedulePastRejectedNotEnqueued is the regression test for the
// silent-past-event bug: Schedule/ScheduleTagged at < now must error AND
// leave the queue untouched — previously the event was enqueued and ran
// "in the past" on the next pop, reordering history. Rearm stays the one
// past-tolerant path.
func TestSchedulePastRejectedNotEnqueued(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100)
	ran := false
	if err := k.Schedule(50, func(uint64) { ran = true }); err == nil {
		t.Fatal("Schedule in the past must error")
	}
	if _, err := k.ScheduleTagged(99, func(uint64) { ran = true }); err == nil {
		t.Fatal("ScheduleTagged in the past must error")
	}
	if err := k.ScheduleAt(10, 5, 1, func(uint64) { ran = true }); err == nil {
		t.Fatal("ScheduleAt in the past must error")
	}
	if k.Pending() != 0 {
		t.Fatalf("%d past events enqueued", k.Pending())
	}
	k.RunUntil(1000)
	if ran {
		t.Fatal("a rejected past event ran")
	}
	// at == now is not "the past": boundary schedules stay legal.
	if err := k.Schedule(1000, func(uint64) {}); err != nil {
		t.Fatalf("schedule at now: %v", err)
	}
}

// TestRearmPastTolerantClampsClock: Rearm may target an instant at or
// before now (restore tooling re-arms relative to a clock it is about to
// rewind); the event runs on the next pop with the clock clamped monotone.
func TestRearmPastTolerantClampsClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100)
	var at uint64
	if err := k.Rearm(40, 7, func(now uint64) { at = now }); err != nil {
		t.Fatal(err)
	}
	if !k.Step() {
		t.Fatal("re-armed event did not run")
	}
	if at != 100 || k.Now() != 100 {
		t.Fatalf("past event ran at %d, clock %d (want clamped 100)", at, k.Now())
	}
}

// TestRearmRecoversSchedAt: equal-instant events whose schedule instants
// differ must keep their relative order through Snapshot/Restore/Rearm —
// the SchedAts table carries the middle (at, schedAt, seq) coordinate.
func TestRearmRecoversSchedAt(t *testing.T) {
	k := NewKernel()
	var order []string
	// Event A scheduled at t=0 for t=100; event B scheduled later (t=50,
	// inside an event) also for t=100 but with a LOWER re-arm seq offered
	// first — only schedAt keeps A before B after a restore.
	seqA, _ := k.ScheduleTagged(100, func(uint64) { order = append(order, "A") })
	var seqB uint64
	_ = k.Schedule(50, func(uint64) {
		seqB, _ = k.ScheduleTagged(100, func(uint64) { order = append(order, "B") })
	})
	k.RunUntil(60)
	st := k.Snapshot()
	if len(st.SchedAts) != 2 || st.SchedAts[seqA] != 0 || st.SchedAts[seqB] != 50 {
		t.Fatalf("SchedAts = %v (want {%d:0, %d:50})", st.SchedAts, seqA, seqB)
	}

	k2 := NewKernel()
	k2.Restore(st)
	// Re-arm in the wrong order on purpose: identity, not call order, must
	// decide execution order.
	_ = k2.Rearm(100, seqB, func(uint64) { order = append(order, "B") })
	_ = k2.Rearm(100, seqA, func(uint64) { order = append(order, "A") })
	k2.RunUntil(200)
	if fmt.Sprint(order) != "[A B]" {
		t.Fatalf("restored order = %v", order)
	}
}

// TestScheduleAtForeignIdentity: ScheduleAt events carry an explicit
// (at, schedAt, seq) from a foreign number space and interleave with
// kernel-assigned events exactly by that key, without bumping the kernel's
// own counter.
func TestScheduleAtForeignIdentity(t *testing.T) {
	k := NewKernel()
	var order []string
	_, _ = k.ScheduleTagged(100, func(uint64) { order = append(order, "local") }) // (100, 0, 1)
	seqBefore := k.Snapshot().Seq
	// Same instant, earlier schedAt — wins despite the huge seq.
	if err := k.ScheduleAt(100, 0, DeliveryBase, func(uint64) { order = append(order, "delivery") }); err != nil {
		t.Fatal(err)
	}
	if k.Snapshot().Seq != seqBefore {
		t.Fatal("ScheduleAt bumped the kernel seq counter")
	}
	k.RunUntil(100)
	// Equal (at, schedAt): kernel seq 1 < DeliveryBase.
	if fmt.Sprint(order) != "[local delivery]" {
		t.Fatalf("order = %v", order)
	}
}

// TestKernelReentrancyPanics: running the kernel from inside an event is
// heap corruption waiting to happen; it must panic loudly instead.
func TestKernelReentrancyPanics(t *testing.T) {
	k := NewKernel()
	_ = k.Schedule(10, func(uint64) { k.RunUntil(20) })
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant RunUntil did not panic")
		}
	}()
	k.RunUntil(100)
}
