package lvs

import (
	"strings"
	"testing"

	"riot/internal/geom"
	"riot/internal/verify"
)

// TestReferenceSingleSessionGuard pins the ownership contract: a
// Reference serves one session; a second concurrent entry is refused
// loudly instead of corrupting the pointer-keyed memos. Cross-session
// sharing goes through the content-addressed store.
func TestReferenceSingleSessionGuard(t *testing.T) {
	e := gridEditor(t, 2)
	var rf Reference
	if _, _, err := rf.NetlistOccs(e.Cell, nil); err != nil {
		t.Fatal(err)
	}
	rf.busy = 1
	_, _, err := rf.NetlistOccs(e.Cell, nil)
	if err == nil || !strings.Contains(err.Error(), "concurrently") {
		t.Fatalf("concurrent entry not refused: %v", err)
	}
	rf.busy = 0
	if _, _, err := rf.NetlistOccs(e.Cell, nil); err != nil {
		t.Fatalf("reference did not recover after the guard cleared: %v", err)
	}
}

// TestReferencePruneStale drives a Reference over many snapshot
// generations of one editing session and checks the memo stays bounded:
// superseded clones (each frozen generation is a fresh *Cell) are
// pruned once the memo bloats past the reachable set.
func TestReferencePruneStale(t *testing.T) {
	e := gridEditor(t, 2) // 4 instances: prune threshold 2*4+64 = 72
	var rf Reference
	for i := 0; i < 160; i++ {
		e.MoveInstance(e.Cell.Instances[0], geom.Pt(0, 0)) // content no-op, new generation
		snap := e.Snapshot()
		if _, _, err := rf.NetlistOccs(snap.Cell, snap.Declared); err != nil {
			t.Fatal(err)
		}
	}
	// reachable set: the current clone + 4 shared leaf cells (+ a few
	// entries the threshold tolerates before the next prune)
	if len(rf.memo) > 2*len(e.Cell.Instances)+64 {
		t.Fatalf("memo grew unboundedly across generations: %d entries", len(rf.memo))
	}
	if len(rf.conns) > 3*len(e.Cell.Instances)+64 {
		t.Fatalf("conns memo grew unboundedly: %d entries", len(rf.conns))
	}
	// and the derivation still answers correctly after pruning
	snap := e.Snapshot()
	ref, _, err := rf.NetlistOccs(snap.Cell, snap.Declared)
	if err != nil {
		t.Fatal(err)
	}
	if ref == nil {
		t.Fatal("nil reference after prune")
	}
}

// TestReferenceMemoFlatUnderEdits pins the edit-loop memory bound: on a
// placed grid, edit+LVS generations leave the reference memo and its
// instance maps the same size whatever the number of generations. A
// superseded generation's stitched entry is dropped on the next call,
// not once the memo outgrows the bloat gate.
func TestReferenceMemoFlatUnderEdits(t *testing.T) {
	e := gridEditor(t, 4) // 16 instances: bloat gate 2*16+64 = 96
	var inc Incremental
	var v verify.Verifier
	sizes := func() [3]int { return [3]int{len(inc.Ref.memo), len(inc.Ref.conns), len(inc.Ref.parts)} }
	var at [2][3]int
	for step := 0; step < 60; step++ {
		in := e.Cell.Instances[step%len(e.Cell.Instances)]
		d := geom.Pt(0, 0)
		if step%2 == 0 {
			d = geom.Pt(0, 100*lam) // lift it clear, then put it back
		}
		e.MoveInstance(in, d)
		if step%2 == 1 {
			e.MoveInstance(in, geom.Pt(0, -100*lam))
		}
		res, err := inc.Check(e, &v)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%2 == 1 && !res.Clean {
			t.Fatalf("step %d: restored grid not clean: %v", step, res.Mismatches)
		}
		switch step {
		case 9:
			at[0] = sizes()
		case 59:
			at[1] = sizes()
		}
	}
	if at[0] != at[1] {
		t.Fatalf("memo sizes (memo, conns, parts) grew with generations: %v after 10, %v after 60", at[0], at[1])
	}
	// pruned ids are never handed out again: a repeat would alias two
	// cells' signatures
	seen := map[uint64]bool{}
	for _, id := range inc.Ref.ids {
		if seen[id] {
			t.Fatalf("cell id %d assigned twice: %v", id, inc.Ref.ids)
		}
		seen[id] = true
	}
	// the live clone plus the one leaf cell; one instance memo per placement
	if want := [3]int{2, len(e.Cell.Instances), len(e.Cell.Instances)}; at[1] != want {
		t.Fatalf("memo sizes (memo, conns, parts) = %v, want %v", at[1], want)
	}
}
