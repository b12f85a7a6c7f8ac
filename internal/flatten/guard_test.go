package flatten

import (
	"strings"
	"testing"

	"riot/internal/geom"
)

// TestCacheSingleSessionGuard pins the ownership contract: a Cache
// serves one session, and a second concurrent entry is refused loudly
// instead of corrupting the memo. (Cross-session sharing goes through
// the content-addressed store, not through a shared Cache.)
func TestCacheSingleSessionGuard(t *testing.T) {
	_, e := buildTop(t, 4)
	var ca Cache
	if _, err := ca.Flatten(e.Cell); err != nil {
		t.Fatal(err)
	}
	// simulate a second session mid-flight
	ca.busy = 1
	_, err := ca.Flatten(e.Cell)
	if err == nil || !strings.Contains(err.Error(), "concurrently") {
		t.Fatalf("concurrent entry not refused: %v", err)
	}
	ca.busy = 0
	if _, err := ca.Flatten(e.Cell); err != nil {
		t.Fatalf("cache did not recover after the guard cleared: %v", err)
	}
}

// TestCacheOriginStability pins that snapshot clones of one design cell
// splice instead of resetting the cache: the reset test compares cell
// lineage (Origin), not pointers.
func TestCacheOriginStability(t *testing.T) {
	_, e := buildTop(t, 6)
	var ca Cache
	if _, err := ca.Flatten(e.Snapshot().Cell); err != nil {
		t.Fatal(err)
	}
	// a fresh generation's clone is a new pointer with the same origin
	e.MoveInstance(e.Cell.Instances[0], geom.Pt(1000, 0))
	snap := e.Snapshot()
	if snap.Cell == e.Cell {
		t.Fatal("composition snapshot should be a clone")
	}
	if _, err := ca.Flatten(snap.Cell); err != nil {
		t.Fatal(err)
	}
	reused, _ := ca.Stats()
	if reused == 0 {
		t.Fatal("clone of the same design cell reset the cache (origin lineage lost)")
	}
}
