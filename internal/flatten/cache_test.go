package flatten

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

// buildTop assembles a composition of n SRCELL instances on a grid.
func buildTop(t testing.TB, n int) (*core.Design, *core.Editor) {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition("TOP")
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		x, y := i%8, i/8
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if _, err := e.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return d, e
}

// sameResult compares the walk-order lists a Result carries (the
// lazily derived views are rebuilt from them).
func sameResult(t *testing.T, step string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Shapes, want.Shapes) {
		t.Fatalf("%s: spliced shapes differ from full flatten", step)
	}
	if !reflect.DeepEqual(got.Devices, want.Devices) {
		t.Fatalf("%s: spliced devices differ", step)
	}
	if !reflect.DeepEqual(got.Joins, want.Joins) {
		t.Fatalf("%s: spliced joins differ", step)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("%s: spliced labels differ", step)
	}
	if !reflect.DeepEqual(got.SrcBoxes, want.SrcBoxes) {
		t.Fatalf("%s: spliced src boxes differ", step)
	}
	if !reflect.DeepEqual(got.SrcCells, want.SrcCells) {
		t.Fatalf("%s: spliced src cells differ", step)
	}
}

// TestCacheSpliceMatchesFullFlatten drives a composition through
// random edits (move, create, delete, replicate, orient) and checks
// after every edit that the cache's spliced Result is byte-identical
// to a from-scratch walk, and that its shard accounting covers every
// instance exactly once.
func TestCacheSpliceMatchesFullFlatten(t *testing.T) {
	_, e := buildTop(t, 12)
	top := e.Cell
	ca := &Cache{}
	rng := rand.New(rand.NewSource(17))

	fr0, err := ca.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	if reused, reflat := ca.Stats(); reused != 0 || reflat != len(top.Instances) {
		t.Fatalf("first run: reused %d, reflattened %d; want 0, %d", reused, reflat, len(top.Instances))
	}
	full, err := Cell(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "initial", fr0, full)

	created := 0
	for step := 0; step < 30; step++ {
		switch op := rng.Intn(10); {
		case op < 5 && len(top.Instances) > 0: // move
			in := top.Instances[rng.Intn(len(top.Instances))]
			e.MoveInstance(in, geom.Pt(rng.Intn(200)-100, rng.Intn(200)-100))
		case op < 7: // create
			created++
			tr := geom.MakeTransform(geom.R0, geom.Pt(rng.Intn(4000), rng.Intn(4000)))
			if _, err := e.CreateInstance("NAND", fmt.Sprintf("n%d", created), tr, 1, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
		case op < 8 && len(top.Instances) > 1: // delete
			if err := e.DeleteInstance(top.Instances[rng.Intn(len(top.Instances))]); err != nil {
				t.Fatal(err)
			}
		case op < 9 && len(top.Instances) > 0: // replicate
			in := top.Instances[rng.Intn(len(top.Instances))]
			if err := e.Replicate(in, 1+rng.Intn(3), 1+rng.Intn(2), 0, 0); err != nil {
				t.Fatal(err)
			}
		default: // orient
			if len(top.Instances) == 0 {
				continue
			}
			e.OrientInstance(top.Instances[rng.Intn(len(top.Instances))], geom.R90)
		}

		fr, err := ca.Flatten(top)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Cell(top, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("step %d", step), fr, full)

		// one edit touches at most one instance; every other shard is
		// reused
		reused, reflat := ca.Stats()
		if reused+reflat != len(top.Instances) {
			t.Fatalf("step %d: reused %d + reflattened %d != %d instances", step, reused, reflat, len(top.Instances))
		}
		if reflat > 1 {
			t.Fatalf("step %d: one edit re-flattened %d instances", step, reflat)
		}
		if len(ca.shards) != len(top.Instances) || len(ca.conns) > len(top.Instances) {
			t.Fatalf("step %d: cache holds %d shards, %d connector lists for %d instances",
				step, len(ca.shards), len(ca.conns), len(top.Instances))
		}
	}
}

// TestCacheReuseSkipsUnchangedInstances checks the cache actually
// reuses shards: after one move, only the moved instance re-walks.
func TestCacheReuseSkipsUnchangedInstances(t *testing.T) {
	_, e := buildTop(t, 9)
	top := e.Cell
	ca := &Cache{}
	if _, err := ca.Flatten(top); err != nil {
		t.Fatal(err)
	}
	moved := top.Instances[4]
	e.MoveInstance(moved, geom.Pt(7, 13))
	fr, err := ca.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	if reused, reflat := ca.Stats(); reused != 8 || reflat != 1 {
		t.Fatalf("after one move: reused %d, reflattened %d; want 8, 1", reused, reflat)
	}
	full, err := Cell(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after move", fr, full)
}

// TestCacheCellSwitchResets checks switching cells starts over: no
// shard of the previous cell is reused.
func TestCacheCellSwitchResets(t *testing.T) {
	_, e1 := buildTop(t, 4)
	_, e2 := buildTop(t, 4)
	ca := &Cache{}
	if _, err := ca.Flatten(e1.Cell); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Flatten(e2.Cell); err != nil {
		t.Fatal(err)
	}
	if reused, reflat := ca.Stats(); reused != 0 || reflat != 4 {
		t.Fatalf("cell switch: reused %d, reflattened %d; want 0, 4", reused, reflat)
	}
}
