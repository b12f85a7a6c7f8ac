package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/lib"
	"riot/internal/rules"
)

// TestHierVerifierMatchesScratchUnderEdits is the store-backed
// end-to-end differential: with a shared content-addressed store
// attached (certificates and flatten shards round-trip through it),
// random editor operations must produce reports identical to the
// cache-free flat pipeline whether the certificate engine served the
// run or declined into the flat fallback — the path must be observable
// only through Stats — and EnsureFlat's spliced geometry must equal a
// from-scratch flatten after every edit.
func TestHierVerifierMatchesScratchUnderEdits(t *testing.T) {
	e := gridEditor(t, 10)
	v := &Verifier{}
	v.AttachDisk(castore.NewMem(), &castore.Signer{})
	rng := rand.New(rand.NewSource(1982))

	compare := func(step int) {
		t.Helper()
		rep, err := v.Verify(e)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		wantCkt, wantCktErr, wantVs := scratch(t, e.Cell)
		if (rep.CircuitErr == nil) != (wantCktErr == nil) {
			t.Fatalf("step %d: circuit err %v vs scratch %v", step, rep.CircuitErr, wantCktErr)
		}
		if rep.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, wantCkt) {
			t.Fatalf("step %d: verified circuit differs from scratch", step)
		}
		if !reflect.DeepEqual(rep.Violations, wantVs) {
			t.Fatalf("step %d: verified violations differ from scratch\ngot:  %v\nwant: %v", step, rep.Violations, wantVs)
		}
		if rep.Gen != e.Generation() {
			t.Fatalf("step %d: report generation %d, editor %d", step, rep.Gen, e.Generation())
		}
		if err := v.EnsureFlat(rep); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := flatten.Cell(e.Cell, flatten.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Flat.Shapes, want.Shapes) || !reflect.DeepEqual(rep.Flat.Devices, want.Devices) {
			t.Fatalf("step %d: EnsureFlat geometry differs from a fresh flatten", step)
		}
	}

	compare(-1)

	created := 0
	for step := 0; step < 25; step++ {
		top := e.Cell
		switch op := rng.Intn(10); {
		case op < 5 && len(top.Instances) > 0:
			in := top.Instances[rng.Intn(len(top.Instances))]
			e.MoveInstance(in, geom.Pt(rng.Intn(40*rules.Lambda)-20*rules.Lambda, rng.Intn(40*rules.Lambda)-20*rules.Lambda))
		case op < 7:
			created++
			if _, err := e.CreateInstance("NAND", fmt.Sprintf("x%d", created),
				geom.MakeTransform(geom.R0, geom.Pt(rng.Intn(3000), rng.Intn(3000))), 1, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
		case op < 8 && len(top.Instances) > 1:
			if err := e.DeleteInstance(top.Instances[rng.Intn(len(top.Instances))]); err != nil {
				t.Fatal(err)
			}
		default:
			if len(top.Instances) == 0 {
				continue
			}
			e.OrientInstance(top.Instances[rng.Intn(len(top.Instances))], geom.R90)
		}
		compare(step)
	}

	// the sequence must exercise the hierarchical path at least once
	// (the clean starting grid qualifies); deep-overlap states decline
	// into the flat path along the way, which the comparisons above
	// prove transparent
	if st := v.Stats(); st.Hier == 0 {
		t.Errorf("hierarchical path never served a run: stats = %+v", st)
	}
}

// TestHierVerifierEnsureFlat pins the lazy-flatten contract: a
// hierarchically served report carries no flattened geometry until
// EnsureFlat fills it in, and a superseded report refuses.
func TestHierVerifierEnsureFlat(t *testing.T) {
	e := gridEditor(t, 6)
	v := &Verifier{}
	rep, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats().Hier != 1 {
		t.Fatalf("clean grid must be served hierarchically: stats = %+v", v.Stats())
	}
	if rep.Flat != nil {
		t.Fatal("hier report must not carry flattened geometry")
	}
	if err := v.EnsureFlat(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Flat == nil {
		t.Fatal("EnsureFlat left Flat nil")
	}
	// the populated geometry describes the current design
	if got, want := len(rep.Flat.Shapes), 0; got == want {
		t.Fatal("EnsureFlat produced empty geometry")
	}

	e.MoveInstance(e.Cell.Instances[0], geom.Pt(rules.Lambda, 0))
	rep2, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 == rep {
		t.Fatal("edit must produce a new report")
	}
	stale := &Report{}
	if err := v.EnsureFlat(stale); err == nil {
		t.Fatal("EnsureFlat on a stale report must refuse")
	}
}

// TestHierVerifierLeafFallsBack checks a non-composition target runs
// the flat pipeline (the engine declines) and still reports exactly.
func TestHierVerifierLeafFallsBack(t *testing.T) {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	cell, ok := d.Cell("NAND")
	if !ok {
		t.Fatal("no NAND in the library")
	}
	v := &Verifier{}
	rep, err := v.VerifyCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 0 || st.Full != 1 {
		t.Fatalf("leaf cell must fall back to one full flat run: stats = %+v", st)
	}
	wantCkt, wantErr, wantVs := scratch(t, cell)
	if (rep.CircuitErr == nil) != (wantErr == nil) {
		t.Fatalf("circuit err %v vs scratch %v", rep.CircuitErr, wantErr)
	}
	if rep.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, wantCkt) {
		t.Error("leaf fallback circuit differs from scratch")
	}
	if !reflect.DeepEqual(rep.Violations, wantVs) {
		t.Error("leaf fallback violations differ from scratch")
	}
}

// TestHierVerifierWarmRestart pins the persistence contract at the
// verifier level: a second process (fresh verifier, fresh store
// handle on the same directory) re-extracts ZERO certified cells —
// every certificate loads from disk — and reports the same verdict.
func TestHierVerifierWarmRestart(t *testing.T) {
	dir := t.TempDir()

	run := func() (*Report, Stats, hier.Stats, error) {
		st, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		e := gridEditor(t, 12)
		v := &Verifier{}
		v.AttachDisk(st, &castore.Signer{})
		rep, err := v.Verify(e)
		return rep, v.Stats(), v.HierStats(), err
	}

	rep1, st1, h1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hier != 1 {
		t.Fatalf("cold run not served hierarchically: %+v", st1)
	}
	if h1.CertBuilt == 0 || h1.CertStored == 0 {
		t.Fatalf("cold run built/stored no certificates: %+v", h1)
	}

	rep2, st2, h2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Hier != 1 {
		t.Fatalf("warm run not served hierarchically: %+v", st2)
	}
	if h2.CertBuilt != 0 {
		t.Fatalf("warm restart re-extracted %d certified cell(s): %+v", h2.CertBuilt, h2)
	}
	if h2.CertDiskHits == 0 {
		t.Fatalf("warm restart loaded no certificates from disk: %+v", h2)
	}
	if !reflect.DeepEqual(rep1.Violations, rep2.Violations) ||
		!reflect.DeepEqual(rep1.Circuit, rep2.Circuit) {
		t.Fatal("warm-restart verdict differs from the cold run")
	}
}
