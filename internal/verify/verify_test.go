package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/obs"
	"riot/internal/rules"
)

// gridEditor builds a composition of n individually placed SRCELLs
// (abutting grid) under an editor.
func gridEditor(t testing.TB, n int) *core.Editor {
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
		x, y := i%6, i/6
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if _, err := e.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// scratch runs the plain, cache-free pipeline.
func scratch(t *testing.T, cell *core.Cell) (*extract.Circuit, error, []drc.Violation) {
	t.Helper()
	ckt, cktErr := extract.FromCell(cell)
	vs, err := drc.CheckCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	return ckt, cktErr, vs
}

// TestVerifierMatchesScratchUnderEdits is the end-to-end differential:
// random editor operations, Verify after each, compared against
// cache-free extraction and DRC of the same cell.
func TestVerifierMatchesScratchUnderEdits(t *testing.T) {
	e := gridEditor(t, 10)
	v := &Verifier{}
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
	if st := v.Stats(); st.Hier == 0 {
		t.Errorf("hierarchical engine never answered a run: %+v", st)
	}
}

// sameAsScratch requires rep to equal the cache-free flat pipeline's
// verdict on cell.
func sameAsScratch(t *testing.T, what string, rep *Report, cell *core.Cell) {
	t.Helper()
	wantCkt, wantErr, wantVs := scratch(t, cell)
	if (rep.CircuitErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: circuit err %v vs scratch %v", what, rep.CircuitErr, wantErr)
	}
	if rep.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, wantCkt) {
		t.Errorf("%s: circuit differs from scratch", what)
	}
	if !reflect.DeepEqual(rep.Violations, wantVs) {
		t.Errorf("%s: violations differ from scratch\ngot:  %v\nwant: %v", what, rep.Violations, wantVs)
	}
}

// TestVerifierCachesByGeneration checks the generation fast path (same
// report pointer back), that a zero-value Verifier answers through the
// hierarchical engine, and that a whole decline falls back to one flat
// from-scratch run with the oracle's verdict.
func TestVerifierCachesByGeneration(t *testing.T) {
	e := gridEditor(t, 6)
	v := &Verifier{}
	r1, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 1 || st.Full != 0 {
		t.Fatalf("clean grid not answered hierarchically: %+v", st)
	}
	if r1.Flat != nil {
		t.Error("hierarchical report must not carry flattened geometry")
	}
	r2, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("unchanged generation must return the cached report")
	}
	if st := v.Stats(); st.Cached != 1 {
		t.Errorf("cached runs = %d, want 1", st.Cached)
	}
	e.MoveInstance(e.Cell.Instances[0], geom.Pt(rules.Lambda, 0))
	r3, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r2 {
		t.Error("edit did not invalidate the cached report")
	}
	if st := v.Stats(); st.Hier != 2 || st.Full != 0 {
		t.Errorf("post-edit verify not answered hierarchically: %+v", st)
	}
	sameAsScratch(t, "post-edit", r3, e.Cell)

	// a whole decline (the composition budget forced to run out) falls
	// back to the flat from-scratch engines
	f := faultinject.New()
	f.Enable(faultinject.ComposeBudget, "")
	v.InjectFaults(f)
	v.SetLog(obs.Discard)
	e.MoveInstance(e.Cell.Instances[0], geom.Pt(-rules.Lambda, 0))
	r4, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hits(faultinject.ComposeBudget) == 0 {
		t.Fatal("compose-budget fault armed but never fired")
	}
	if st := v.Stats(); st.Hier != 2 || st.Full != 1 {
		t.Fatalf("declined verify not answered by one flat run: %+v", st)
	}
	if r4.Flat == nil {
		t.Error("fallback report must carry its flattened geometry")
	}
	sameAsScratch(t, "fallback", r4, e.Cell)
}

// TestVerifierInvalidateRebuilds checks Invalidate drops the
// pointer-keyed caches and the next run is still correct.
func TestVerifierInvalidateRebuilds(t *testing.T) {
	e := gridEditor(t, 6)
	v := &Verifier{}
	rep, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.EnsureFlat(rep); err != nil {
		t.Fatal(err)
	}
	// mutate behind the editor's back, then announce it
	in := e.Cell.Instances[2]
	in.Tr = in.Tr.Translated(geom.Pt(50*rules.Lambda, 0))
	e.Invalidate()
	rep, err = v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 2 || st.Full != 0 {
		t.Errorf("post-Invalidate verify not answered hierarchically: %+v", st)
	}
	if err := v.EnsureFlat(rep); err != nil {
		t.Fatal(err)
	}
	if reused, reflat := v.FlattenStats(); reused != 0 || reflat != len(e.Cell.Instances) {
		t.Errorf("post-Invalidate flatten reused %d shards, re-walked %d; want 0, %d",
			reused, reflat, len(e.Cell.Instances))
	}
	sameAsScratch(t, "post-Invalidate", rep, e.Cell)
}

// TestVerifierBatchesEditsIntoOneSplice pins the coalesced-edit
// contract: any number of edits between two Verify calls cost exactly
// one run, and only the instances the edits touched re-flatten.
func TestVerifierBatchesEditsIntoOneSplice(t *testing.T) {
	e := gridEditor(t, 12)
	v := &Verifier{}
	rep, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 1 || st.Full != 0 {
		t.Fatalf("after priming: stats = %+v", st)
	}
	if err := v.EnsureFlat(rep); err != nil {
		t.Fatal(err)
	}

	// a burst of edits on two instances: four moves, only two distinct
	// instances touched (a's moves leave a net displacement, so its
	// shard really must re-flatten)
	a, b := e.Cell.Instances[3], e.Cell.Instances[7]
	e.MoveInstance(a, geom.Pt(rules.Lambda, 0))
	e.MoveInstance(a, geom.Pt(-rules.Lambda, 0))
	e.MoveInstance(a, geom.Pt(rules.Lambda, 0))
	e.MoveInstance(b, geom.Pt(0, rules.Lambda))

	rep, err = v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 2 || st.Full != 0 {
		t.Fatalf("four edits did not coalesce into one run: stats = %+v", st)
	}
	if err := v.EnsureFlat(rep); err != nil {
		t.Fatal(err)
	}
	if reused, reflat := v.FlattenStats(); reflat != 2 || reused != 10 {
		t.Fatalf("re-flattened %d instances (reused %d), want exactly the 2 touched", reflat, reused)
	}
	sameAsScratch(t, "batched edits", rep, e.Cell)
}

// TestVerifierChangeLogFloodRebuilds pins the change-log truncation
// contract end to end: a burst of edits deep enough to trim the
// editor's bounded change log must make ChangesSince report ok=false
// for the verifier's old generation — never a silently partial dirty
// set — and the verifier must respond by dropping its pointer-keyed
// caches, with a report that still matches the cache-free pipeline
// exactly.
func TestVerifierChangeLogFloodRebuilds(t *testing.T) {
	e := gridEditor(t, 9)
	v := &Verifier{}
	rep0, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.EnsureFlat(rep0); err != nil {
		t.Fatal(err)
	}
	oldGen := e.Generation()

	// flood: well past the log bound, jogging one instance back and
	// forth (net displacement zero, so the final geometry equals a
	// single-edit state only by accident of the jog count — the verify
	// must not depend on that)
	in := e.Cell.Instances[4]
	const flood = 300
	for i := 0; i < flood; i++ {
		d := rules.Lambda
		if i%2 == 1 {
			d = -rules.Lambda
		}
		e.MoveInstance(in, geom.Pt(d, rules.Lambda))
		e.MoveInstance(in, geom.Pt(0, -rules.Lambda))
	}
	if dirty, ok := e.ChangesSince(oldGen); ok {
		t.Fatalf("ChangesSince across a trimmed log returned ok=true with %d rects; must refuse", len(dirty))
	}
	// a generation the log still covers keeps answering exactly
	midGen := e.Generation()
	e.MoveInstance(in, geom.Pt(rules.Lambda, 0))
	if dirty, ok := e.ChangesSince(midGen); !ok || len(dirty) != 1 {
		t.Fatalf("ChangesSince inside the log = %v, %v; want one rect, ok", dirty, ok)
	}

	rep, err := v.Verify(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 2 || st.Full != 0 {
		t.Errorf("flooded verify not answered hierarchically: %+v", st)
	}
	// the lost log dropped the flatten cache: every shard re-walks
	if err := v.EnsureFlat(rep); err != nil {
		t.Fatal(err)
	}
	if reused, reflat := v.FlattenStats(); reused != 0 || reflat != len(e.Cell.Instances) {
		t.Errorf("flooded flatten reused %d shards, re-walked %d; want 0, %d",
			reused, reflat, len(e.Cell.Instances))
	}
	sameAsScratch(t, "flooded rebuild", rep, e.Cell)
}
