package verify

import (
	"fmt"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/lib"
	"riot/internal/rules"
)

// arrayCell builds one SRCELL instance replicated nx x ny at pitch
// (sx, sy) lambda in orientation o — the shape the hierarchical fast
// path serves.
func arrayCell(t testing.TB, nx, ny int, o geom.Orient, sx, sy int) *core.Cell {
	t.Helper()
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		t.Fatal(err)
	}
	top := core.NewComposition(fmt.Sprintf("A%dX%d", nx, ny))
	if err := d.AddCell(top); err != nil {
		t.Fatal(err)
	}
	sr, ok := d.Cell("SRCELL")
	if !ok {
		t.Fatal("no SRCELL in the library")
	}
	in := core.NewInstance("a", sr, geom.MakeTransform(o, geom.Pt(0, 0)))
	in.Nx, in.Ny = nx, ny
	in.Sx, in.Sy = sx*rules.Lambda, sy*rules.Lambda
	top.Instances = append(top.Instances, in)
	return top
}

// TestDRCFastPathMatchesFlat is the differential behind answering DRC
// straight from the fast path, with no general composition behind the
// verdict: over arrays at least 14 a side, in every orientation, in
// non-square shapes and at pitches that abut, overlap, open gaps (the
// fast path declines and the general path answers, with or without
// spacing violations) or isolate the copies, the DRC entry's
// violations equal the flat checker's and no netlist is built.
func TestDRCFastPathMatchesFlat(t *testing.T) {
	shapes := [][2]int{{14, 14}, {17, 14}, {14, 19}}
	pitches := []struct {
		sx, sy int
		fast   bool // the fast path must answer
		viol   bool // the flat checker reports violations
	}{
		{20, 24, true, false},  // abutting
		{19, 23, true, false},  // overlapping
		{21, 24, false, false}, // spacing candidates the exemption clears
		{23, 24, false, true},  // 3-lambda gaps: spacing violations
		{20, 26, false, true},  // 2-lambda gaps: spacing violations
		{40, 44, true, false},  // isolated copies
	}
	v := &Verifier{}
	for o := geom.R0; o <= geom.MXR270; o++ {
		for k, p := range pitches {
			s := shapes[(int(o)+k)%len(shapes)]
			label := fmt.Sprintf("%dx%d %v pitch %dx%d", s[0], s[1], o, p.sx, p.sy)
			cell := arrayCell(t, s[0], s[1], o, p.sx, p.sy)
			fastBefore := v.HierStats().FastRuns
			rep, err := v.DRCCell(cell)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := drc.CheckCell(cell)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(rep.Violations, want) {
					t.Fatalf("%s: DRC differs from flat\ngot:  %v\nwant: %v", label, rep.Violations, want)
				}
			}
			if fast := v.HierStats().FastRuns > fastBefore; fast != p.fast {
				t.Fatalf("%s: fast path answered = %v, want %v (%d violation(s))", label, fast, p.fast, len(want))
			}
			if (len(want) > 0) != p.viol {
				t.Fatalf("%s: flat checker found %d violation(s); the case exercises the wrong path", label, len(want))
			}
			if rep.Circuit != nil || rep.CircuitErr != nil {
				t.Fatalf("%s: DRC report carries a netlist", label)
			}
		}
	}
	if st := v.Stats(); st.Materialized != 0 || st.Full != 0 {
		t.Fatalf("DRC built netlists or fell back flat: %+v", st)
	}
}

// TestMaterializeDecline pins the decline after a fast-path verdict: a
// compose budget the 13x13 samples fit but the full array does not.
// DRC answers from the fast path; the EXTRACT that follows cannot
// compose the array, so the flat pipeline re-answers into the same
// report, counted as one Full run.
func TestMaterializeDecline(t *testing.T) {
	cell := arrayCell(t, 40, 40, geom.R0, 20, 24)
	v := &Verifier{}
	v.SetLog(func(string, ...any) {})
	v.engine().ComposeBudget = 2000

	rep, err := v.DRCCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if hs := v.HierStats(); hs.FastRuns != 1 || hs.Fallbacks != 0 {
		t.Fatalf("DRC not answered by the fast path: %+v", hs)
	}
	if st := v.Stats(); st.Hier != 1 || st.Full != 0 || st.Materialized != 0 {
		t.Fatalf("after DRC: %+v", st)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean array reported %v", rep.Violations)
	}

	if err := v.EnsureCircuit(rep); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Hier != 0 || st.Full != 1 || st.Materialized != 1 {
		t.Fatalf("after the declined materialization: %+v", st)
	}
	if d := v.HierDeclineInfo(); d == nil || d.Cond != hier.CondComposeBudget {
		t.Fatalf("decline = %+v, want condition %s", d, hier.CondComposeBudget)
	}
	want, err := extract.FromCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CircuitErr != nil || !reflect.DeepEqual(rep.Circuit, want) {
		t.Fatalf("flat re-answer differs from extract.FromCell (err %v)", rep.CircuitErr)
	}
	if rep.Flat == nil {
		t.Fatal("flat re-answer left Flat nil")
	}
	if err := v.EnsureFlat(rep); err != nil {
		t.Fatal(err)
	}
	// the report is complete: a second EnsureCircuit builds nothing
	if err := v.EnsureCircuit(rep); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Materialized != 1 {
		t.Fatalf("second EnsureCircuit rebuilt the netlist: %+v", st)
	}
}

// TestVerifySnapshotCompletesDRCReport pins the report identity across
// the two entries: DRC then EXTRACT of one generation composes once and
// returns the same report, now carrying the netlist.
func TestVerifySnapshotCompletesDRCReport(t *testing.T) {
	e := gridEditor(t, 9)
	v := &Verifier{}
	snap := e.Snapshot()
	drcRep, err := v.DRCSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if drcRep.Circuit != nil || v.Stats().Materialized != 0 {
		t.Fatalf("DRC built the netlist: %+v", v.Stats())
	}
	rep, err := v.VerifySnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep != drcRep {
		t.Fatal("VerifySnapshot of the same generation returned a new report")
	}
	if st := v.Stats(); st.Hier != 1 || st.Cached != 1 || st.Materialized != 1 {
		t.Fatalf("stats = %+v, want one hier run, one cached, one netlist", st)
	}
	sameAsScratch(t, "completed", rep, e.Cell)

	// an edit supersedes a DRC report: its pending composition is
	// released and it can no longer be completed
	e.MoveInstance(e.Cell.Instances[0], geom.Pt(rules.Lambda, 0))
	old, err := v.DRCSnapshot(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	e.MoveInstance(e.Cell.Instances[0], geom.Pt(-rules.Lambda, 0))
	if _, err := v.DRCSnapshot(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := v.EnsureCircuit(old); err == nil {
		t.Fatal("EnsureCircuit on a stale report must refuse")
	}
	if old.Circuit != nil || old.pending != nil {
		t.Fatal("a superseded report kept its composition")
	}
}
