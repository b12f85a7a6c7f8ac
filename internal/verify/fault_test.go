package verify

import (
	"testing"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/rules"
)

// faultCheck runs Verify and requires the report to equal the
// cache-free flat reference — the contract every injected fault must
// preserve: degradation may change HOW the verdict is computed, never
// WHAT it is.
func faultCheck(t *testing.T, v *Verifier, ed *core.Editor) *Report {
	t.Helper()
	rep, err := v.Verify(ed)
	if err != nil {
		t.Fatal(err)
	}
	sameAsScratch(t, "faulted", rep, ed.Cell)
	return rep
}

// TestVerifierFaultMatrix drives every fault-injection point through
// the full verifier and differential-tests each one against the flat
// reference. Every subtest additionally asserts the fault actually
// fired (a fault that never reaches its code path proves nothing) and
// that the degradation is visible in the stats counters the -stats
// reports read. CI runs this matrix under -race.
func TestVerifierFaultMatrix(t *testing.T) {
	t.Run("cert-pend", func(t *testing.T) {
		ed := gridEditor(t, 9)
		if _, err := ed.CreateInstance("NAND", "n0",
			geom.MakeTransform(geom.R0, geom.Pt(128*rules.Lambda, 0)), 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		v := &Verifier{}
		f := faultinject.New()
		f.Enable(faultinject.CertPend, "NAND")
		v.InjectFaults(f)
		rep := faultCheck(t, v, ed)
		if f.Hits(faultinject.CertPend) == 0 {
			t.Fatal("cert-pend fault armed but never fired")
		}
		if rep.Quarantined == 0 || v.Stats().HierPartial == 0 {
			t.Fatalf("pend placement not served partially: rep.Quarantined=%d stats=%+v",
				rep.Quarantined, v.Stats())
		}
	})

	t.Run("template-poison", func(t *testing.T) {
		ed := gridEditor(t, 9)
		v := &Verifier{}
		f := faultinject.New()
		f.Enable(faultinject.TemplatePoison, "0")
		v.InjectFaults(f)
		// the corner placement's abutting partners pull into the group;
		// give the run headroom so the subtest exercises splicing
		v.engine().QuarantineBudget = len(ed.Cell.Instances)
		rep := faultCheck(t, v, ed)
		if f.Hits(faultinject.TemplatePoison) == 0 {
			t.Fatal("template-poison fault armed but never fired")
		}
		if rep.Quarantined < 2 || v.Stats().HierPartial == 0 {
			t.Fatalf("poisoned pair not served partially: rep.Quarantined=%d stats=%+v",
				rep.Quarantined, v.Stats())
		}
	})

	t.Run("cert-decode", func(t *testing.T) {
		dir := t.TempDir()
		st1, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		v1 := &Verifier{}
		v1.AttachDisk(st1, &castore.Signer{})
		if _, err := v1.Verify(gridEditor(t, 9)); err != nil {
			t.Fatal(err)
		}
		if v1.HierStats().CertStored == 0 {
			t.Fatalf("cold run stored no certificates: %+v", v1.HierStats())
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		v2 := &Verifier{}
		f := faultinject.New()
		f.Enable(faultinject.CertDecode, "")
		v2.InjectFaults(f)
		v2.AttachDisk(st2, &castore.Signer{})
		faultCheck(t, v2, gridEditor(t, 9))
		if f.Hits(faultinject.CertDecode) == 0 {
			t.Fatal("cert-decode fault armed but never fired")
		}
		// the corrupted payload must be rejected and the certificate
		// rebuilt cold, not trusted
		if hs := v2.HierStats(); hs.CertBuilt == 0 {
			t.Fatalf("warm run with corrupt payloads rebuilt nothing: %+v", hs)
		}
	})

	t.Run("store-corrupt", func(t *testing.T) {
		dir := t.TempDir()
		st1, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		v1 := &Verifier{}
		v1.AttachDisk(st1, &castore.Signer{})
		if _, err := v1.Verify(gridEditor(t, 9)); err != nil {
			t.Fatal(err)
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		f := faultinject.New()
		f.Enable(faultinject.StoreCorrupt, "")
		st2.Faults = f
		v2 := &Verifier{}
		v2.AttachDisk(st2, &castore.Signer{})
		faultCheck(t, v2, gridEditor(t, 9))
		if f.Hits(faultinject.StoreCorrupt) == 0 {
			t.Fatal("store-corrupt fault armed but never fired")
		}
		if cs := st2.Stats(); cs.Corrupt == 0 {
			t.Fatalf("corrupted reads not counted by the store: %+v", cs)
		}
	})

	t.Run("compose-budget", func(t *testing.T) {
		ed := gridEditor(t, 9)
		v := &Verifier{}
		f := faultinject.New()
		f.Enable(faultinject.ComposeBudget, "")
		v.InjectFaults(f)
		faultCheck(t, v, ed)
		if f.Hits(faultinject.ComposeBudget) == 0 {
			t.Fatal("compose-budget fault armed but never fired")
		}
		// budget exhaustion declines whole: one flat from-scratch run
		// serves
		if st := v.Stats(); st.Hier != 0 || st.Full != 1 {
			t.Fatalf("exhausted compose budget should fall back to one flat run: %+v", st)
		}
		if d := v.HierDeclineInfo(); d == nil || d.Cond != hier.CondComposeBudget {
			t.Fatalf("decline = %+v, want condition %s", d, hier.CondComposeBudget)
		}
	})
}

// TestVerifierFaultMatrixUnderEdits runs a short editing trace with
// pend and poison faults both armed — repeated partial runs across
// edit generations must stay verdict-identical to scratch.
func TestVerifierFaultMatrixUnderEdits(t *testing.T) {
	ed := gridEditor(t, 9)
	if _, err := ed.CreateInstance("NAND", "n0",
		geom.MakeTransform(geom.R0, geom.Pt(128*rules.Lambda, 0)), 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	v := &Verifier{}
	f := faultinject.New()
	f.Enable(faultinject.CertPend, "NAND")
	f.Enable(faultinject.TemplatePoison, "4")
	v.InjectFaults(f)
	v.engine().QuarantineBudget = len(ed.Cell.Instances)
	for step := 0; step < 4; step++ {
		faultCheck(t, v, ed)
		ed.MoveInstance(ed.Cell.Instances[step], geom.Pt(rules.Lambda, 0))
	}
	if v.Stats().HierPartial == 0 {
		t.Fatalf("no partial runs across the trace: %+v", v.Stats())
	}
	if f.Hits(faultinject.CertPend) == 0 || f.Hits(faultinject.TemplatePoison) == 0 {
		t.Fatalf("faults armed but idle: %s", f)
	}
}
