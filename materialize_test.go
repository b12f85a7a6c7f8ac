package riot

import "testing"

// TestDRCMaterializesNothing pins the cost split between the commands:
// DRC answers from the engine verdict and builds no netlist at any
// array size, while EXTRACT builds exactly one.
func TestDRCMaterializesNothing(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		s := array(t, n, n)
		vs, err := s.CheckDRC("CHIP")
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 0 {
			t.Fatalf("%dx%d: %d violation(s) on a clean array", n, n, len(vs))
		}
		if st := s.Shell.Verifier.Stats(); st.Materialized != 0 {
			t.Fatalf("%dx%d: DRC materialized %d netlist(s)", n, n, st.Materialized)
		}
		ckt, err := s.Extract("CHIP")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(ckt.Transistors), 4*n*n; got != want {
			t.Fatalf("%dx%d: extracted %d transistors, want %d", n, n, got, want)
		}
		if st := s.Shell.Verifier.Stats(); st.Materialized != 1 || st.Hier != 1 || st.Cached != 1 {
			t.Fatalf("%dx%d: after EXTRACT stats = %+v, want one hier run completed once", n, n, st)
		}
	}
}

// TestHugeArrayDRC is the regression for the 10^10-copy array: DRC
// answers clean from the fast path instead of materializing the
// netlist (which used to exhaust memory and kill the process).
func TestHugeArrayDRC(t *testing.T) {
	s := array(t, 100000, 100000)
	vs, err := s.CheckDRC("CHIP")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("%d violation(s) on a clean array", len(vs))
	}
	if st := s.Shell.Verifier.Stats(); st.Materialized != 0 || st.Hier != 1 {
		t.Fatalf("verify stats = %+v, want one hier run and no netlist", st)
	}
	if hs := s.Shell.Verifier.HierStats(); hs.FastRuns != 1 {
		t.Fatalf("hier stats = %+v, want the fast path", hs)
	}
}
