package verify

import (
	"fmt"
	"testing"

	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

// benchGrid builds an n x n grid of individually placed, abutting
// SRCELL instances under an editor — the editable form of the
// replicated-array workload the extract and DRC scale benchmarks use.
func benchGrid(b *testing.B, n int) *core.Editor {
	b.Helper()
	e := gridEditorN(b, n)
	return e
}

func gridEditorN(tb testing.TB, n int) *core.Editor {
	d := core.NewDesign()
	if err := lib.Install(d); err != nil {
		tb.Fatal(err)
	}
	top := core.NewComposition(fmt.Sprintf("TOP%d", n))
	if err := d.AddCell(top); err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEditor(d, top)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		x, y := i%n, i/n
		tr := geom.MakeTransform(geom.R0, geom.Pt(x*20*rules.Lambda, y*24*rules.Lambda))
		if _, err := e.CreateInstance("SRCELL", fmt.Sprintf("c%d", i), tr, 1, 1, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// BenchmarkIncrementalVerify measures the edit-verify loop on a 32x32
// grid: per iteration, one cell moves and the whole design re-verifies
// (extract + DRC).
//
//   - incremental: the session Verifier, which recomposes per-cell
//     certificates through the hierarchical engine;
//   - full: a from-scratch extract.FromCell + drc.CheckCell, the cost
//     every re-verify paid before this cache existed.
//
// The edit alternates a one-lambda displacement of a mid-array cell,
// so every iteration really dirties geometry (rails detach and
// reattach) rather than hitting the unchanged-generation fast path.
func BenchmarkIncrementalVerify(b *testing.B) {
	const n = 32
	for _, mode := range []string{"incremental", "full"} {
		b.Run(fmt.Sprintf("%dx%d/%s", n, n, mode), func(b *testing.B) {
			e := benchGrid(b, n)
			in := e.Cell.Instances[n*n/2+n/2]
			v := &Verifier{}
			if _, err := v.Verify(e); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := rules.Lambda
				if i%2 == 1 {
					d = -rules.Lambda
				}
				e.MoveInstance(in, geom.Pt(d, 0))
				if mode == "incremental" {
					if _, err := v.Verify(e); err != nil {
						b.Fatal(err)
					}
					if st := v.Stats(); st.Full != 0 {
						b.Fatalf("incremental mode fell back to a flat run: %+v", st)
					}
					continue
				}
				if _, err := extract.FromCell(e.Cell); err != nil {
					b.Fatal(err)
				}
				if _, err := drc.CheckCell(e.Cell); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalVerifyPipeEdit measures the same loop when the
// edit moves a metal-only pipe fitting beside the grid instead of an
// SRCELL: a placement of a different cell, whose seams with the grid
// the hierarchical engine recomposes.
func BenchmarkIncrementalVerifyPipeEdit(b *testing.B) {
	const n = 32
	e := benchGrid(b, n)
	pipe, err := e.CreateInstance("PIPEM", "pipe",
		geom.MakeTransform(geom.R0, geom.Pt(-40*rules.Lambda, 0)), 1, 1, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	v := &Verifier{}
	if _, err := v.Verify(e); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := rules.Lambda
		if i%2 == 1 {
			d = -rules.Lambda
		}
		e.MoveInstance(pipe, geom.Pt(d, 0))
		if _, err := v.Verify(e); err != nil {
			b.Fatal(err)
		}
		if st := v.Stats(); st.Full != 0 {
			b.Fatalf("fell back to a flat run: %+v", st)
		}
	}
}
