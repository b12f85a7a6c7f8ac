package drc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riot/internal/core"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/lib"
	"riot/internal/rules"
)

// gridEditor builds a composition of n individually placed SRCELLs
// under an editor (abutting grid: rails merge across seams).
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

// freshResult re-flattens without any cache, so scratch checks never
// share lazily built per-layer state with the incremental run.
func freshResult(t *testing.T, c *core.Cell) *flatten.Result {
	t.Helper()
	fr, err := flatten.Cell(c, flatten.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestParallelCheckMatchesSequential forces the per-layer-goroutine
// checker against the sequential one over library arrays and random
// soups; reports must be identical. Under -race this also proves the
// layer fan-out shares no mutable state.
func TestParallelCheckMatchesSequential(t *testing.T) {
	e := gridEditor(t, 12)
	fr := freshResult(t, e.Cell)
	seq := checkWorkers(fr, 1)
	par := checkWorkers(freshResult(t, e.Cell), 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel and sequential reports differ:\nseq: %v\npar: %v", seq, par)
	}

	// random soups with real violations
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		fr1 := soupFlat(rng, 40+rng.Intn(200))
		fr2 := &flatten.Result{Shapes: fr1.Shapes, SrcBoxes: fr1.SrcBoxes}
		seq := checkWorkers(fr1, 1)
		par := checkWorkers(fr2, 4)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d: parallel and sequential soup reports differ", trial)
		}
	}
}

// soupFlat builds a random flattened result with several occurrences
// (trust boxes) and rect soup on three layers.
func soupFlat(rng *rand.Rand, n int) *flatten.Result {
	layers := []geom.Layer{geom.ND, geom.NP, geom.NM}
	span := 400 + rng.Intn(1200)
	fr := &flatten.Result{}
	nsrc := 1 + rng.Intn(6)
	for s := 0; s < nsrc; s++ {
		x, y := rng.Intn(span), rng.Intn(span)
		fr.SrcBoxes = append(fr.SrcBoxes, geom.R(x, y, x+span/3, y+span/3))
	}
	for i := 0; i < n; i++ {
		x, y := rng.Intn(span), rng.Intn(span)
		w, h := rng.Intn(span/6), rng.Intn(span/6)
		fr.Shapes = append(fr.Shapes, flatten.Shape{
			Layer: layers[rng.Intn(len(layers))],
			R:     geom.R(x, y, x+w, y+h),
			Src:   rng.Intn(nsrc),
		})
	}
	return fr
}
