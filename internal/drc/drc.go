// Package drc is a design-rule checker for flattened Riot designs: it
// verifies the lambda-based Mead & Conway width and spacing rules
// (internal/rules) over the mask geometry that internal/flatten
// produces. Riot's paper workflow assembles cells from composition
// primitives and only then checks the result — the checker is the
// "extensive checking" step, run over the same indexed geometry core
// (geom.Index) as the circuit extractor.
//
// Two rules are checked per layer:
//
//   - Minimum width. The layer's rectangles are merged into a
//     rectilinear region (a sweep-line band decomposition into
//     disjoint slabs) and opened morphologically with a square of the
//     minimum width: material that disappears under the opening —
//     slivers narrower than the rule, and notched necks where a wide
//     region pinches down — is reported. The computation runs in
//     doubled coordinates so features at exactly the minimum width
//     survive the erode/dilate round trip without degenerate
//     rectangles.
//
//   - Minimum spacing. Disconnected same-layer components closer than
//     the rule are reported; candidate neighbors come from geom.Index
//     halo queries (the rule distance, minus one unit, around each
//     rectangle), and connected components are built by unioning
//     touching rectangles — touching material is one electrical net
//     and spacing rules do not apply inside it. Edge-to-edge
//     separations are measured along the axis; corner-to-corner
//     separations are Euclidean, the standard mask-rule convention.
//
// Spacing follows the paper's division of responsibility: Riot
// "assembles pre-designed cells", so geometry inside one leaf-cell
// occurrence is the cell author's problem and is trusted, and so is
// the seam between two occurrences whose placed bounding boxes touch —
// abutment (including ABUT OVERLAP) is one of the paper's guaranteed
// connection primitives, and how a cell's edge meets its abutted
// neighbor is part of the cell designer's composition contract. What
// the checker measures is the separations Riot's own decisions
// created: material from occurrences that were placed or routed near
// each other without abutting. Width is checked on all merged material
// regardless of origin, since abutment and stretching can pinch a
// merged region even when each contributor is legal.
//
// Known approximation: a same-component notch whose arms connect
// around a too-narrow gap (a U-bend against itself) is only flagged
// when the gap pinches the material below minimum width; pure
// same-net spacing notches are not reported.
//
// Violations carry the layer, the offending region, the measured and
// required distances (centimicrons), and sort deterministically, so
// reports are stable across runs and platforms.
package drc

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"riot/internal/core"
	"riot/internal/flatten"
	"riot/internal/geom"
	"riot/internal/rules"
)

// Rule names the design rule a violation breaks.
type Rule string

// The checked rules.
const (
	RuleWidth           Rule = "width"
	RuleSpacing         Rule = "spacing"
	RuleContactSurround Rule = "contact-surround"
)

// Violation is one design-rule failure: the layer, the offending
// region (the too-narrow material for width, the too-small gap for
// spacing), and the measured vs required distance in centimicrons.
type Violation struct {
	Layer geom.Layer
	Rect  geom.Rect
	Rule  Rule
	Got   int
	Want  int
}

// String renders the violation with distances in lambda.
func (v Violation) String() string {
	return fmt.Sprintf("%s %s %s: %s < %s lambda",
		v.Layer, v.Rule, v.Rect, lambdaStr(v.Got), lambdaStr(v.Want))
}

// lambdaStr renders a centimicron distance in lambda with up to two
// decimals.
func lambdaStr(cm int) string {
	l := float64(cm) / float64(rules.Lambda)
	if l == math.Trunc(l) {
		return fmt.Sprintf("%d", int(l))
	}
	return fmt.Sprintf("%.2f", l)
}

// CheckCell flattens a cell hierarchy (in parallel, like the
// extractor) and checks every layer present in the result.
func CheckCell(c *core.Cell) ([]Violation, error) {
	fr, err := flatten.Cell(c, flatten.Options{})
	if err != nil {
		return nil, err
	}
	return Check(fr), nil
}

// Check checks every layer of a flattened design, reusing the result's
// per-layer spatial indexes, and returns the violations in
// deterministic order. Layers are independent, so with more than one
// CPU each layer's width and spacing pass runs in its own goroutine;
// the merged report is identical to the sequential one (the final
// sort-and-dedupe canonicalizes it).
func Check(fr *flatten.Result) []Violation {
	return checkWorkers(fr, runtime.GOMAXPROCS(0))
}

// checkWorkers runs the full check with an explicit concurrency width.
func checkWorkers(fr *flatten.Result, workers int) []Violation {
	layers := checkedLayers(fr)
	var out []Violation
	for _, ev := range evalAll(fr, layers, workers) {
		out = ev.appendViolations(out)
	}
	out = append(out, checkContactSurround(fr)...)
	sortViolations(out)
	return dedupe(out)
}

// evalAll evaluates every layer, one goroutine per layer when more
// than one worker is available.
func evalAll(fr *flatten.Result, layers []geom.Layer, workers int) []*layerEval {
	evals := make([]*layerEval, len(layers))
	if workers < 2 || len(layers) < 2 {
		for k, l := range layers {
			evals[k] = evalLayer(l, fr.LayerRects(l), resolveBoxes(fr, l), fr.LayerIndex(l), rules.Of(l))
		}
		return evals
	}
	// force the shared lazy per-layer views and indexes before the
	// fan-out; afterwards each goroutine touches only its own layer
	for _, l := range layers {
		fr.LayerIndex(l)
		fr.LayerSrcs(l)
	}
	var wg sync.WaitGroup
	for k, l := range layers {
		wg.Add(1)
		go func(k int, l geom.Layer) {
			defer wg.Done()
			evals[k] = evalLayer(l, fr.LayerRects(l), resolveBoxes(fr, l), fr.LayerIndex(l), rules.Of(l))
		}(k, l)
	}
	wg.Wait()
	return evals
}

// checkedLayers returns the layers a flattened design gets checked on.
func checkedLayers(fr *flatten.Result) []geom.Layer {
	var out []geom.Layer
	for _, l := range fr.Layers() {
		if l != geom.LayerNone {
			out = append(out, l)
		}
	}
	return out
}

// resolveBoxes maps each of the layer's rectangles to its occurrence's
// placed bounding box — the value the trust rule compares.
func resolveBoxes(fr *flatten.Result, l geom.Layer) []geom.Rect {
	srcs := fr.LayerSrcs(l)
	boxes := make([]geom.Rect, len(srcs))
	for i, s := range srcs {
		boxes[i] = fr.SrcBoxes[s]
	}
	return boxes
}

// CheckLayer checks one layer's rectangles against a rule (lambda
// units, like rules.Of returns). Without occurrence provenance, every
// rectangle counts as its own origin, so all disconnected-component
// separations are measured. Used directly by tests and by callers
// holding geometry outside a flatten.Result.
func CheckLayer(l geom.Layer, rects []geom.Rect, r rules.Rule) []Violation {
	ix := geom.NewIndexFrom(rects)
	ev := evalLayer(l, rects, nil, ix, r)
	out := ev.appendViolations(nil)
	sortViolations(out)
	return dedupe(out)
}

// widthViolations reports material narrower than minW (centimicrons):
// the residue of the merged layer region under a morphological opening
// with a minW square.
func widthViolations(l geom.Layer, rects []geom.Rect, minW int) []Violation {
	var out []Violation
	for _, r := range widthResidues(rects, minW) {
		out = append(out, widthViolationFrom(l, r, minW))
	}
	return out
}

// widthResidues computes the too-narrow material of a layer: the
// merged region minus its morphological opening, as canonical slabs.
// All region arithmetic runs in doubled coordinates with an opening
// square of side 2*minW - 1 — strictly between the widest illegal
// feature (2*minW - 2) and the narrowest legal one (2*minW), so
// exact-minimum features survive and every intermediate region stays
// non-degenerate. The result is a pure, canonical function of the
// material point set: the hierarchical compositor relies on that to
// combine residues computed in windows around placement seams with
// the per-cell certificates' residues.
func widthResidues(rects []geom.Rect, minW int) []geom.Rect {
	if minW <= 0 {
		return nil
	}
	doubled := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		r = r.Canon()
		if r.Empty() {
			continue // zero-area material carries no width
		}
		doubled = append(doubled, geom.R(2*r.Min.X, 2*r.Min.Y, 2*r.Max.X, 2*r.Max.Y))
	}
	region := regionMerge(doubled)
	if len(region) == 0 {
		return nil
	}
	// opening square B spans [-d1, d2] in each axis
	side := 2*minW - 1
	d1, d2 := minW-1, minW
	frame := bbox(region).Inset(-2 * side)
	comp := regionComplement(region, frame)
	compDilated := regionDilate(comp, d2, d1) // Minkowski sum with reflected B
	eroded := regionComplement(compDilated, frame)
	opened := regionDilate(eroded, d1, d2)
	return regionSubtract(region, opened)
}

// widthViolationFrom renders one doubled-coordinate residue slab as a
// width violation.
func widthViolationFrom(l geom.Layer, r geom.Rect, minW int) Violation {
	narrow := r.W()
	if r.H() < narrow {
		narrow = r.H()
	}
	return Violation{
		Layer: l,
		// halve back, rounding outward
		Rect: geom.R(floorHalf(r.Min.X), floorHalf(r.Min.Y),
			ceilHalf(r.Max.X), ceilHalf(r.Max.Y)),
		Rule: RuleWidth,
		Got:  (narrow + 1) / 2,
		Want: minW,
	}
}

// spacingPair measures one pair of rectangles against the spacing
// rule, returning the violation and whether the pair breaks it. The
// measurement is symmetric in i and j.
func spacingPair(l geom.Layer, ri, rj geom.Rect, minS int) (Violation, bool) {
	ri, rj = ri.Canon(), rj.Canon()
	dx := gap(ri.Min.X, ri.Max.X, rj.Min.X, rj.Max.X)
	dy := gap(ri.Min.Y, ri.Max.Y, rj.Min.Y, rj.Max.Y)
	got := 0
	switch {
	case dx > 0 && dy > 0:
		// diagonal: corner-to-corner Euclidean separation
		if dx*dx+dy*dy >= minS*minS {
			return Violation{}, false
		}
		got = isqrt(dx*dx + dy*dy)
	default:
		got = dx + dy
		if got >= minS {
			return Violation{}, false
		}
	}
	gx0, gx1 := gapSpan(ri.Min.X, ri.Max.X, rj.Min.X, rj.Max.X)
	gy0, gy1 := gapSpan(ri.Min.Y, ri.Max.Y, rj.Min.Y, rj.Max.Y)
	return Violation{
		Layer: l,
		Rect:  geom.R(gx0, gy0, gx1, gy1),
		Rule:  RuleSpacing,
		Got:   got,
		Want:  minS,
	}, true
}

// gap returns the separation of two closed intervals (0 when they
// overlap or touch).
func gap(aLo, aHi, bLo, bHi int) int {
	switch {
	case aHi < bLo:
		return bLo - aHi
	case bHi < aLo:
		return aLo - bHi
	}
	return 0
}

// gapSpan returns the extent of the gap between two intervals: the
// open space when they are disjoint, the overlap otherwise.
func gapSpan(aLo, aHi, bLo, bHi int) (int, int) {
	switch {
	case aHi < bLo:
		return aHi, bLo
	case bHi < aLo:
		return bHi, aLo
	}
	return max(aLo, bLo), min(aHi, bHi)
}

func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Rect.Min.Y != b.Rect.Min.Y {
			return a.Rect.Min.Y < b.Rect.Min.Y
		}
		if a.Rect.Min.X != b.Rect.Min.X {
			return a.Rect.Min.X < b.Rect.Min.X
		}
		if a.Rect.Max.Y != b.Rect.Max.Y {
			return a.Rect.Max.Y < b.Rect.Max.Y
		}
		if a.Rect.Max.X != b.Rect.Max.X {
			return a.Rect.Max.X < b.Rect.Max.X
		}
		return a.Got < b.Got
	})
}

func dedupe(vs []Violation) []Violation {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func bbox(rects []geom.Rect) geom.Rect {
	b := rects[0]
	for _, r := range rects[1:] {
		b = b.Union(r)
	}
	return b
}

func floorHalf(v int) int {
	if v >= 0 {
		return v / 2
	}
	return -((-v + 1) / 2)
}

func ceilHalf(v int) int { return -floorHalf(-v) }

// isqrt returns the floor integer square root.
func isqrt(v int) int {
	r := int(math.Sqrt(float64(v)))
	for r*r > v {
		r--
	}
	for (r+1)*(r+1) <= v {
		r++
	}
	return r
}
