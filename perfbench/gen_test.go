package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// opStreams renders the first n requests each generator deals for seed.
func opStreams(seed int64, n int) map[string][]string {
	out := map[string][]string{}
	sg := newSignoffGen(seed)
	eg := newEditGen(seed)
	for i := 0; i < n; i++ {
		req := sg.next()
		out[wSignoff] = append(out[wSignoff], append(req.script(), req.verify())...)
		st := eg.next()
		out[wEdit] = append(out[wEdit], st.Edit.line(), st.verify(), fmt.Sprint(st.Check))
	}
	for c := 0; c < tenants; c++ {
		tg := newTenantGen(seed, c)
		for i := 0; i < n; i++ {
			s := tg.next()
			out[wTenants] = append(out[wTenants], s.ID, s.designName())
			for _, st := range s.steps(c) {
				out[wTenants] = append(out[wTenants], st.Line)
			}
		}
	}
	return out
}

func TestSameSeedSameOperations(t *testing.T) {
	a, b, other := opStreams(7, 200), opStreams(7, 200), opStreams(8, 200)
	for _, w := range []string{wSignoff, wEdit, wTenants} {
		if !reflect.DeepEqual(a[w], b[w]) {
			t.Errorf("%s: seed 7 gave two different operation sequences", w)
		}
		if reflect.DeepEqual(a[w], other[w]) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", w)
		}
	}
}

// TestEditPairsUndo pins the loop's invariant: every second step puts
// the edited cell back, so the design never drifts from the grid.
func TestEditPairsUndo(t *testing.T) {
	g := newEditGen(3)
	for i := 0; i < 300; i++ {
		do, undo := g.next().Edit, g.next().Edit
		if do.Inst != undo.Inst {
			t.Fatalf("step %d: %s is undone by %s", 2*i, do.line(), undo.line())
		}
		switch do.Kind {
		case "MOVE":
			if undo.Kind != "MOVE" || undo.DX != -do.DX || undo.DY != -do.DY {
				t.Fatalf("%s undone by %s", do.line(), undo.line())
			}
		case "ORIENT":
			if undo.line() != "ORIENT "+do.Inst+" R0" {
				t.Fatalf("%s undone by %s", do.line(), undo.line())
			}
		case "DELETE":
			_, x, y := gridCell(mustAtoi(t, strings.TrimPrefix(do.Inst, "c")))
			if undo.Kind != "CREATE" || undo.X != x || undo.Y != y {
				t.Fatalf("%s undone by %s", do.line(), undo.line())
			}
		}
	}
}

func mustAtoi(t *testing.T, s string) int {
	var n int
	if _, err := fmt.Sscan(s, &n); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestProgramSeesOnlyGeneratedCommands runs each workload for its
// shortest pass and checks that what the program received is exactly
// what a fresh generator of the same seed spells out.
func TestProgramSeesOnlyGeneratedCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const seed = 5
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s/traced=%v", wSignoff, traced), func(t *testing.T) {
			var sent []string
			r := runSignoff(seed, 0, traced, &sent)
			checkRun(t, r)
			g := newSignoffGen(seed)
			var want []string
			for i := 0; i < setupReps; i++ {
				for _, v := range verbs {
					req := signoffReq{NX: g.shapes[0][0], NY: g.shapes[0][1], Verb: v}
					want = append(want, append(req.script(), req.verify())...)
				}
			}
			for len(want) < len(sent) {
				req := g.next()
				lines := append(req.script(), req.verify())
				want = append(want, lines...)
				if traced { // each request goes out twice
					want = append(want, lines...)
				}
			}
			sameLines(t, sent, want)
		})
	}

	t.Run(wEdit, func(t *testing.T) {
		var sent []string
		r := runEditLoop(seed, 0, false, &sent)
		checkRun(t, r)
		var grid []string
		for i := 0; i < setupReps; i++ {
			grid = append(grid, "READ srcell.sticks", "EDIT TOP")
			for k := 0; k < gridN*gridN; k++ {
				name, x, y := gridCell(k)
				grid = append(grid, fmt.Sprintf("CREATE SRCELL %s AT %d %d", name, x, y))
			}
			grid = append(grid, "DRC TOP", "LVS TOP")
		}
		want := grid
		g := newEditGen(seed)
		for len(want) < len(sent) {
			st := g.next()
			want = append(want, st.Edit.line(), st.verify())
		}
		sameLines(t, sent, want)
	})

	t.Run(wTenants, func(t *testing.T) {
		var sent []string
		r := runTenants(seed, 0, false, &sent)
		checkRun(t, r)
		got := map[string][]string{}
		for _, l := range sent {
			sid, line, _ := strings.Cut(l, ": ")
			got[sid] = append(got[sid], line)
		}
		want := map[string][]string{}
		for d := 0; d < tenantDesigns; d++ {
			for c := 0; c < tenants; c++ {
				sid, cell := fmt.Sprintf("setup-%d-%d", d, c), tenantCell(c)
				for i := 0; i < setupReps; i++ {
					want[sid] = append(want[sid], append(tenantSetup(cell), "LVS "+cell, "DRC "+cell)...)
				}
			}
		}
		for c := 0; c < tenants; c++ {
			g := newTenantGen(seed, c)
			for {
				s := g.next()
				if _, ok := got[s.ID]; !ok {
					break
				}
				lines := []string{"OPEN " + s.designName()}
				for _, st := range s.steps(c) {
					lines = append(lines, st.Line)
				}
				want[s.ID] = append(lines, "CLOSE")
			}
		}
		if !reflect.DeepEqual(got, want) {
			var ids []string
			for id := range got {
				if !reflect.DeepEqual(got[id], want[id]) {
					ids = append(ids, id)
				}
			}
			sort.Strings(ids)
			t.Fatalf("sessions %v received commands the generator did not make (%d sent, %d expected sessions)", ids, len(got), len(want))
		}
	})
}

func checkRun(t *testing.T, r *run) {
	t.Helper()
	if r.failed != 0 || len(r.wrong) != 0 {
		t.Fatalf("%d failed command(s), wrong verdicts: %q", r.failed, r.wrong)
	}
}

func sameLines(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("program received %d command(s), generator made %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("command %d: program received %q, generator made %q", i, got[i], want[i])
		}
	}
}

// TestWrongVerdictFails pins the verdict gate: an answer that differs
// from the replay fails the run.
func TestWrongVerdictFails(t *testing.T) {
	st := tenantState{16, 16, -1}
	want, err := tenantReplay(0, st, "LVS", true)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun()
	checkTenants(r, []observation{{owner: 0, states: []tenantState{st}, verb: "LVS", got: want, underEdit: true}})
	if len(r.wrong) != 0 {
		t.Fatalf("the replay's own verdict was judged wrong: %q", r.wrong)
	}
	checkTenants(r, []observation{{owner: 0, states: []tenantState{st}, verb: "LVS", got: "T0: 1 LVS mismatch(es)\n", underEdit: true}})
	if len(r.wrong) != 1 {
		t.Fatalf("a wrong verdict passed the gate")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same names, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	r := newRun()
	r.window = 1
	e2e := map[string]string{}
	for name, m := range endToEnd(r).Metrics {
		e2e[name] = m.Unit
	}
	if want := units(spec.EndToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end-to-end metrics printed %v, declared %v", e2e, want)
	}
	layers := map[string]string{}
	for _, lm := range layerMetrics {
		layers[lm.Name] = lm.Unit
	}
	if want := units(spec.PerLayer); !reflect.DeepEqual(layers, want) {
		t.Errorf("per-layer metrics printed %v, declared %v", layers, want)
	}
}
