package main

// The generators are the only source of randomness: each draws a
// workload's requests from the seed, and the runners send the program
// nothing but the commands these requests spell out.

import (
	"fmt"
	"math/rand"
)

// deck deals a fixed multiset of items in seeded order, reshuffling
// whenever it runs out. Over every whole round the mix is exact, so
// runs with different seeds differ in order, not in mix, and every item
// comes up early in a run.
type deck[T any] struct {
	rng         *rand.Rand
	items, left []T
}

func newDeck[T any](rng *rand.Rand, items ...T) *deck[T] {
	return &deck[T]{rng: rng, items: items}
}

func (d *deck[T]) deal() T {
	if len(d.left) == 0 {
		d.left = append([]T(nil), d.items...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	x := d.left[0]
	d.left = d.left[1:]
	return x
}

// ---- array_signoff ----

const (
	// signoffShapes is how many distinct array shapes a run draws; the
	// flat oracle runs once per shape, outside the timed window.
	signoffShapes = 3
	// signoffMin and signoffSpan bound each side: 126..130, around 128,
	// so a run's shape mix moves its medians by a few percent at most.
	signoffMin, signoffSpan = 126, 5
)

// signoffReq is one cold CLI-style request: a fresh session builds an
// nx×ny array and asks for one verdict.
type signoffReq struct {
	NX, NY int
	Verb   string
}

// script is the design-building part of the request.
func (r signoffReq) script() []string {
	return []string{"READ srcell.sticks", "EDIT CHIP", fmt.Sprintf("CREATE SRCELL a ARRAY %d %d", r.NX, r.NY)}
}

func (r signoffReq) verify() string { return r.Verb + " CHIP" }

type signoffGen struct {
	shapes [][2]int
	reqs   *deck[signoffReq]
}

// newSignoffGen draws the run's shapes, then deals, once per round and
// shape, two DRC, one EXTRACT and one LVS request.
func newSignoffGen(seed int64) *signoffGen {
	rng := rand.New(rand.NewSource(seed))
	g := &signoffGen{}
	seen := map[[2]int]bool{}
	var reqs []signoffReq
	for len(g.shapes) < signoffShapes {
		s := [2]int{signoffMin + rng.Intn(signoffSpan), signoffMin + rng.Intn(signoffSpan)}
		if seen[s] {
			continue
		}
		seen[s] = true
		g.shapes = append(g.shapes, s)
		// DRC twice: its requests are the shortest, and its p90 needs
		// the samples
		for _, v := range []string{"DRC", "DRC", "EXTRACT", "LVS"} {
			reqs = append(reqs, signoffReq{NX: s[0], NY: s[1], Verb: v})
		}
	}
	g.reqs = newDeck(rng, reqs...)
	return g
}

func (g *signoffGen) next() signoffReq { return g.reqs.deal() }

// ---- edit_loop ----

const (
	// gridN is the side of the individually placed SRCELL grid.
	gridN = 64
	// cellW, cellH are SRCELL's abutment pitch in lambda.
	cellW, cellH = 20, 24
	// editChecks caps the seeded sample of steps the flat oracle
	// re-derives (besides the first step of each verb).
	editChecks = 4
)

// edit is one editor command on a grid cell.
type edit struct {
	Kind   string // MOVE, ORIENT, DELETE or CREATE
	Inst   string
	DX, DY int    // MOVE, lambda
	Orient string // ORIENT
	X, Y   int    // CREATE, lambda
}

func (e edit) line() string {
	switch e.Kind {
	case "MOVE":
		return fmt.Sprintf("MOVE %s %d %d", e.Inst, e.DX, e.DY)
	case "ORIENT":
		return fmt.Sprintf("ORIENT %s %s", e.Inst, e.Orient)
	case "DELETE":
		return "DELETE " + e.Inst
	}
	return fmt.Sprintf("CREATE SRCELL %s AT %d %d", e.Inst, e.X, e.Y)
}

// editStep is one turn of the designer's loop: an edit, then a verdict.
type editStep struct {
	Edit  edit
	Verb  string
	Check bool // re-derive this step's verdict with the flat oracle
}

func (s editStep) verify() string { return s.Verb + " TOP" }

type editGen struct {
	rng    *rand.Rand
	kinds  *deck[string]
	verbs  *deck[string]
	undo   *edit
	seen   map[string]bool
	checks int
}

// newEditGen deals the edit kinds evenly and the verbs six DRC to one
// EXTRACT and one LVS.
func newEditGen(seed int64) *editGen {
	rng := rand.New(rand.NewSource(seed))
	return &editGen{
		rng:   rng,
		kinds: newDeck(rng, "MOVE", "ORIENT", "DELETE"),
		verbs: newDeck(rng, "DRC", "DRC", "DRC", "DRC", "DRC", "DRC", "EXTRACT", "LVS"),
		seen:  map[string]bool{},
	}
}

// gridCell names grid cell i and gives its home position in lambda.
func gridCell(i int) (name string, x, y int) {
	return fmt.Sprintf("c%d", i), (i % gridN) * cellW, (i / gridN) * cellH
}

// next alternates a seeded one-cell edit with the edit that undoes it,
// so every cell is back home after each pair.
func (g *editGen) next() editStep {
	var e edit
	if g.undo != nil {
		e, g.undo = *g.undo, nil
	} else {
		name, x, y := gridCell(g.rng.Intn(gridN * gridN))
		var u edit
		switch g.kinds.deal() {
		case "MOVE":
			d := 2*g.rng.Intn(2) - 1
			dx, dy := d, 0
			if g.rng.Intn(2) == 0 {
				dx, dy = 0, d
			}
			e = edit{Kind: "MOVE", Inst: name, DX: dx, DY: dy}
			u = edit{Kind: "MOVE", Inst: name, DX: -dx, DY: -dy}
		case "ORIENT":
			orients := []string{"MX", "MXR180", "R180"}
			e = edit{Kind: "ORIENT", Inst: name, Orient: orients[g.rng.Intn(len(orients))]}
			u = edit{Kind: "ORIENT", Inst: name, Orient: "R0"}
		default:
			e = edit{Kind: "DELETE", Inst: name}
			u = edit{Kind: "CREATE", Inst: name, X: x, Y: y}
		}
		g.undo = &u
	}
	st := editStep{Edit: e, Verb: g.verbs.deal()}
	if !g.seen[st.Verb] {
		g.seen[st.Verb] = true
		st.Check = true
	} else if g.checks < editChecks && g.rng.Intn(16) == 0 {
		g.checks++
		st.Check = true
	}
	return st
}

// ---- serve_tenants ----

const (
	// tenants is the number of closed-loop clients (no more than nproc
	// on the machines this is meant for).
	tenants = 2
	// tenantDesigns is the number of shared designs.
	tenantDesigns = 2
)

// tenantSides are the leaf-array sides a session draws from.
var tenantSides = []int{16, 28, 40}

// tenantEdits are the one-cell edits a session makes on its cell's
// loose leaf b, each with the edit that undoes it.
var tenantEdits = [][2]string{
	{"MOVE b -1 0", "MOVE b 1 0"},
	{"MOVE b 1 0", "MOVE b -1 0"},
	{"ORIENT b MX", "ORIENT b R0"},
}

// tenantSetup builds a client's cell: a leaf b abutting the left edge
// of a 16×16 leaf array a.
func tenantSetup(cell string) []string {
	return []string{"EDIT " + cell, "CREATE SRCELL b AT -20 0", "CREATE SRCELL a ARRAY 16 16"}
}

// tenantCell names client c's cell; each client edits only its own.
func tenantCell(c int) string { return fmt.Sprintf("T%d", c) }

// tenantSession is one short session of one client.
type tenantSession struct {
	ID     string
	Design int
	NX, NY int
	Edit   int    // index into tenantEdits
	Verb   string // DRC or EXTRACT, after the edit
	// Cross also verifies the other client's cell, which that client
	// may be editing at the same moment.
	Cross bool
}

// tenantStep is one command of a session's script. State is the cell
// state a mutating command leaves, or the state a verification of the
// client's own cell sees.
type tenantStep struct {
	Line    string
	Verb    string // verification verb, "" otherwise
	Mutates bool
	State   tenantState
	Cross   bool // verifies the other client's cell
}

// tenantState identifies a client's cell content: a's sides (0 when a
// is deleted) and the edit applied to b (-1 for none).
type tenantState struct{ NX, NY, Edit int }

var tenantStart = tenantState{16, 16, -1}

func (s tenantSession) designName() string { return fmt.Sprintf("d%d", s.Design) }

// steps spells out the session between OPEN and CLOSE for client c.
func (s tenantSession) steps(c int) []tenantStep {
	cell := tenantCell(c)
	full := tenantState{s.NX, s.NY, -1}
	edited := tenantState{s.NX, s.NY, s.Edit}
	out := []tenantStep{
		{Line: "EDIT " + cell},
		{Line: "DELETE a", Mutates: true, State: tenantState{0, 0, -1}},
		{Line: fmt.Sprintf("CREATE SRCELL a ARRAY %d %d", s.NX, s.NY), Mutates: true, State: full},
		{Line: "LVS " + cell, Verb: "LVS", State: full},
		{Line: tenantEdits[s.Edit][0], Mutates: true, State: edited},
		{Line: s.Verb + " " + cell, Verb: s.Verb, State: edited},
		{Line: tenantEdits[s.Edit][1], Mutates: true, State: full},
	}
	if s.Cross {
		out = append(out, tenantStep{Line: "LVS " + tenantCell(1-c), Verb: "LVS", Cross: true})
	}
	return out
}

type tenantGen struct {
	rng    *rand.Rand
	client int
	n      int
	deals  *deck[tenantSession]
	cross  *deck[bool]
}

// newTenantGen deals client's sessions: every (shape, verb, edit)
// combination once per round, with DRC and EXTRACT alike after the
// edit, and one cross check in four sessions.
func newTenantGen(seed int64, client int) *tenantGen {
	rng := rand.New(rand.NewSource(seed*tenants + int64(client)))
	var deals []tenantSession
	for _, x := range tenantSides {
		for _, y := range tenantSides {
			for _, v := range []string{"DRC", "EXTRACT"} {
				for e := range tenantEdits {
					deals = append(deals, tenantSession{NX: x, NY: y, Verb: v, Edit: e})
				}
			}
		}
	}
	return &tenantGen{
		rng:    rng,
		client: client,
		deals:  newDeck(rng, deals...),
		cross:  newDeck(rng, true, false, false, false),
	}
}

func (g *tenantGen) next() tenantSession {
	s := g.deals.deal()
	s.ID = fmt.Sprintf("c%d-%d", g.client, g.n)
	s.Design = g.rng.Intn(tenantDesigns)
	s.Cross = g.cross.deal()
	g.n++
	return s
}
