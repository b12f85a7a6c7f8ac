package main

import (
	"fmt"
	"runtime"
	"time"

	"riot"
	"riot/internal/core"
	"riot/internal/hier"
)

// runEditLoop is edit_loop: one closed-loop designer on a 64×64 grid of
// individually placed SRCELLs. Each step sends one edit, then one
// verification command; a request's time is the verification command's.
func runEditLoop(seed int64, seconds float64, traced bool, sent *[]string) *run {
	r := newRun()
	var s *riot.Session
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if s, err = buildGrid(r, sent); err != nil {
			r.errorf("set-up: %v", err)
			return r
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	var tr *tracer
	var eng *hier.Engine
	if traced {
		tr = newTracer()
		r.tr = tr
		// the shadow engine warms up like the session's did in set-up
		eng = hier.New()
		res, ok := eng.Verify(s.Editor().Snapshot().Cell)
		if !ok {
			r.errorf("set-up: hierarchical engine declined the grid")
			return r
		}
		if _, err := res.Circuit(); err != nil {
			r.errorf("set-up: %v", err)
			return r
		}
	}

	type check struct {
		step  editStep
		snap  *core.Snapshot
		got   string
		index int
	}
	var checks []check
	runtime.GC() // every run starts timing from the same heap
	g := newEditGen(seed)
	t0 := time.Now()
	for n := 0; r.more(t0, seconds); n++ {
		st := g.next()
		// a traced run traces every other step
		stepTr := tr
		if n%2 == 0 {
			stepTr = nil
		}
		start := time.Now()
		verdict, vms, err := editTurn(r, s, st, stepTr, eng, sent)
		if err != nil {
			r.failed++
			continue
		}
		if stepTr != nil {
			r.tunits = append(r.tunits, msSince(start))
		} else {
			r.lat[st.Verb] = append(r.lat[st.Verb], vms)
			r.units = append(r.units, msSince(start))
		}
		if st.Check {
			checks = append(checks, check{st, s.Editor().Snapshot(), verdict, n})
		}
	}
	r.window = time.Since(t0).Seconds()
	r.peakMB = peakRSSMB()

	for _, c := range checks {
		want, err := oracleVerdict(c.snap.Cell, c.snap.Declared, c.step.Verb)
		if err != nil {
			r.errorf("step %d (%s; %s): oracle: %v", c.index, c.step.Edit.line(), c.step.verify(), err)
		} else if c.got != want {
			r.errorf("step %d (%s; %s): got %q, flat oracle %q", c.index, c.step.Edit.line(), c.step.verify(), c.got, want)
		}
	}
	if len(checks) == 0 {
		r.errorf("no step was checked against the oracle")
	}
	return r
}

// buildGrid is the set-up: a fresh session, the grid placed one cell at
// a time, and a warm-up DRC and LVS.
func buildGrid(r *run, sent *[]string) (*riot.Session, error) {
	s, err := riot.NewSession(nil)
	if err != nil {
		return nil, err
	}
	lines := []string{"READ srcell.sticks", "EDIT TOP"}
	for i := 0; i < gridN*gridN; i++ {
		name, x, y := gridCell(i)
		lines = append(lines, fmt.Sprintf("CREATE SRCELL %s AT %d %d", name, x, y))
	}
	lines = append(lines, "DRC TOP", "LVS TOP")
	for _, line := range lines {
		r.attempted++
		record(sent, line)
		if err := s.Exec(line); err != nil {
			r.failed++
			return nil, fmt.Errorf("%s: %w", line, err)
		}
	}
	return s, nil
}

// editTurn sends one step, through the layers' entry points when tr is
// set, and returns the verdict and the verification command's time.
func editTurn(r *run, s *riot.Session, st editStep, tr *tracer, eng *hier.Engine, sent *[]string) (string, float64, error) {
	r.attempted += 2
	record(sent, st.Edit.line())
	record(sent, st.verify())
	if tr == nil {
		if err := s.Exec(st.Edit.line()); err != nil {
			return "", 0, err
		}
		start := time.Now()
		verdict, err := sessionVerdict(s, st.verify())
		return verdict, msSince(start), err
	}
	unit := tr.unit()
	engBefore, sessBefore := eng.Stats(), s.Shell.Verifier.HierStats()
	defer func() {
		tr.addHier(engBefore, eng.Stats())
		tr.addHier(sessBefore, s.Shell.Verifier.HierStats())
	}()
	var err error
	tr.call(unit, "core.edit", func() { err = st.Edit.apply(s.Editor()) })
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	verdict, err := tracedVerify(tr, unit, s, eng, st.Verb)
	return verdict, msSince(start), err
}
