package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"riot/internal/hier"
	"riot/internal/lvs"
	"riot/internal/obs"
	"riot/internal/serve"
	"riot/internal/shell"
)

// stateLog is the sequence of states one client's cell in one design
// passes through, appended by its owner after each mutating command.
type stateLog struct {
	mu     sync.Mutex
	states []tenantState
}

func (l *stateLog) push(s tenantState) {
	l.mu.Lock()
	l.states = append(l.states, s)
	l.mu.Unlock()
}

func (l *stateLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.states)
}

// observation is one verdict a session saw, with the cell states it may
// have seen: exactly one for the client's own cell, a window of the
// owner's log for the other client's cell.
type observation struct {
	owner     int
	states    []tenantState
	verb, got string
	underEdit bool
	where     string
}

// tenantClient is what one client measured; merged after the clients end.
type tenantClient struct {
	run
	obs     []observation
	pending []pendingCross
}

// pendingCross is a cross verification whose candidate states are read
// off the owner's log once every client has finished.
type pendingCross struct {
	observation
	log    *stateLog
	lo, hi int
}

// runTenants is serve_tenants: one serve.Server, two closed-loop
// clients each running short sessions on two shared designs. A
// request's time is the verification command's; a unit is a session
// from OPEN to CLOSE.
func runTenants(seed int64, seconds float64, traced bool, sent *[]string) *run {
	r := newRun()
	var sv *serve.Server
	var logs [tenantDesigns][tenants]*stateLog
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if sv, err = tenantServer(r, sent); err != nil {
			r.errorf("set-up: %v", err)
			return r
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	for d := range logs {
		for c := range logs[d] {
			logs[d][c] = &stateLog{states: []tenantState{tenantStart}}
		}
	}

	var tr *tracer
	if traced {
		tr = newTracer()
		r.tr = tr
	}
	runtime.GC() // every run starts timing from the same heap
	store0 := sv.Snapshot()
	clients := make([]*tenantClient, tenants)
	var sentMu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < tenants; c++ {
		cl := &tenantClient{run: *newRun()}
		clients[c] = cl
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newTenantGen(seed, c)
			for n := 0; cl.more(t0, seconds) || n < 4; n++ {
				s := g.next()
				// a traced run traces every other session
				sessTr := tr
				if n%2 == 0 {
					sessTr = nil
				}
				cl.session(sv, sessTr, c, s, &logs[s.Design], func(line string) {
					sentMu.Lock()
					record(sent, s.ID+": "+line)
					sentMu.Unlock()
				})
			}
		}(c)
	}
	wg.Wait()
	r.window = time.Since(t0).Seconds()
	r.peakMB = peakRSSMB()
	if tr != nil {
		store := sv.Snapshot()
		get := func(s *obs.Snapshot, key string) float64 {
			v, _ := s.Get("store", key)
			return float64(v)
		}
		tr.add("castore.hits", get(store, "hits")-get(store0, "hits"))
		tr.add("castore.misses", get(store, "misses")-get(store0, "misses"))
		tr.add("castore.lookups", get(store, "hits")+get(store, "misses")-get(store0, "hits")-get(store0, "misses"))
		tr.add("castore.bytes", get(store, "bytes"))
	}

	var all []observation
	for _, cl := range clients {
		for v, s := range cl.lat {
			r.lat[v] = append(r.lat[v], s...)
		}
		r.units = append(r.units, cl.units...)
		r.tunits = append(r.tunits, cl.tunits...)
		r.attempted += cl.attempted
		r.failed += cl.failed
		all = append(all, cl.obs...)
		for _, p := range cl.pending {
			// the owner's states from just before the command to just
			// after it: the snapshot froze one of them
			states := p.log.states
			lo, hi := max(p.lo-1, 0), min(p.hi, len(states)-1)
			p.observation.states = states[lo : hi+1]
			all = append(all, p.observation)
		}
	}
	checkTenants(r, all)
	return r
}

// session runs one tenant session and records what it saw.
func (cl *tenantClient) session(sv *serve.Server, tr *tracer, c int, s tenantSession, logs *[tenants]*stateLog, send func(string)) {
	var unit int64
	if tr != nil {
		unit = tr.unit()
	}
	timed := func(layer string, f func() error) error {
		var err error
		if tr == nil {
			err = f()
		} else {
			tr.call(unit, layer, func() { err = f() })
		}
		cl.attempted++
		if err != nil {
			cl.failed++
		}
		return err
	}
	start := time.Now()
	send("OPEN " + s.designName())
	if timed("serve.open", func() error { return sv.Open(s.ID, s.designName()) }) != nil {
		return
	}
	for _, st := range s.steps(c) {
		owner, lo := c, 0
		if st.Cross {
			owner = 1 - c
			lo = logs[owner].len()
		}
		verb, _, _ := strings.Cut(st.Line, " ")
		var before lvs.CertStoreStats
		if tr != nil && st.Verb == "LVS" {
			before = sessionShell(sv, s.ID).LVS.Certs.Stats()
		}
		send(st.Line)
		vstart := time.Now()
		var out string
		err := timed("serve.do."+verb, func() error {
			var err error
			out, err = sv.Do(s.ID, st.Line)
			return err
		})
		if err != nil {
			if strings.Contains(err.Error(), "under edit") && tr != nil {
				tr.add("serve.lease_refused", 1)
			}
			continue
		}
		if st.Mutates {
			logs[c].push(st.State)
		}
		if st.Verb == "" {
			continue
		}
		switch {
		case tr == nil:
			cl.lat[st.Verb] = append(cl.lat[st.Verb], msSince(vstart))
		case st.Verb == "EXTRACT":
			tr.add("verify.read", 1)
		case st.Verb == "LVS":
			tr.add("verify.read", 1)
			sh := sessionShell(sv, s.ID)
			addLVS(tr, before, sh.LVS.Certs.Stats())
			reused, reflat := sh.Verifier.FlattenStats()
			tr.add("flatten.calls", 1)
			tr.add("flatten.reused", float64(reused))
			tr.add("flatten.reflattened", float64(reflat))
		}
		o := observation{owner: owner, verb: st.Verb, got: out, underEdit: !st.Cross,
			where: fmt.Sprintf("session %s: %s", s.ID, st.Line)}
		if !st.Cross {
			o.states = []tenantState{st.State}
			cl.obs = append(cl.obs, o)
			continue
		}
		cl.pending = append(cl.pending, pendingCross{o, logs[owner], lo, logs[owner].len()})
	}
	if tr != nil {
		v := &sessionShell(sv, s.ID).Verifier
		tr.addHier(hier.Stats{}, v.HierStats())
		vs := v.Stats()
		tr.add("verify.built", float64(vs.Hier+vs.Full+vs.Spliced))
	}
	send("CLOSE")
	timed("serve.close", func() error { return sv.Close(s.ID) })
	if tr != nil {
		cl.tunits = append(cl.tunits, msSince(start))
	} else {
		cl.units = append(cl.units, msSince(start))
	}
}

// sessionShell is an open session's shell; the caller owns the session.
func sessionShell(sv *serve.Server, sid string) *shell.Shell {
	sh, _ := sv.Shell(sid)
	return sh
}

// tenantServer is the set-up: a fresh server, each client's cell built
// in each shared design, and a warm-up LVS and DRC of each.
func tenantServer(r *run, sent *[]string) (*serve.Server, error) {
	sv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, err
	}
	for d := 0; d < tenantDesigns; d++ {
		for c := 0; c < tenants; c++ {
			sid, cell := fmt.Sprintf("setup-%d-%d", d, c), tenantCell(c)
			lines := append(tenantSetup(cell), "LVS "+cell, "DRC "+cell)
			if _, err := replayLines(r, sv, sid, fmt.Sprintf("d%d", d), lines, sent); err != nil {
				return nil, err
			}
			if err := sv.Close(sid); err != nil {
				return nil, err
			}
		}
	}
	return sv, nil
}

// replayLines opens sid on design and sends lines, stopping at the
// first error; it returns the last command's output.
func replayLines(r *run, sv *serve.Server, sid, design string, lines []string, sent *[]string) (string, error) {
	if err := sv.Open(sid, design); err != nil {
		return "", err
	}
	var out string
	for _, line := range lines {
		var err error
		r.attempted++
		record(sent, sid+": "+line)
		if out, err = sv.Do(sid, line); err != nil {
			r.failed++
			return "", fmt.Errorf("%s: %w", line, err)
		}
	}
	return out, nil
}

// tenantReplay is the independent answer for a verdict: a fresh server
// and a single session that brings owner's cell to state st and asks
// verb — under edit as the owner sees it, or after ENDEDIT as the other
// client does.
func tenantReplay(owner int, st tenantState, verb string, underEdit bool) (string, error) {
	sv, err := serve.New(serve.Options{})
	if err != nil {
		return "", err
	}
	cell := tenantCell(owner)
	lines := append(tenantSetup(cell), "DELETE a")
	if st.NX > 0 {
		lines = append(lines, fmt.Sprintf("CREATE SRCELL a ARRAY %d %d", st.NX, st.NY))
	}
	if st.Edit >= 0 {
		lines = append(lines, tenantEdits[st.Edit][0])
	}
	if !underEdit {
		lines = append(lines, "ENDEDIT")
	}
	lines = append(lines, verb+" "+cell)
	return replayLines(newRun(), sv, "replay", "d", lines, nil)
}

type replayKey struct {
	owner     int
	st        tenantState
	verb      string
	underEdit bool
}

// checkTenants compares each observed verdict with the replay of a
// state it may have seen.
func checkTenants(r *run, obs []observation) {
	memo := map[replayKey]string{}
	for _, o := range obs {
		var wants []string
		ok := false
		for _, st := range o.states {
			k := replayKey{o.owner, st, o.verb, o.underEdit}
			want, seen := memo[k]
			if !seen {
				var err error
				if want, err = tenantReplay(o.owner, st, o.verb, o.underEdit); err != nil {
					r.errorf("%s: replay of %+v: %v", o.where, st, err)
					continue
				}
				memo[k] = want
			}
			wants = append(wants, want)
			ok = ok || want == o.got
		}
		if !ok {
			r.errorf("%s: got %q, replay gives %q", o.where, o.got, wants)
		}
	}
}
