package main

import (
	"runtime"
	"time"

	"riot"
	"riot/internal/geom"
	"riot/internal/hier"
)

// runSignoff is array_signoff: cold CLI-style requests, each a fresh
// session that builds an array around 128×128 and asks for one verdict.
// A request's time runs from the new session to the verdict.
func runSignoff(seed int64, seconds float64, traced bool, sent *[]string) *run {
	r := newRun()
	g := newSignoffGen(seed)
	var tr *tracer
	if traced {
		tr = newTracer()
		r.tr = tr
	}
	verdicts := map[signoffReq]string{}

	// set-up is the warm-up: one request of each verb on the first shape
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		for _, v := range verbs {
			req := signoffReq{NX: g.shapes[0][0], NY: g.shapes[0][1], Verb: v}
			signoffRequest(r, req, nil, sent, verdicts)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	runtime.GC() // every run starts timing from the same heap
	t0 := time.Now()
	for n := 0; r.more(t0, seconds); n++ {
		req := g.next()
		if tr == nil {
			if ms, ok := signoffRequest(r, req, nil, sent, verdicts); ok {
				r.sample(req.Verb, ms)
			}
			continue
		}
		// a traced run sends every request twice, plain and traced, in
		// alternating order, so both halves see the same requests
		for k := 0; k < 2; k++ {
			if (n+k)%2 == 0 {
				if ms, ok := signoffRequest(r, req, nil, sent, verdicts); ok {
					r.sample(req.Verb, ms)
				}
			} else if ms, ok := signoffRequest(r, req, tr, sent, verdicts); ok {
				r.tunits = append(r.tunits, ms)
			}
		}
	}
	r.window = time.Since(t0).Seconds()
	r.peakMB = peakRSSMB()

	// the known answers, once per distinct request
	for req, got := range verdicts {
		s, err := riot.NewSession(nil)
		if err == nil {
			err = s.ExecAll(req.script()...)
		}
		if err != nil {
			r.errorf("%v: oracle set-up: %v", req, err)
			continue
		}
		want, err := oracleVerdict(s.Editor().Cell, s.Editor().Declared, req.Verb)
		if err != nil {
			r.errorf("%v: oracle: %v", req, err)
		} else if got != want {
			r.errorf("%v: got %q, flat oracle %q", req, got, want)
		}
	}
	return r
}

// signoffRequest runs one request, traced unless tr is nil, and returns
// its time. The verdict goes into verdicts, one per distinct request: a
// repeat that answers differently is itself a wrong verdict.
func signoffRequest(r *run, req signoffReq, tr *tracer, sent *[]string, verdicts map[signoffReq]string) (float64, bool) {
	// each CLI run is a fresh process with an empty heap; collect the
	// previous request's garbage before the clock starts
	runtime.GC()
	start := time.Now()
	var verdict string
	var err error
	if tr == nil {
		verdict, err = signoffPlain(r, req, sent)
	} else {
		verdict, err = signoffTraced(r, tr, req, sent)
	}
	if err != nil {
		r.failed++
		return 0, false
	}
	ms := msSince(start)
	if prev, ok := verdicts[req]; ok && prev != verdict {
		r.errorf("%v: verdict changed between runs: %q then %q", req, prev, verdict)
	}
	verdicts[req] = verdict
	return ms, true
}

func signoffPlain(r *run, req signoffReq, sent *[]string) (string, error) {
	s, err := riot.NewSession(nil)
	if err != nil {
		return "", err
	}
	for _, line := range req.script() {
		r.attempted++
		record(sent, line)
		if err := s.Exec(line); err != nil {
			return "", err
		}
	}
	r.attempted++
	record(sent, req.verify())
	return sessionVerdict(s, req.verify())
}

func signoffTraced(r *run, tr *tracer, req signoffReq, sent *[]string) (string, error) {
	unit := tr.unit()
	s, err := riot.NewSession(nil)
	if err != nil {
		return "", err
	}
	script := req.script()
	for _, line := range script[:2] { // READ, EDIT
		r.attempted++
		record(sent, line)
		if err := s.Exec(line); err != nil {
			return "", err
		}
	}
	r.attempted += 2
	record(sent, script[2])
	tr.call(unit, "core.edit", func() {
		_, err = s.Editor().CreateInstance("SRCELL", "a", geom.MakeTransform(geom.R0, geom.Pt(0, 0)), req.NX, req.NY, 0, 0)
	})
	if err != nil {
		return "", err
	}
	record(sent, req.verify())
	eng := hier.New()
	verdict, err := tracedVerify(tr, unit, s, eng, req.Verb)
	tr.addHier(hier.Stats{}, eng.Stats())
	tr.addHier(hier.Stats{}, s.Shell.Verifier.HierStats())
	return verdict, err
}

// record notes a command sent to the program, when a test asks.
func record(sent *[]string, line string) {
	if sent != nil {
		*sent = append(*sent, line)
	}
}
