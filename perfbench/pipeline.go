package main

import (
	"fmt"

	"riot"
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/lvs"
	"riot/internal/rules"
	"riot/internal/verify"
)

// apply makes the same edit as e.line() through the editor's API.
func (e edit) apply(ed *core.Editor) error {
	lam := func(v int) int { return v * rules.Lambda }
	if e.Kind == "CREATE" {
		_, err := ed.CreateInstance("SRCELL", e.Inst, geom.MakeTransform(geom.R0, geom.Pt(lam(e.X), lam(e.Y))), 1, 1, 0, 0)
		return err
	}
	in, ok := ed.Cell.InstanceByName(e.Inst)
	if !ok {
		return fmt.Errorf("perfbench: no instance %q", e.Inst)
	}
	switch e.Kind {
	case "MOVE":
		ed.MoveInstance(in, geom.Pt(lam(e.DX), lam(e.DY)))
	case "ORIENT":
		o, err := geom.ParseOrient(e.Orient)
		if err != nil {
			return err
		}
		ed.OrientInstance(in, o)
	case "DELETE":
		return ed.DeleteInstance(in)
	default:
		return fmt.Errorf("perfbench: unknown edit %q", e.Kind)
	}
	return nil
}

// tracedVerify answers one verification command of the session's cell
// under edit layer by layer, in pipeline order, each call finding the
// stages before it done: the editor's snapshot; then for DRC and
// EXTRACT the hierarchical engine and the netlist materialization, on
// eng, an engine kept as warm as the session's own; for LVS the
// session's verifier (whose private engine does the same two steps),
// the flattening, the reference netlist and the match.
func tracedVerify(tr *tracer, unit int64, s *riot.Session, eng *hier.Engine, verb string) (string, error) {
	var snap *core.Snapshot
	tr.call(unit, "core.snapshot", func() { snap = s.Editor().Snapshot() })
	v := &s.Shell.Verifier
	if verb == "LVS" {
		return tracedLVS(tr, unit, v, &s.Shell.LVS, snap)
	}

	var res *hier.Result
	var ok bool
	tr.call(unit, "hier.verify", func() { res, ok = eng.Verify(snap.Cell) })
	var ckt *extract.Circuit
	var err error
	if ok {
		tr.call(unit, "verify.materialize", func() { ckt, err = res.Circuit() })
	}
	if !ok || err != nil {
		// the engine declined: the program answers from the flat pipeline
		var rep *verify.Report
		tr.call(unit, "verify.run", func() { rep, err = v.VerifySnapshot(snap) })
		if err != nil {
			return "", err
		}
		return reportVerdict(tr, rep, verb)
	}
	tr.add("verify.built", 1)
	tr.add("verify.devices", float64(len(ckt.Transistors)))
	if verb == "DRC" {
		return drcVerdict(res.Violations), nil
	}
	tr.add("verify.read", 1)
	return extractVerdict(ckt), nil
}

// reportVerdict reads a DRC or EXTRACT verdict off a verifier report.
func reportVerdict(tr *tracer, rep *verify.Report, verb string) (string, error) {
	if rep.Circuit != nil {
		tr.add("verify.built", 1)
		tr.add("verify.devices", float64(len(rep.Circuit.Transistors)))
	}
	if verb == "DRC" {
		return drcVerdict(rep.Violations), nil
	}
	if rep.CircuitErr != nil {
		return "", rep.CircuitErr
	}
	tr.add("verify.read", 1)
	return extractVerdict(rep.Circuit), nil
}

func tracedLVS(tr *tracer, unit int64, v *verify.Verifier, inc *lvs.Incremental, snap *core.Snapshot) (string, error) {
	var rep *verify.Report
	var err error
	tr.call(unit, "verify.run", func() { rep, err = v.VerifySnapshot(snap) })
	if err != nil {
		return "", err
	}
	if rep.Circuit != nil {
		tr.add("verify.built", 1)
		tr.add("verify.read", 1)
		tr.add("verify.devices", float64(len(rep.Circuit.Transistors)))
	}
	tr.call(unit, "flatten.ensure", func() { err = v.EnsureFlat(rep) })
	if err != nil {
		return "", err
	}
	reused, reflat := v.FlattenStats()
	tr.add("flatten.calls", 1)
	tr.add("flatten.reused", float64(reused))
	tr.add("flatten.reflattened", float64(reflat))
	tr.call(unit, "lvs.reference", func() { _, _, err = inc.Ref.NetlistOccs(snap.Cell, snap.Declared) })
	if err != nil {
		return "", err
	}
	before := inc.Certs.Stats()
	var res *lvs.Result
	tr.call(unit, "lvs.match", func() { res, err = inc.CheckSnapshot(snap, v) })
	if err != nil {
		return "", err
	}
	addLVS(tr, before, inc.Certs.Stats())
	return lvsVerdict(res), nil
}

// addLVS adds the sub-cell certificate work of one comparison.
func addLVS(tr *tracer, before, after lvs.CertStoreStats) {
	tr.add("lvs.calls", 1)
	tr.add("lvs.matched", float64(after.Matched-before.Matched))
	tr.add("lvs.reused", float64(after.Hits-before.Hits+after.DiskHits-before.DiskHits))
}
