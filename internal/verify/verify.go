// Package verify is the whole-design verification pipeline: one
// Verifier answers "is the composition clean, and what does it
// connect?" for a core.Editor's cell, keyed on the editor's edit
// generation.
//
// The paper's workflow is edit, verify, edit: the designer abuts or
// routes a cell, re-checks the whole composition, and moves on. Every
// run goes through the hierarchical certificate engine
// (internal/hier): each distinct (cell, orientation) is extracted and
// design-rule checked once, and placements compose from those
// certificates, so an edit re-derives only the cells and seams it
// disturbed. When the engine declines a design, the run falls back to
// the flat from-scratch engines — extract.SolveNets and drc.Check over
// a flattened Result — which are also the oracle every hierarchical
// answer is differential-tested against, so callers cannot observe
// the path taken except as speed and in Stats.
//
// A report is finished on demand. The DRC entries (DRCSnapshot,
// DRCCell) stop at the verdict: the O(copies) netlist is built only
// when something reads it — EXTRACT and LVS, through EnsureCircuit or
// the Verify entries that include it. The flatten cache
// (internal/flatten.Cache) is kept across runs for LVS likewise:
// EnsureFlat materializes occurrence identity on demand, and an edit
// re-walks only the instances it touched.
//
// A Verifier serves one session at a time and is not safe for
// concurrent use — but it consumes frozen snapshots
// (core.Editor.Snapshot), so the editor it watches may keep mutating
// while a run proceeds, and a server can run many sessions' verifiers
// in parallel against one shared design. Edits made outside the
// editor's methods must be announced with Editor.Invalidate, which
// drops every cache.
package verify

import (
	"errors"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/faultinject"
	"riot/internal/flatten"
	"riot/internal/hier"
	"riot/internal/obs"
)

// Report is the outcome of one whole-design verification.
type Report struct {
	// Circuit is the extracted netlist, nil when extraction failed
	// (CircuitErr says why — e.g. a transistor with a floating channel
	// mid-edit). DRC runs either way. Reports from the DRC entries
	// leave both unset until Verifier.EnsureCircuit fills them in.
	Circuit    *extract.Circuit
	CircuitErr error
	// Violations is the design-rule report, empty when clean.
	Violations []drc.Violation
	// Quarantined counts placements the hierarchical engine served by
	// partial degradation (flat residue spliced into the composed
	// remainder) rather than certificate composition; 0 for fallback
	// reports and clean hierarchical runs.
	Quarantined int
	// Gen is the editor generation the report describes.
	Gen uint64
	// Flat is the flattened geometry the report was derived from. The
	// LVS hierarchical-certificate path reads occurrence identity
	// (per-device Src ids, SrcCells) from it to align the extracted
	// circuit's transistors with the cells the composition declares.
	// Reports from the hierarchical engine leave it nil — no flattening
	// happened — and Verifier.EnsureFlat populates it on demand.
	Flat *flatten.Result

	// extracted records that Circuit/CircuitErr are final; pending is
	// the hierarchical verdict whose netlist is not materialized yet
	// (nil for flat reports, which extract from Flat).
	extracted bool
	pending   *hier.Result
}

// Clean reports whether the design extracted successfully and checked
// rule-clean. It reads CircuitErr, so a report from a DRC entry needs
// Verifier.EnsureCircuit first.
func (r *Report) Clean() bool {
	return r.CircuitErr == nil && len(r.Violations) == 0
}

// Stats counts how a Verifier satisfied its runs: Cached (unchanged
// generation, the report returned outright), Hier (answered by the
// hierarchical certificate engine) and Full (the engine declined; a
// from-scratch flat run answered). A hierarchical run whose netlist
// materialization later declines is re-answered flat and moves from
// Hier to Full. Any number of edits between two Verify calls coalesce
// into one run — the batched-edit test pins that.
type Stats struct {
	Cached int
	// Spliced is always 0. It is kept because the end-to-end
	// benchmark (perfbench) reads it.
	Spliced int
	Full    int
	// Hier counts runs answered by the hierarchical certificate engine
	// (per-distinct-cell work, no flattening at all); HierPartial those
	// among them that quarantined placements and spliced a flat residue.
	Hier        int
	HierPartial int
	// Materialized counts netlists built: hierarchical
	// materializations and flat extractions. DRC builds none.
	Materialized int
}

// Verifier caches verification state across edits of one composition
// cell. The zero Verifier is ready to use.
type Verifier struct {
	cache flatten.Cache
	eng   *hier.Engine

	// trace, when enabled, records the pipeline's span tree per run:
	// one "verify" root with the hier or flatten/extract/drc children.
	// SetTrace propagates it to every stage.
	trace *obs.Trace

	cell   *core.Cell
	gen    uint64
	have   bool
	report *Report
	stats  Stats
}

// Stats reports the verifier's run accounting.
func (v *Verifier) Stats() Stats { return v.stats }

// SetTrace wires a span recorder through the whole pipeline: the
// verifier itself (including the fallback's extract and drc stages),
// the flatten cache and the hierarchical engine all record into t.
// nil detaches tracing everywhere (the default, which costs nothing).
func (v *Verifier) SetTrace(t *obs.Trace) {
	v.trace = t
	v.cache.Trace = t
	v.engine().Trace = t
}

// Trace reports the recorder SetTrace installed, or nil.
func (v *Verifier) Trace() *obs.Trace { return v.trace }

// SetLog routes the hierarchical engine's degradation lines (declines,
// partial quarantines) through l. nil restores the default, stderr;
// obs.Discard silences them.
func (v *Verifier) SetLog(l obs.Logger) { v.engine().Log = l }

// AttachDisk connects the verifier's flatten cache and the
// hierarchical engine to a content-addressed store — the on-disk
// castore.Store, a server's shared in-memory tier, or both
// (castore.Tiered): instance shards and per-cell certificates missing
// in memory (always, in a fresh process) are loaded by content
// signature instead of re-derived. A nil store detaches the flatten
// cache.
func (v *Verifier) AttachDisk(st castore.Blob, sg *castore.Signer) {
	v.cache.AttachDisk(st, sg)
	v.engine().AttachDisk(st, sg)
}

// engine returns the hierarchical engine, creating it on first use.
func (v *Verifier) engine() *hier.Engine {
	if v.eng == nil {
		v.eng = hier.New()
	}
	return v.eng
}

// HierStats reports the hierarchical engine's work counters.
func (v *Verifier) HierStats() hier.Stats { return v.engine().Stats() }

// HierDecline reports why the most recent hierarchical attempt fell
// back to the flat from-scratch run, or nil.
func (v *Verifier) HierDecline() error { return v.engine().LastDecline() }

// HierDeclineInfo reports the structured decline record of the most
// recent hierarchical attempt, or nil.
func (v *Verifier) HierDeclineInfo() *hier.Decline { return v.engine().LastDeclineInfo() }

// InjectFaults arms the hierarchical engine with a fault-injection
// set (nil disarms). The castore faults are wired separately on the
// store itself; see shell.InjectFaults for the full-pipeline hookup.
func (v *Verifier) InjectFaults(f *faultinject.Set) { v.engine().Faults = f }

// FlattenDiskStats reports, for the most recent run, how many instance
// shards loaded from the persistent store.
func (v *Verifier) FlattenDiskStats() (loaded int) { return v.cache.DiskStats() }

// FlattenStats reports, for the most recent run, how many instance
// shards the flatten cache reused vs re-flattened.
func (v *Verifier) FlattenStats() (reused, reflattened int) { return v.cache.Stats() }

// Verify extracts and design-rule checks the editor's cell, through a
// frozen snapshot of the editor's current generation (the editor may
// keep mutating while the run proceeds). An unchanged generation
// returns the cached report outright; any other runs the hierarchical
// engine, whose certificates for undisturbed cells carry over. A lost
// change log (Invalidate, trimmed log) or a cell switch first drops
// the pointer-keyed caches.
func (v *Verifier) Verify(ed *core.Editor) (*Report, error) {
	return v.VerifySnapshot(ed.Snapshot())
}

// VerifySnapshot is Verify against an explicit frozen generation: the
// DRCSnapshot verdict plus EnsureCircuit. Snapshot clones of one design
// cell share lineage (core.Cell.Origin), so successive generations
// reuse caches exactly as a live editor would: unchanged instances
// keep their clone pointers and therefore their flatten shards.
func (v *Verifier) VerifySnapshot(snap *core.Snapshot) (*Report, error) {
	return v.snapshot(snap, true)
}

// DRCSnapshot design-rule checks a frozen generation without building
// its netlist: the report's Circuit stays unset until EnsureCircuit.
// It shares VerifySnapshot's generation cache, so a DRC followed by an
// EXTRACT of the same generation composes once.
func (v *Verifier) DRCSnapshot(snap *core.Snapshot) (*Report, error) {
	return v.snapshot(snap, false)
}

func (v *Verifier) snapshot(snap *core.Snapshot, circuit bool) (*Report, error) {
	cell, gen := snap.Cell, snap.Gen
	if v.have && v.cell == cell && v.gen == gen {
		v.stats.Cached++
		if circuit {
			if err := v.EnsureCircuit(v.report); err != nil {
				return nil, err
			}
		}
		return v.report, nil
	}
	if v.have {
		if _, ok := snap.ChangesSince(v.gen); !ok || v.cell.Origin() != cell.Origin() {
			// tracking lost: unbounded change, trimmed log, or a cell
			// switch — drop the flatten cache so no stale shard splices
			v.cache.Reset()
			if !ok && v.eng != nil {
				// an Invalidate can mean leaf cells mutated in place;
				// the engine's pointer-keyed certificate memo would not
				// notice, so drop it (store entries are content-signed
				// and re-key correctly — the signer's memo entries are
				// revision-checked, so they recompute on their own)
				v.eng.ResetMemo()
			}
		}
	}
	return v.run(cell, gen, circuit)
}

// VerifyCell verifies a cell outside any editor, bypassing the
// generation check: the DRCCell verdict plus EnsureCircuit. Snapshot
// clones compare by lineage, so verifying successive frozen
// generations of one design cell keeps the caches warm.
func (v *Verifier) VerifyCell(cell *core.Cell) (*Report, error) {
	return v.cellRun(cell, true)
}

// DRCCell is VerifyCell without building the netlist, as DRCSnapshot
// is to VerifySnapshot.
func (v *Verifier) DRCCell(cell *core.Cell) (*Report, error) {
	return v.cellRun(cell, false)
}

func (v *Verifier) cellRun(cell *core.Cell, circuit bool) (*Report, error) {
	if v.cell == nil || v.cell.Origin() != cell.Origin() {
		v.cache.Reset()
	}
	return v.run(cell, 0, circuit)
}

// run answers one generation under a "verify" span: the hierarchical
// verdict, or the flat fallback when the engine declines; with circuit
// set, the netlist too, inside the same span.
func (v *Verifier) run(cell *core.Cell, gen uint64, circuit bool) (*Report, error) {
	sp := v.trace.Begin("verify")
	defer sp.End()
	if sp != nil {
		sp.Note("cell", cell.Name)
	}
	// hold at most one pending composition: the previous report's goes
	// before the next generation composes
	if v.report != nil {
		v.report.pending = nil
		v.report = nil
	}
	v.have = false
	rep := v.runHier(cell, gen)
	if rep == nil {
		var err error
		if rep, err = v.runFlat(cell, gen); err != nil {
			return nil, err
		}
		v.stats.Full++
	}
	v.cell, v.gen, v.have, v.report = cell, gen, true, rep
	if circuit {
		if err := v.ensureCircuit(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runFlat is the from-scratch fallback's verdict: flatten (through the
// shard cache) and check. Extraction waits for ensureCircuit.
func (v *Verifier) runFlat(cell *core.Cell, gen uint64) (*Report, error) {
	fr, err := v.cache.Flatten(cell)
	if err != nil {
		return nil, err
	}
	dsp := v.trace.Begin("drc")
	vs := drc.Check(fr)
	dsp.End()
	return &Report{Violations: vs, Gen: gen, Flat: fr}, nil
}

// runHier attempts the hierarchical path: per-distinct-cell
// certificates composed over placements, verdict-identical to the flat
// pipeline or declined (nil). The netlist stays pending until
// ensureCircuit; Flat stays nil until EnsureFlat.
func (v *Verifier) runHier(cell *core.Cell, gen uint64) *Report {
	res, ok := v.engine().Verify(cell)
	if !ok {
		return nil
	}
	v.stats.Hier++
	if res.Quarantined > 0 {
		v.stats.HierPartial++
	}
	return &Report{
		Violations:  res.Violations,
		Quarantined: res.Quarantined,
		Gen:         gen,
		pending:     res,
	}
}

// EnsureCircuit fills rep.Circuit/CircuitErr for reports the DRC
// entries produced. Only the verifier's current report can be
// completed, as with EnsureFlat. A hierarchical report materializes
// its composed netlist; when that composition declines (say, a compose
// budget that the fast path's samples fit but the full array does
// not), the flat pipeline re-answers into the same report — Circuit,
// CircuitErr, Violations, Flat and Quarantined — and the run counts as
// Full.
func (v *Verifier) EnsureCircuit(rep *Report) error {
	if rep.extracted {
		return nil
	}
	if rep != v.report {
		return errors.New("verify: EnsureCircuit on a stale report")
	}
	sp := v.trace.Begin("verify")
	defer sp.End()
	return v.ensureCircuit(rep)
}

// ensureCircuit is EnsureCircuit for the current report, recording
// into whatever span is open.
func (v *Verifier) ensureCircuit(rep *Report) error {
	if rep.extracted {
		return nil
	}
	if res := rep.pending; res != nil {
		msp := v.trace.Begin("materialize")
		ckt, err := res.Circuit()
		msp.End()
		rep.pending = nil
		if err == nil {
			v.stats.Materialized++
			rep.Circuit, rep.extracted = ckt, true
			return nil
		}
		// the composition declined after the verdict: answer flat
		v.stats.Hier--
		if rep.Quarantined > 0 {
			v.stats.HierPartial--
		}
		v.stats.Full++
		flat, err := v.runFlat(v.cell, rep.Gen)
		if err != nil {
			v.have, v.report = false, nil
			return err
		}
		rep.Violations, rep.Quarantined, rep.Flat = flat.Violations, 0, flat.Flat
	}
	esp := v.trace.Begin("extract")
	rep.Circuit, _, rep.CircuitErr = extract.SolveNets(rep.Flat)
	esp.End()
	v.stats.Materialized++
	rep.extracted = true
	return nil
}

// EnsureFlat populates rep.Flat for reports the hierarchical engine
// produced without flattening. Only the verifier's current report can
// be completed — the flatten cache tracks one design state. The
// cache's per-instance placement keys keep this safe to call at any
// time: only instances edited since the last flatten re-walk.
func (v *Verifier) EnsureFlat(rep *Report) error {
	if rep.Flat != nil {
		return nil
	}
	if rep != v.report {
		return errors.New("verify: EnsureFlat on a stale report")
	}
	fr, err := v.cache.Flatten(v.cell)
	if err != nil {
		return err
	}
	rep.Flat = fr
	return nil
}
