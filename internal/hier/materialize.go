package hier

import (
	"riot/internal/core"
	"riot/internal/extract"
	"riot/internal/geom"
)

// Circuit materializes the full netlist for a verdict: every
// occurrence's devices renumbered into the composed dense net space,
// plus the label map resolved in flat order. Fast-path verdicts run
// the exact general composition's connectivity on demand first —
// materialization is O(placed copies), which is exactly the cost the
// fast path exists to avoid, so it only happens when a caller actually
// needs the netlist. The rule checks are not re-run: the fast path's
// verdict is exact. A composition that declines here (a compose budget
// the samples fit but the full array does not) is recorded like any
// engine decline.
func (r *Result) Circuit() (*extract.Circuit, error) {
	if r.ckt != nil {
		return r.ckt, nil
	}
	st := r.gen
	if st == nil {
		var err error
		st, err = r.e.generalTop(r.top, false)
		if err != nil {
			d := declineOf(err)
			r.e.declined(d)
			return nil, d
		}
		r.gen = st
		// The general path is exact; its counts supersede the fitted
		// ones (they agree whenever the fit's verification held).
		r.NetCount = st.netCount
		r.DeviceCount = st.deviceCount()
		if st.quar != nil {
			r.Quarantined = len(st.quar.occOf)
		}
	}

	// Devices in flat walk order: composed occurrences read their
	// certificate's locally-resolved terminals; quarantined ones read
	// their group span's globally-resolved terminals. Both interleave
	// in global occurrence order, which is the flat device order.
	ckt := &extract.Circuit{NetCount: st.netCount, NetOf: map[string]int{}}
	if n := st.deviceCount(); n > 0 {
		ckt.Transistors = make([]extract.Transistor, 0, n)
	}
	for i := range st.occs {
		o := &st.occs[i]
		if st.inQ(i) {
			q := st.quar
			sp := q.g.OccDevSpan[q.qIdx[i]]
			for k := sp[0]; k < sp[1]; k++ {
				dn := q.devNodes[k]
				ckt.Transistors = append(ckt.Transistors, extract.Transistor{
					Kind: q.g.Devices[k].Kind,
					Gate: int(st.netOf[dn[0]]),
					A:    int(st.netOf[dn[1]]),
					B:    int(st.netOf[dn[2]]),
				})
			}
			continue
		}
		for _, dv := range o.cert.X.Devices {
			ckt.Transistors = append(ckt.Transistors, extract.Transistor{
				Kind: dv.Kind,
				Gate: int(st.netOf[o.netBase+dv.GateNet]),
				A:    int(st.netOf[o.netBase+dv.ANet]),
				B:    int(st.netOf[o.netBase+dv.BNet]),
			})
		}
	}

	// Labels in flat walk order: the top's own connectors, then each
	// top-level instance's connector labels (the flat walk does not
	// recurse labels either). Unresolved labels drop silently; later
	// resolutions of a repeated name win — both flat conventions.
	set := func(name string, at geom.Point, l geom.Layer) {
		if n := st.labelNet(at, l); n >= 0 {
			ckt.NetOf[name] = int(n)
		}
	}
	// Both passes read every instance's connectors; derive them once.
	// The second names them "inst.CONN", as flatten labels instances.
	conns := make(map[*core.Instance][]core.InstConn, len(r.top.Instances))
	instConns := func(in *core.Instance) []core.InstConn {
		ics, ok := conns[in]
		if !ok {
			ics = in.Connectors()
			conns[in] = ics
		}
		return ics
	}
	for _, cn := range core.CompositionConnectors(r.top, instConns) {
		set(cn.Name, cn.At, cn.Layer)
	}
	for _, in := range r.top.Instances {
		for _, ic := range instConns(in) {
			set(in.Name+"."+ic.Name, ic.At, ic.Layer)
		}
	}
	r.ckt = ckt
	return ckt, nil
}

// labelNet resolves a label point to its dense composed net via the
// shared lowest-global-fragment resolution (composed and quarantined
// material alike).
func (st *genState) labelNet(p geom.Point, l geom.Layer) int32 {
	if n := st.nodeAt(p, l); n >= 0 {
		return st.netOf[n]
	}
	return -1
}
