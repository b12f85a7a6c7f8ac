package flatten

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/geom"
	"riot/internal/obs"
)

// This file is the caching half of the package: a Cache memoizes the
// flattened shard of every top-level instance of a composition, keyed
// on the instance's placement parameters, so re-flattening after an
// edit only walks the instances that changed and splices the rest.
// The spliced Result is byte-identical to a from-scratch Cell walk —
// the shards are exactly the per-instance segments that walk would
// emit, concatenated in instance order with the occurrence ids
// renumbered — so every consumer (extractor, DRC, LVS) sees the same
// input either way.

// instKey is the placement snapshot a cached shard is valid for: the
// defining cell (by identity — STRETCH swaps the pointer) and the
// full placement/replication state. Mutations inside the defining
// cell's object are outside the editor contract and must be announced
// with Editor.Invalidate.
type instKey struct {
	cell           *core.Cell
	tr             geom.Transform
	nx, ny, sx, sy int
}

func keyOf(in *core.Instance) instKey {
	return instKey{cell: in.Cell, tr: in.Tr, nx: in.Nx, ny: in.Ny, sx: in.Sx, sy: in.Sy}
}

// shard is one instance's flattened geometry with shard-local
// occurrence ids (Shape.Src counts from 0), plus its resolved
// connector labels.
type shard struct {
	shapes   []Shape
	devices  []Device
	joins    []Join
	srcBoxes []geom.Rect
	srcCells []*core.Cell
	srcN     int
	labels   []NamedLabel
}

// Cache memoizes per-instance flatten shards for one composition cell
// across edits. The zero Cache is ready to use; a Cache serves one
// cell at a time (Flatten resets it when the cell changes lineage —
// snapshot clones of the same design cell share their shards, which is
// what keeps the splice warm across frozen generations). A Cache
// belongs to one session: Flatten rejects concurrent entry rather than
// corrupt its pointer-keyed maps — cross-session sharing goes through
// the content-addressed store (AttachDisk), never through a Cache.
type Cache struct {
	// Trace, when enabled, records a "flatten" span per Flatten call
	// with one "shard <inst>" child per re-flattened instance and a
	// "splice" child for the assembly; nil (the default) records
	// nothing and costs nothing. Survives Reset — it is wiring, not
	// cached state.
	Trace *obs.Trace

	cell   *core.Cell
	shards map[*core.Instance]cachedShard
	conns  map[*core.Instance]cachedConns

	// optional persistent second level (AttachDisk): shards missing
	// in memory are looked up by content signature before re-walking
	disk   castore.Blob
	signer *castore.Signer

	// busy guards against concurrent Flatten calls; a plain int32 with
	// atomic access (not atomic.Int32) keeps the struct copyable for
	// embedders like verify.Verifier.
	busy int32

	// last run's shard accounting, for Stats
	lastReused, lastReflattened, lastDiskLoaded int
}

// Stats reports, for the most recent Flatten call, how many instance
// shards were reused from the cache and how many re-flattened. A burst
// of edits between two Flatten calls coalesces: only the instances an
// edit actually touched re-flatten, however many edits accumulated
// (the batched-edit test asserts exactly this).
func (ca *Cache) Stats() (reused, reflattened int) {
	return ca.lastReused, ca.lastReflattened
}

type cachedShard struct {
	key instKey
	sh  *shard
}

type cachedConns struct {
	key  instKey
	list []core.InstConn
}

// instConns is the memoized per-instance connector provider the
// composition-connector assembly uses: an instance's transformed
// connector list only changes when its placement does.
func (ca *Cache) instConns(in *core.Instance) []core.InstConn {
	key := keyOf(in)
	if ent, ok := ca.conns[in]; ok && ent.key == key {
		return ent.list
	}
	list := in.Connectors()
	ca.conns[in] = cachedConns{key: key, list: list}
	return list
}

// Flatten flattens the cell like Cell, reusing every unchanged
// instance's cached shard.
func (ca *Cache) Flatten(c *core.Cell) (*Result, error) {
	if !atomic.CompareAndSwapInt32(&ca.busy, 0, 1) {
		return nil, fmt.Errorf("flatten: Cache entered concurrently (a Cache serves one session; share work across sessions through the content-addressed store)")
	}
	defer atomic.StoreInt32(&ca.busy, 0)
	fsp := ca.Trace.Begin("flatten")
	defer fsp.End()
	if c.Kind != core.Composition {
		// leaves have no instance list to splice; full walk
		fr, err := Cell(c, Options{})
		ca.reset()
		return fr, err
	}
	if ca.cell == nil || ca.cell.Origin() != c.Origin() {
		ca.reset()
	}
	ca.cell = c
	if ca.shards == nil {
		ca.shards = map[*core.Instance]cachedShard{}
	}
	if ca.conns == nil {
		ca.conns = map[*core.Instance]cachedConns{}
	}

	shards := make([]*shard, len(c.Instances))
	ca.lastReused, ca.lastReflattened, ca.lastDiskLoaded = 0, 0, 0
	for i, in := range c.Instances {
		key := keyOf(in)
		if ent, ok := ca.shards[in]; ok && ent.key == key {
			shards[i] = ent.sh
			ca.lastReused++
			continue
		}
		if sh := ca.diskLoad(in); sh != nil {
			shards[i] = sh
			ca.shards[in] = cachedShard{key: key, sh: sh}
			ca.lastDiskLoaded++
			continue
		}
		var ssp *obs.Span
		if fsp != nil {
			ssp = fsp.Child("shard " + in.Name)
		}
		sh, err := flattenInstance(in)
		ssp.End()
		if err != nil {
			return nil, err
		}
		shards[i] = sh
		ca.shards[in] = cachedShard{key: key, sh: sh}
		ca.lastReflattened++
		ca.diskStore(in, sh)
	}
	ssp := fsp.Child("splice")

	// splice the shards in instance order, renumbering occurrence ids
	// into the walk-global sequence — exactly the from-scratch walk's
	// output. Totals are known up front, so every slice allocates once.
	var nShapes, nDev, nJoins, nSrc, nLab int
	for _, sh := range shards {
		nShapes += len(sh.shapes)
		nDev += len(sh.devices)
		nJoins += len(sh.joins)
		nSrc += len(sh.srcBoxes)
		nLab += len(sh.labels)
	}
	res := &Result{
		Shapes:   make([]Shape, 0, nShapes),
		Devices:  make([]Device, 0, nDev),
		Joins:    make([]Join, 0, nJoins),
		SrcBoxes: make([]geom.Rect, 0, nSrc),
		SrcCells: make([]*core.Cell, 0, nSrc),
		Labels:   make([]NamedLabel, 0, nLab+16),
	}
	srcBase := 0
	for _, sh := range shards {
		for _, s := range sh.shapes {
			s.Src += srcBase
			res.Shapes = append(res.Shapes, s)
		}
		for _, d := range sh.devices {
			d.Src += srcBase
			res.Devices = append(res.Devices, d)
		}
		res.Joins = append(res.Joins, sh.joins...)
		res.SrcBoxes = append(res.SrcBoxes, sh.srcBoxes...)
		res.SrcCells = append(res.SrcCells, sh.srcCells...)
		srcBase += sh.srcN
	}
	for _, cn := range core.CompositionConnectors(c, ca.instConns) {
		res.Labels = append(res.Labels, NamedLabel{cn.Name, Label{cn.At, cn.Layer}})
	}
	for i := range c.Instances {
		res.Labels = append(res.Labels, shards[i].labels...)
	}

	// prune cache entries for instances no longer present; every live
	// instance now has a shard entry, so only a larger map holds stale
	// ones (connector entries are made and pruned alongside shards)
	if len(ca.shards) > len(c.Instances) {
		live := make(map[*core.Instance]bool, len(c.Instances))
		for _, in := range c.Instances {
			live[in] = true
		}
		for in := range ca.shards {
			if !live[in] {
				delete(ca.shards, in)
			}
		}
		for in := range ca.conns {
			if !live[in] {
				delete(ca.conns, in)
			}
		}
	}
	ssp.End()
	if fsp != nil {
		fsp.Note("reused", strconv.Itoa(ca.lastReused))
		fsp.Note("reflattened", strconv.Itoa(ca.lastReflattened))
		fsp.Note("disk", strconv.Itoa(ca.lastDiskLoaded))
	}
	return res, nil
}

// Reset drops all cached state. Callers must Reset when cells inside
// the composition were mutated outside the editor's knowledge
// (Editor.Invalidate reports that condition): the per-instance
// placement keys cannot see such changes.
func (ca *Cache) Reset() { ca.reset() }

// reset drops all cached state. The signer keeps its leaf memo: its
// entries are revision-checked, so an Invalidate (which stamps fresh
// revisions on every reachable cell) makes them recompute on their
// own — important now that a server shares one Signer across sessions.
// Store entries stay too; their content keys re-derive from the fresh
// signatures.
func (ca *Cache) reset() {
	ca.cell, ca.shards, ca.conns = nil, nil, nil
}

// flattenInstance walks one instance into a fresh shard with
// shard-local occurrence ids (the parallel array fan-out applies, as
// in the full walk), resolving its connector labels alongside.
func flattenInstance(in *core.Instance) (*shard, error) {
	b := &builder{}
	if err := b.instance(in, geom.Identity); err != nil {
		return nil, err
	}
	return &shard{
		shapes:   b.shapes,
		devices:  b.devices,
		joins:    b.joins,
		srcBoxes: b.srcBoxes,
		srcCells: b.srcCells,
		srcN:     b.srcN,
		labels:   instanceLabels(in),
	}, nil
}
