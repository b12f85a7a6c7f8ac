package main

// The traced pass times every call the benchmark makes into a layer's
// exported entry point and counts the work those calls report. Spans
// stay in memory until the pass ends; nothing is traced inside the
// program itself.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"riot/internal/hier"
)

type span struct {
	Unit  int64   `json:"unit"`
	Layer string  `json:"layer"`
	Start float64 `json:"start_ms"`
	Dur   float64 `json:"dur_ms"`
}

// tracer records spans and work counters; safe for concurrent use.
type tracer struct {
	t0    time.Time
	units atomic.Int64
	mu    sync.Mutex
	spans []span
	count map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), count: map[string]float64{}} }

// unit starts a new unit of user work and returns its id.
func (t *tracer) unit() int64 { return t.units.Add(1) }

// call runs f as one call into layer on behalf of unit.
func (t *tracer) call(unit int64, layer string, f func()) {
	start := time.Now()
	f()
	s := span{Unit: unit, Layer: layer, Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e6, Dur: msSince(start)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.count[name] += v
	t.mu.Unlock()
}

// addHier adds the engine work done between two counter readings.
func (t *tracer) addHier(before, after hier.Stats) {
	t.add("hier.runs", float64(after.Runs-before.Runs))
	t.add("hier.fast", float64(after.FastRuns-before.FastRuns))
	t.add("hier.built", float64(after.CertBuilt-before.CertBuilt))
	t.add("hier.reused", float64(after.CertMemoHits-before.CertMemoHits+after.CertDiskHits-before.CertDiskHits))
	t.add("hier.fallbacks", float64(after.Fallbacks-before.Fallbacks+after.Quarantined-before.Quarantined))
}

// durations returns every span duration of one layer, in ms.
func (t *tracer) durations(layer string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, s.Dur)
		}
	}
	return out
}

// writeSpans saves the spans as JSON, one object per line, when the
// PERFBENCH_SPANS directory is set (run.sh points it into the build
// directory).
func (t *tracer) writeSpans(workload string, seed int64) error {
	dir := os.Getenv("PERFBENCH_SPANS")
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerMetric is one per-layer metric: the workloads on which calls
// into its layer must happen, the counter that counts those calls (for
// a time, the spans), and the end-to-end metric it should move.
type layerMetric struct {
	Name, Unit string
	Workloads  []string
	Calls      string
	Moves      string
}

const (
	wSignoff = "array_signoff"
	wEdit    = "edit_loop"
	wTenants = "serve_tenants"
)

// serveVerbs are the commands a tenant session sends.
var serveVerbs = []string{"EDIT", "DELETE", "CREATE", "LVS", "MOVE", "ORIENT", "DRC", "EXTRACT"}

// layerMetrics is the layer → end-to-end map. A metric listed with no
// workload is expected to stay 0 (a fallback, a refusal).
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"core.edit_ms", "ms", []string{wSignoff, wEdit}, "", "drc_ms, lvs_ms on edit_loop"},
		{"core.snapshot_ms", "ms", []string{wSignoff, wEdit}, "", "drc_ms on edit_loop"},
		{"hier.verify_ms", "ms", []string{wSignoff, wEdit}, "", "drc_ms on edit_loop (compose); small on array_signoff"},
		{"hier.fast_ratio", "ratio", []string{wSignoff}, "hier.runs", "drc_ms on array_signoff"},
		{"hier.cert_built", "count", []string{wTenants}, "hier.runs", "session_ms on serve_tenants"},
		{"hier.cert_reuse_ratio", "ratio", []string{wTenants}, "hier.runs", "session_ms on serve_tenants"},
		{"hier.fallbacks", "count", nil, "", "drc_ms on every workload (expected 0)"},
		{"verify.materialize_ms", "ms", []string{wSignoff, wEdit}, "", "drc_ms on array_signoff and edit_loop"},
		{"verify.run_ms", "ms", []string{wSignoff, wEdit}, "", "lvs_ms on array_signoff and edit_loop"},
		{"verify.materialized_devices", "count", []string{wSignoff}, "verify.built", "drc_ms, peak_rss_mb on array_signoff"},
		{"verify.circuit_use_ratio", "ratio", []string{wSignoff}, "verify.built", "drc_ms, peak_rss_mb on array_signoff"},
		{"flatten.ensure_ms", "ms", []string{wSignoff, wEdit}, "", "lvs_ms on array_signoff and edit_loop"},
		{"flatten.reused", "count", []string{wEdit}, "flatten.calls", "lvs_ms on edit_loop"},
		{"flatten.reflattened", "count", []string{wEdit}, "flatten.calls", "lvs_ms on edit_loop"},
		{"lvs.reference_ms", "ms", []string{wSignoff}, "", "lvs_ms on array_signoff"},
		{"lvs.match_ms", "ms", []string{wSignoff, wEdit}, "", "lvs_ms on array_signoff and edit_loop"},
		{"lvs.cert_matched", "count", []string{wTenants}, "lvs.calls", "lvs_ms, session_ms on serve_tenants"},
		{"lvs.cert_reused", "count", []string{wTenants}, "lvs.calls", "lvs_ms, session_ms on serve_tenants"},
		{"castore.hit_ratio", "ratio", []string{wTenants}, "castore.lookups", "session_ms, peak_rss_mb on serve_tenants"},
		{"castore.bytes", "bytes", []string{wTenants}, "castore.lookups", "session_ms, peak_rss_mb on serve_tenants"},
		{"serve.open_ms", "ms", []string{wTenants}, "", "session_ms on serve_tenants"},
		{"serve.close_ms", "ms", []string{wTenants}, "", "session_ms on serve_tenants"},
	}
	for _, v := range serveVerbs {
		ms = append(ms, layerMetric{"serve.do_ms." + v, "ms", []string{wTenants}, "", "session_ms on serve_tenants"})
	}
	return append(ms,
		layerMetric{"serve.lease_refused", "count", nil, "", "failed ops on serve_tenants (expected 0)"},
		layerMetric{"trace.overhead_ratio", "ratio", nil, "", "traced ÷ untraced session_ms, minus 1"},
		layerMetric{"trace.layer_share", "ratio", nil, "", "summed layer time ÷ untraced session_ms"},
		layerMetric{"trace.flags", "count", nil, "", "consistency checks that failed (expected 0)"},
	)
}()

// layerShareBound is how far the summed layer times may sit from the
// untraced unit time before the pass is flagged.
const layerShareBound = 0.25

// perLayer assembles the per-layer metrics of a traced run and flags
// inconsistencies.
func perLayer(workload string, seed int64, r *run) result {
	t := r.tr
	if t == nil { // set-up failed before tracing began
		t = newTracer()
	}
	n := float64(len(r.tunits))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := t.count
	vals := map[string]float64{
		"hier.fast_ratio":             ratio(c["hier.fast"], c["hier.runs"]),
		"hier.cert_built":             ratio(c["hier.built"], n),
		"hier.cert_reuse_ratio":       ratio(c["hier.reused"], c["hier.built"]+c["hier.reused"]),
		"hier.fallbacks":              c["hier.fallbacks"],
		"verify.materialized_devices": ratio(c["verify.devices"], c["verify.built"]),
		"verify.circuit_use_ratio":    ratio(c["verify.read"], c["verify.built"]),
		"flatten.reused":              ratio(c["flatten.reused"], c["flatten.calls"]),
		"flatten.reflattened":         ratio(c["flatten.reflattened"], c["flatten.calls"]),
		"lvs.cert_matched":            ratio(c["lvs.matched"], c["lvs.calls"]),
		"lvs.cert_reused":             ratio(c["lvs.reused"], c["lvs.calls"]),
		"castore.hit_ratio":           ratio(c["castore.hits"], c["castore.hits"]+c["castore.misses"]),
		"castore.bytes":               c["castore.bytes"],
		"serve.lease_refused":         c["serve.lease_refused"],
	}
	calls := map[string]int{}
	for _, lm := range layerMetrics {
		layer, ok := strings.CutSuffix(lm.Name, "_ms")
		if l, verb, isDo := strings.Cut(lm.Name, "_ms."); isDo {
			layer, ok = l+"."+verb, true
		}
		if ok {
			d := t.durations(layer)
			vals[lm.Name], calls[lm.Name] = median(d), len(d)
		} else {
			calls[lm.Name] = int(c[lm.Calls])
		}
	}

	// per unit, the time its layer calls account for
	covered := map[int64]float64{}
	for _, s := range t.spans {
		covered[s.Unit] += s.Dur
	}
	var sums []float64
	for _, v := range covered {
		sums = append(sums, v)
	}
	base := median(r.units)
	vals["trace.overhead_ratio"] = ratio(median(r.tunits), base) - 1
	vals["trace.layer_share"] = ratio(median(sums), base)

	var flags []string
	for _, lm := range layerMetrics {
		for _, w := range lm.Workloads {
			if w == workload && calls[lm.Name] == 0 {
				flags = append(flags, fmt.Sprintf("%s: no calls on %s", lm.Name, workload))
			}
		}
	}
	if share := vals["trace.layer_share"]; share < 1-layerShareBound || share > 1+layerShareBound {
		flags = append(flags, fmt.Sprintf("layer times add up to %.2f of the untraced session_ms (%.2f ms)", share, base))
	}
	for _, name := range []string{"hier.fallbacks", "serve.lease_refused"} {
		if vals[name] != 0 {
			flags = append(flags, fmt.Sprintf("%s = %v, expected 0", name, vals[name]))
		}
	}
	vals["trace.flags"] = float64(len(flags))

	m := map[string]metric{}
	fmt.Printf("per-layer metrics (%s, %d traced unit(s)):\n", workload, len(r.tunits))
	for _, lm := range layerMetrics {
		m[lm.Name] = metric{vals[lm.Name], lm.Unit}
		fmt.Printf("  %-28s %12.4f %-6s moves %s\n", lm.Name, vals[lm.Name], lm.Unit, lm.Moves)
	}
	fmt.Printf("  tracing overhead: untraced session %.2f ms, traced %.2f ms\n", base, median(r.tunits))
	for _, f := range flags {
		fmt.Printf("  FLAG: %s\n", f)
	}
	if err := t.writeSpans(workload, seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	return result{Correct: len(r.wrong) == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}
