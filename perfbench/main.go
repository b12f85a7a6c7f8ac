// Command perfbench is riot's end-to-end benchmark of the edit–verify
// loop. It drives the program from one in-process load generator
// through its public entry points — riot.Session for CLI-style
// requests, serve.Server for tenants — times what a user waits for,
// and checks every verdict against an independent answer: the flat
// from-scratch engines for array_signoff and edit_loop, a
// single-session replay for serve_tenants.
//
//	perfbench --workload <array_signoff|edit_loop|serve_tenants|all> \
//	    --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics. --trace 1 sends every
// other unit of work through each layer's exported entry point, with a
// span around every call, and reports the per-layer metrics; the units
// in between run as usual and give the untraced times the tracing
// overhead and the layer sums are judged against. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong
// verdict prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// setupReps is how often a run builds its starting state; setup_s is
// the median, so one slow build does not move it.
const setupReps = 3

// overtime bounds how long a timed window may run past its length.
const overtime = 30

// verbs are the three verification commands, in report order.
var verbs = []string{"DRC", "EXTRACT", "LVS"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what one pass of a workload measured.
type run struct {
	// lat holds request-to-verdict times in ms per verification verb;
	// units holds the time of each unit of user work (one CLI run, one
	// edit+verify step, one tenant session) in ms.
	lat   map[string][]float64
	units []float64
	// window is the length of the timed window in seconds.
	window float64
	// setup holds each set-up's duration in seconds.
	setup []float64
	// attempted and failed count the commands sent and those that
	// returned an error (including EDIT lease refusals).
	attempted, failed int
	// wrong lists verdicts that disagreed with the independent answer.
	wrong []string
	// peakMB is the process's peak resident memory at the end of the
	// timed window, before any checking work.
	peakMB float64
	// tr holds the spans and counters of a traced run, nil otherwise;
	// tunits are the times of the units it traced, which lat and units
	// leave out.
	tr     *tracer
	tunits []float64
}

// sample records one untraced request and the unit it ends.
func (r *run) sample(verb string, ms float64) {
	r.lat[verb] = append(r.lat[verb], ms)
	r.units = append(r.units, ms)
}

func newRun() *run { return &run{lat: map[string][]float64{}} }

// more reports whether a timed window that began at t0 goes on: until
// seconds have passed and every verb has a sample, but never more than
// overtime past seconds (a verb whose every command fails).
func (r *run) more(t0 time.Time, seconds float64) bool {
	el := time.Since(t0).Seconds()
	return (el < seconds || len(r.lat) < len(verbs)) && el < seconds+overtime
}

func (r *run) errorf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// workload runs one pass: set up, measure for the given time, check.
// traced selects the layer-by-layer path.
type workload func(seed int64, seconds float64, traced bool, sent *[]string) *run

var workloads = map[string]workload{
	"array_signoff": runSignoff,
	"edit_loop":     runEditLoop,
	"serve_tenants": runTenants,
}

func main() {
	name := flag.String("workload", "", "array_signoff, edit_loop, serve_tenants or all")
	seed := flag.Int64("seed", 1, "seed for the generated requests")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <array_signoff|edit_loop|serve_tenants|all> --seed n --seconds s --trace 0|1\n")
		os.Exit(2)
	}

	var res result
	if *trace == 0 {
		r := w(*seed, *seconds, false, nil)
		res = endToEnd(r)
		report(*name, r)
	} else {
		r := w(*seed, *seconds, true, nil)
		report(*name, r)
		res = perLayer(*name, *seed, r)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload, each in its own process so each peak
// memory figure is its own.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	status := 0
	for _, name := range []string{"array_signoff", "edit_loop", "serve_tenants"} {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// endToEnd assembles the untraced metrics. Every metric is defined on
// every workload; see README.md for what a unit of work is on each.
func endToEnd(r *run) result {
	m := map[string]metric{}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	ms("drc_ms", median(r.lat["DRC"]))
	ms("extract_ms", median(r.lat["EXTRACT"]))
	ms("lvs_ms", median(r.lat["LVS"]))
	ms("drc_p90_ms", p90(r.lat["DRC"]))
	ms("lvs_p90_ms", p90(r.lat["LVS"]))
	ms("session_ms", median(r.units))
	ms("session_p90_ms", p90(r.units))
	m["sessions_per_s"] = metric{0, "1/s"}
	if r.window > 0 {
		m["sessions_per_s"] = metric{float64(len(r.units)) / r.window, "1/s"}
	}
	m["peak_rss_mb"] = metric{r.peakMB, "MB"}
	m["setup_s"] = metric{median(r.setup), "s"}
	return result{Correct: len(r.wrong) == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// report prints the human-readable summary and every wrong verdict.
func report(name string, r *run) {
	fmt.Printf("workload %s: %d unit(s) in %.2fs, %d command(s), %d failed\n",
		name, len(r.units), r.window, r.attempted, r.failed)
	for _, v := range verbs {
		s := r.lat[v]
		fmt.Printf("  %-8s n=%-5d median %8.2f ms  p90 %8.2f ms\n", v, len(s), median(s), p90(s))
	}
	fmt.Printf("  %-8s n=%-5d median %8.2f ms  p90 %8.2f ms\n", "unit", len(r.units), median(r.units), p90(r.units))
	fmt.Printf("  setup %v s, peak rss %.1f MB\n", r.setup, r.peakMB)
	for _, w := range r.wrong {
		fmt.Printf("  WRONG: %s\n", w)
	}
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p90 is the nearest-rank 90th percentile; 0 for no samples.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[int(math.Ceil(0.9*float64(len(s))))-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
