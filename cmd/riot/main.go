// Command riot is the interactive chip-assembly tool: a shell speaking
// the textual command language over the current directory, with the
// simulated graphic workstation available for screenshots.
//
// Usage:
//
//	riot                      interactive session on stdin
//	riot -f script.riot       run a command script, then exit
//	riot -c "CMD; CMD; ..."   run commands from the flag, then exit
//	riot -screenshot out.ppm  after the script, render the cell under
//	                          edit through the figure-2 screen layout
//	riot -workstation gigi    use the GIGI configuration (default
//	                          charles)
//	riot -drc CHIP            after the script, design-rule check the
//	                          named cell
//	riot -extract CHIP        after the script, extract the named
//	                          cell's circuit and print a summary
//	riot -lvs CHIP            after the script, compare the named
//	                          cell's extracted netlist against its
//	                          declared composition
//	riot -cache DIR           persist verification caches (flatten
//	                          shards, leaf netlists, LVS and per-cell
//	                          hierarchical certificates) under DIR
//	                          across invocations; defaults to
//	                          $RIOT_CACHE when set
//	riot -stats               after the run, print the unified
//	                          verification statistics (every mode:
//	                          -drc, -extract, -lvs, scripts)
//	riot -stats=json          same content as one machine-readable
//	                          JSON object
//	riot -trace FILE          record the verification pipeline's span
//	                          tree and write it as Chrome trace-event
//	                          JSON (load in chrome://tracing or
//	                          ui.perfetto.dev)
//	riot -faults SPEC         arm deterministic fault-injection points
//	                          (e.g. "cert-pend=SRCELL,store-corrupt:1")
//	                          to exercise the pipeline's degradation
//	                          paths; defaults to $RIOT_FAULTS when set
//	riot -serve               run the multi-session design server: a
//	                          line protocol over stdin (OPEN <sid>
//	                          [<design>], ON <sid> <command...>,
//	                          CLOSE <sid>, SESSIONS, STATS [JSON],
//	                          QUIT) multiplexing editing sessions over
//	                          shared designs and one shared
//	                          verification store; combine with -cache
//	                          to persist it and -stats[=json] for the
//	                          aggregate counters after serving
//
// Exit status distinguishes why a run failed: 0 means every requested
// check passed; 1 means the design failed verification (design-rule
// violations, an LVS mismatch, or a failed extraction); 2 means the
// invocation itself was broken (bad flags, an unreadable script, a
// command error, an unknown cell, an unusable cache directory).
//
// Files are read from and written to the working directory. The
// standard cell library (pads.cif, srcell.sticks, nand.sticks,
// or4.sticks, pipe fittings) is available without any files on disk.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"riot"
	"riot/internal/faultinject"
	"riot/internal/serve"
)

const (
	exitOK     = 0 // requested checks all passed
	exitVerify = 1 // the design failed verification
	exitConfig = 2 // the invocation was broken (flags, files, cells)
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// statsFlag accepts -stats (human-readable text), -stats=json
// (machine-readable) and -stats=false. Declaring IsBoolFlag lets the
// bare form work without swallowing the next argument.
type statsFlag struct {
	on   bool
	json bool
}

func (f *statsFlag) String() string {
	switch {
	case f.on && f.json:
		return "json"
	case f.on:
		return "true"
	}
	return "false"
}

func (f *statsFlag) IsBoolFlag() bool { return true }

func (f *statsFlag) Set(v string) error {
	switch v {
	case "true", "text":
		f.on, f.json = true, false
	case "false":
		f.on, f.json = false, false
	case "json":
		f.on, f.json = true, true
	default:
		return fmt.Errorf("want -stats, -stats=json or -stats=false, got %q", v)
	}
	return nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("riot", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.Usage = func() {
		fmt.Fprintln(stderr, `usage: riot [-f script | -c "CMD; ..."] [-drc CELL] [-extract CELL] [-lvs CELL] [-stats[=json]] [-trace FILE] [-cache DIR] [-screenshot FILE [-workstation charles|gigi]]`)
	}
	script := fl.String("f", "", "command script to run")
	cmds := fl.String("c", "", "semicolon-separated commands to run")
	screenshot := fl.String("screenshot", "", "write a screen image (PPM) after the script")
	station := fl.String("workstation", "charles", "workstation configuration: charles or gigi")
	drcCell := fl.String("drc", "", "design-rule check a cell after the script (exit 1 on violations)")
	extractCell := fl.String("extract", "", "extract a cell's circuit after the script (exit 1 on failure)")
	lvsCell := fl.String("lvs", "", "netlist-compare a cell after the script (exit 1 on mismatch)")
	cacheDir := fl.String("cache", os.Getenv("RIOT_CACHE"), "persistent verification cache directory (default $RIOT_CACHE)")
	var stats statsFlag
	fl.Var(&stats, "stats", "print unified verification statistics after the run (=json: machine-readable)")
	traceFile := fl.String("trace", "", "write the pipeline's span tree as Chrome trace-event JSON to FILE")
	faults := fl.String("faults", os.Getenv("RIOT_FAULTS"), "arm fault-injection points, e.g. \"cert-pend=SRCELL,store-corrupt:1\" (default $RIOT_FAULTS)")
	srv := fl.Bool("serve", false, "run the multi-session design server over stdin (OPEN/ON/CLOSE/SESSIONS/STATS/QUIT)")
	if err := fl.Parse(args); err != nil {
		return exitConfig
	}
	if fl.NArg() > 0 {
		fmt.Fprintf(stderr, "riot: unexpected argument %q (commands go through -f or -c)\n", fl.Arg(0))
		return exitConfig
	}
	if *script != "" && *cmds != "" {
		fmt.Fprintln(stderr, "riot: -f and -c are mutually exclusive")
		return exitConfig
	}
	if *srv {
		if *script != "" || *cmds != "" || *drcCell != "" || *extractCell != "" || *lvsCell != "" || *screenshot != "" {
			fmt.Fprintln(stderr, "riot: -serve takes its commands on stdin (no -f/-c/-drc/-extract/-lvs/-screenshot)")
			return exitConfig
		}
		sv, err := serve.New(serve.Options{
			CacheDir: *cacheDir,
			Log:      func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) },
		})
		if err != nil {
			fmt.Fprintf(stderr, "riot: -serve: %v\n", err)
			return exitConfig
		}
		if err := sv.Serve(stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "riot: -serve: %v\n", err)
			return exitConfig
		}
		if stats.on {
			snap := sv.Snapshot()
			if stats.json {
				fmt.Fprintf(stdout, "%s\n", snap.JSON())
			} else {
				fmt.Fprint(stdout, snap.Text())
			}
		}
		return exitOK
	}

	s, err := riot.NewSession(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "riot: %v\n", err)
		return exitConfig
	}
	// real files behind the in-memory library
	s.Mount(os.DirFS("."))
	s.Shell.WriteFile = func(name string, data []byte) error {
		return os.WriteFile(name, data, 0o644)
	}
	s.Shell.CreateFile = func(name string) (io.WriteCloser, error) {
		return os.Create(name)
	}
	if *faults != "" {
		set, err := faultinject.Parse(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "riot: -faults: %v\n", err)
			return exitConfig
		}
		s.Shell.InjectFaults(set)
	}
	if *cacheDir != "" {
		if err := s.AttachCache(*cacheDir); err != nil {
			fmt.Fprintf(stderr, "riot: cache %s: %v\n", *cacheDir, err)
			return exitConfig
		}
	}
	var trace *riot.Trace
	if *traceFile != "" {
		trace = riot.NewTrace()
		s.SetTrace(trace)
	}

	switch {
	case *script != "":
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintf(stderr, "riot: %v\n", err)
			return exitConfig
		}
		err = s.Run(f) // command errors print and continue; err is the reader's
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "riot: %s: %v\n", *script, err)
			return exitConfig
		}
	case *cmds != "":
		for _, c := range strings.Split(*cmds, ";") {
			if err := s.Exec(strings.TrimSpace(c)); err != nil {
				fmt.Fprintf(stderr, "riot: %v\n", err)
				return exitConfig
			}
		}
	default:
		fmt.Fprintln(stdout, "riot — graphical chip assembly (DAC 1982 reproduction)")
		fmt.Fprintln(stdout, "type HELP for commands, QUIT to leave")
		in := bufio.NewScanner(stdin)
		for !s.Shell.Quit() {
			fmt.Fprint(stdout, "riot> ")
			if !in.Scan() {
				break
			}
			if err := s.Exec(in.Text()); err != nil {
				fmt.Fprintf(stdout, "?%v\n", err)
			}
		}
	}

	// asking to verify a cell that doesn't exist is a broken
	// invocation, not a failing verdict
	missing := func(flagName, name string) bool {
		if _, ok := s.Design().Cell(name); ok {
			return false
		}
		fmt.Fprintf(stderr, "riot: %s: no cell %q in the design\n", flagName, name)
		return true
	}

	code := exitOK
	if *extractCell != "" {
		if missing("-extract", *extractCell) {
			return exitConfig
		}
		ckt, err := s.Extract(*extractCell)
		if err != nil {
			fmt.Fprintf(stderr, "riot: extract %s: %v\n", *extractCell, err)
			code = exitVerify
		} else {
			fmt.Fprintf(stdout, "%s: %d net(s), %d transistor(s), %d label(s)\n",
				*extractCell, ckt.NetCount, len(ckt.Transistors), len(ckt.NetOf))
		}
	}
	if *lvsCell != "" {
		if missing("-lvs", *lvsCell) {
			return exitConfig
		}
		switch res, err := s.CheckLVS(*lvsCell); {
		case err != nil:
			fmt.Fprintf(stderr, "riot: lvs %s: %v\n", *lvsCell, err)
			code = exitVerify
		case !res.Clean:
			for _, mm := range res.Mismatches {
				fmt.Fprintln(stdout, mm)
			}
			fmt.Fprintf(stdout, "%s: %d LVS mismatch(es)\n", *lvsCell, len(res.Mismatches))
			code = exitVerify
		default:
			fmt.Fprintf(stdout, "%s: netlists match (%d nets, %d devices)\n", *lvsCell, res.RefNets, res.RefDevices)
		}
	}
	if *drcCell != "" {
		if missing("-drc", *drcCell) {
			return exitConfig
		}
		// failures exit 1, but only after a requested screenshot is
		// written — the render of the failing layout is what the user
		// wants
		switch vs, err := s.CheckDRC(*drcCell); {
		case err != nil:
			fmt.Fprintf(stderr, "riot: drc %s: %v\n", *drcCell, err)
			code = exitVerify
		case len(vs) > 0:
			for _, v := range vs {
				fmt.Fprintln(stdout, v)
			}
			fmt.Fprintf(stdout, "%s: %d design-rule violation(s)\n", *drcCell, len(vs))
			code = exitVerify
		default:
			fmt.Fprintf(stdout, "%s: no design-rule violations\n", *drcCell)
		}
	}

	if stats.on {
		// -stats with nothing verified is a broken invocation: nothing
		// ran, so every counter would read zero no matter the design
		if !s.Shell.VerifiedAny() {
			fmt.Fprintln(stderr, "riot: -stats: no verification ran (combine with -drc, -extract, -lvs, or a script that verifies)")
			return exitConfig
		}
		snap := s.Snapshot()
		if stats.json {
			fmt.Fprintf(stdout, "%s\n", snap.JSON())
		} else {
			fmt.Fprint(stdout, snap.Text())
		}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "riot: -trace: %v\n", err)
			return exitConfig
		}
		werr := trace.WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "riot: -trace %s: %v\n", *traceFile, werr)
			return exitConfig
		}
	}

	if *screenshot != "" {
		if s.Editor() == nil {
			fmt.Fprintln(stderr, "riot: -screenshot needs a cell under edit at script end")
			return exitConfig
		}
		u, _, err := s.OpenWorkstation(*station)
		if err != nil {
			fmt.Fprintf(stderr, "riot: %v\n", err)
			return exitConfig
		}
		u.ShowNames = true
		if err := u.Screenshot(*screenshot); err != nil {
			fmt.Fprintf(stderr, "riot: screenshot %s: %v\n", *screenshot, err)
			return exitConfig
		}
		fmt.Fprintf(stdout, "screenshot written to %s\n", *screenshot)
	}

	return code
}
