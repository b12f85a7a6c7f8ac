// Package shell implements Riot's textual command interface: "accessed
// with the keyboard, [it] is used primarily to modify the editing
// environment. Textual commands store and retrieve cells on disk, set
// plotting parameters, generate hardcopy plots of cells, set defaults
// for routing operations, and invoke the graphical command editor to
// modify a composition cell."
//
// In this reproduction the same command language also expresses the
// graphical editing operations (the ui package maps pointer gestures
// onto these commands), which makes the shell the natural journal
// format for REPLAY: every mutating command is recorded and can be
// re-run.
//
// Coordinates in shell commands are in lambda; the shell converts to
// the centimicron units the composition core uses.
package shell

import (
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/faultinject"
	"riot/internal/lvs"
	"riot/internal/obs"
	"riot/internal/replay"
	"riot/internal/rules"
	"riot/internal/verify"
)

// Shell interprets the textual command language over one design.
type Shell struct {
	Design *core.Design
	Editor *core.Editor // nil when no cell is under edit
	Out    io.Writer

	// Verifier caches whole-design verification (EXTRACT, DRC, LVS)
	// across edits, keyed on the editor's generation: re-running any of
	// the commands after a small edit recomposes per-cell certificates
	// instead of recomputing the design.
	Verifier verify.Verifier

	// LVS holds the netlist-comparison caches (memoized leaf-cell
	// reference netlists, the last verdict); the layout side comes from
	// the shared Verifier, so LVS after DRC re-extracts nothing.
	LVS lvs.Incremental

	// Cache is the persistent verification store attached with
	// AttachCache, nil when the session runs on in-memory caches only.
	Cache *castore.Store

	// Faults is the session's fault-injection set (nil = disarmed),
	// wired with InjectFaults; LVS -stats reports its fire counts.
	Faults *faultinject.Set

	// FS resolves READ and REPLAY file names; WriteFile stores WRITE
	// and SAVEJOURNAL output. Both must be provided (tests use maps,
	// cmd/riot wires the OS).
	FS        fs.FS
	WriteFile func(name string, data []byte) error

	// CreateFile, when set, opens a streaming sink for bulk output:
	// WRITECIF streams mask geometry straight to it instead of
	// buffering the whole file through WriteFile. cmd/riot wires
	// os.Create; when nil the shell falls back to WriteFile.
	CreateFile func(name string) (io.WriteCloser, error)

	// Plot renders a cell to a plotter file; wired by the caller once
	// a display stack exists (keeps shell independent of graphics).
	Plot func(cell *core.Cell, file string) error

	Journal *replay.Journal

	// Guard, when set, is the shared-design lock a server installs:
	// Exec takes it exclusively around mutating commands and shared for
	// just long enough to freeze a snapshot for verifying commands (the
	// verification itself runs against the immutable snapshot, outside
	// the lock, so one session's long DRC never blocks another's edits).
	// nil — the default, every single-user surface — costs nothing.
	Guard *sync.RWMutex

	// reg is the unified stats registry every surface (STATS, riot
	// -stats, Session.Snapshot) renders from; trace is the session's
	// span recorder, nil unless SetTrace wired one.
	reg   *obs.Registry
	trace *obs.Trace

	quit bool
}

// New returns a shell over a fresh design. DRC, EXTRACT and LVS verify
// per-distinct-cell certificates instead of flattened copies whenever
// the hierarchical engine can prove the verdict identical (and fall
// back silently to a flat run when it can't).
func New(out io.Writer) *Shell {
	s := &Shell{
		Design:  core.NewDesign(),
		Out:     out,
		Journal: replay.New(),
	}
	s.initRegistry()
	return s
}

// Quit reports whether the QUIT command has run.
func (s *Shell) Quit() bool { return s.quit }

// AttachCache opens (creating if needed) the persistent verification
// store rooted at dir and wires it under the verifier's flatten cache
// and both LVS memos, so flatten shards, leaf reference netlists and
// sub-cell match certificates survive across processes. Corrupt,
// truncated or version-skewed entries are quarantined and recomputed
// cold (the store logs each through the shell output); verdicts are
// identical to cache-free runs either way.
func (s *Shell) AttachCache(dir string) error {
	st, err := castore.Open(dir)
	if err != nil {
		return err
	}
	st.Log = func(format string, args ...any) { s.printf(format+"\n", args...) }
	st.Faults = s.Faults
	st.Trace = s.trace
	s.Cache = st
	s.LVS.AttachDisk(st, &castore.Signer{}, &s.Verifier)
	return nil
}

// AttachStore wires a prebuilt content-addressed store — typically a
// server's shared in-memory tier layered over one on-disk store — plus
// a shared signer under the session's caches. Unlike AttachCache it
// opens nothing and takes no ownership: many sessions attach the same
// store and signer, and any session deriving a verification artifact
// warms every other.
func (s *Shell) AttachStore(b castore.Blob, sg *castore.Signer) {
	s.LVS.AttachDisk(b, sg, &s.Verifier)
}

// InjectFaults arms the whole pipeline with a fault-injection set
// (nil disarms): the hierarchical engine's degradation edges and the
// persistent store's corruption path. Order-independent with
// AttachCache — whichever runs second picks the set up.
func (s *Shell) InjectFaults(f *faultinject.Set) {
	s.Faults = f
	s.Verifier.InjectFaults(f)
	if s.Cache != nil {
		s.Cache.Faults = f
	}
}

func (s *Shell) printf(format string, args ...any) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, format, args...)
	}
}

// Exec parses and executes one command line. Comment lines (#) and
// blanks are ignored. Successful mutating commands are recorded in the
// journal.
func (s *Shell) Exec(line string) error {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return nil
	}
	fields := strings.Fields(trimmed)
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]

	spec, ok := commands[cmd]
	if !ok {
		return fmt.Errorf("shell: unknown command %q (try HELP)", cmd)
	}
	// Commands marked concurrent freeze their own snapshot under the
	// shared-design read lock (see snapTarget) and verify outside it;
	// everything else — mutations, file IO against session state —
	// holds the design exclusively for the command's duration.
	var err error
	if s.Guard != nil && !spec.concurrent {
		s.Guard.Lock()
		if spec.needsEditor && s.Editor == nil {
			err = fmt.Errorf("shell: %s needs a cell under edit (use EDIT <cell>)", cmd)
		} else {
			err = spec.run(s, args)
		}
		s.Guard.Unlock()
	} else {
		if spec.needsEditor && s.Editor == nil {
			return fmt.Errorf("shell: %s needs a cell under edit (use EDIT <cell>)", cmd)
		}
		err = spec.run(s, args)
	}
	if err != nil {
		return err
	}
	if spec.mutating && s.Journal != nil {
		s.Journal.Record(trimmed)
	}
	return nil
}

// Run executes commands from r until EOF or QUIT. Errors are printed,
// not fatal — like the interactive tool.
func (s *Shell) Run(r io.Reader) error {
	sc := newLineScanner(r)
	for !s.quit && sc.Scan() {
		if err := s.Exec(sc.Text()); err != nil {
			s.printf("?%v\n", err)
		}
	}
	return sc.Err()
}

// ExecAll executes a batch of commands, failing fast. Used by
// programmatic callers and tests.
func (s *Shell) ExecAll(lines ...string) error {
	for _, l := range lines {
		if err := s.Exec(l); err != nil {
			return err
		}
	}
	return nil
}

type command struct {
	usage       string
	help        string
	mutating    bool
	needsEditor bool
	// concurrent marks commands that manage the shared-design Guard
	// themselves (verification: they freeze a snapshot under a brief
	// read lock, then work lock-free) or touch only session-local state
	// (STATS). Exec runs everything else under the exclusive lock.
	concurrent bool
	run        func(s *Shell, args []string) error
}

var commands map[string]command

func init() {
	commands = map[string]command{
		"HELP":        {usage: "HELP", help: "list commands", run: cmdHelp},
		"READ":        {usage: "READ <file>", help: "read a CIF, Sticks or composition file", mutating: true, run: cmdRead},
		"WRITE":       {usage: "WRITE <file>", help: "save the design in composition format", run: cmdWrite},
		"WRITECIF":    {usage: "WRITECIF <file> <cell>", help: "convert a cell to CIF for mask generation", run: cmdWriteCIF},
		"WRITESTICKS": {usage: "WRITESTICKS <file> <cell>", help: "write a symbolic cell as Sticks (for simulation)", run: cmdWriteSticks},
		"CELLS":       {usage: "CELLS", help: "list the cell menu", run: cmdCells},
		"SHOW":        {usage: "SHOW <cell>", help: "describe a cell", run: cmdShow},
		"DELCELL":     {usage: "DELCELL <cell>", help: "delete a cell", mutating: true, run: cmdDelCell},
		"RENAME":      {usage: "RENAME <old> <new>", help: "rename a cell", mutating: true, run: cmdRename},
		"EDIT":        {usage: "EDIT <cell>", help: "open a composition cell in the editor (creates it if new)", mutating: true, run: cmdEdit},
		"ENDEDIT":     {usage: "ENDEDIT", help: "close the editor", mutating: true, run: cmdEndEdit},
		"CREATE":      {usage: "CREATE <cell> [<inst>] [AT x y] [ORIENT o] [ARRAY nx ny [sx sy]]", help: "create an instance", mutating: true, needsEditor: true, run: cmdCreate},
		"MOVE":        {usage: "MOVE <inst> <dx> <dy>", help: "move an instance (lambda)", mutating: true, needsEditor: true, run: cmdMove},
		"PLACE":       {usage: "PLACE <inst> <x> <y>", help: "place an instance absolutely (lambda)", mutating: true, needsEditor: true, run: cmdPlace},
		"ORIENT":      {usage: "ORIENT <inst> <R0|R90|R180|R270|MX|MXR90|MXR180|MXR270>", help: "re-orient an instance in place", mutating: true, needsEditor: true, run: cmdOrient},
		"REPLICATE":   {usage: "REPLICATE <inst> <nx> <ny> [sx sy]", help: "array-replicate an instance", mutating: true, needsEditor: true, run: cmdReplicate},
		"DELETE":      {usage: "DELETE <inst>", help: "delete an instance", mutating: true, needsEditor: true, run: cmdDelete},
		"CONNECT":     {usage: "CONNECT <inst>.<conn> <inst>.<conn>", help: "add a pending connection (from -> to)", mutating: true, needsEditor: true, run: cmdConnect},
		"ABUTLINK":    {usage: "ABUTLINK <from> <to>", help: "add a pending pure-abutment link", mutating: true, needsEditor: true, run: cmdAbutLink},
		"BUS":         {usage: "BUS <from> <to>", help: "add pending connections for every facing connector pair", mutating: true, needsEditor: true, run: cmdBus},
		"CONNECTIONS": {usage: "CONNECTIONS", help: "list pending connections", needsEditor: true, run: cmdConnections},
		"UNCONNECT":   {usage: "UNCONNECT <index>", help: "delete a pending connection", mutating: true, needsEditor: true, run: cmdUnconnect},
		"CLEAR":       {usage: "CLEAR", help: "clear the pending connection list", mutating: true, needsEditor: true, run: cmdClear},
		"ABUT":        {usage: "ABUT [OVERLAP]", help: "connect by abutment", mutating: true, needsEditor: true, run: cmdAbut},
		"ROUTE":       {usage: "ROUTE [NOMOVE]", help: "connect by river routing", mutating: true, needsEditor: true, run: cmdRoute},
		"STRETCH":     {usage: "STRETCH", help: "connect by stretching the from instance", mutating: true, needsEditor: true, run: cmdStretch},
		"BRINGOUT":    {usage: "BRINGOUT <inst> <side> <conn>...", help: "route connectors out to the cell edge", mutating: true, needsEditor: true, run: cmdBringOut},
		"SET":         {usage: "SET TRACKS <n>", help: "set routing defaults", mutating: true, run: cmdSet},
		"STATS":       {usage: "STATS [JSON]", help: "print unified verification statistics (JSON: machine-readable)", concurrent: true, run: cmdStats},
		"DRC":         {usage: "DRC [<cell>]", help: "check width and spacing design rules on a cell", concurrent: true, run: cmdDRC},
		"EXTRACT":     {usage: "EXTRACT [<cell>]", help: "extract a cell's transistor-level circuit", concurrent: true, run: cmdExtract},
		"LVS":         {usage: "LVS [-stats] [<cell>]", help: "compare the extracted netlist against the declared composition (-stats: certificate accounting)", concurrent: true, run: cmdLVS},
		"PLOT":        {usage: "PLOT <file> [<cell>]", help: "produce a hardcopy plot", run: cmdPlot},
		"REPLAY":      {usage: "REPLAY <file>", help: "re-run a saved journal", run: cmdReplay},
		"SAVEJOURNAL": {usage: "SAVEJOURNAL <file>", help: "save the session journal", run: cmdSaveJournal},
		"QUIT":        {usage: "QUIT", help: "leave riot", run: cmdQuit},
	}
}

func cmdHelp(s *Shell, args []string) error {
	names := make([]string, 0, len(commands))
	for n := range commands {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := commands[n]
		s.printf("%-60s %s\n", c.usage, c.help)
	}
	return nil
}

func cmdQuit(s *Shell, args []string) error {
	s.quit = true
	return nil
}

// lam converts a lambda-denominated argument to centimicrons.
func lam(v int) int { return v * rules.Lambda }

func argInt(args []string, i int) (int, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("shell: missing argument %d", i+1)
	}
	v, err := strconv.Atoi(args[i])
	if err != nil {
		return 0, fmt.Errorf("shell: bad integer %q", args[i])
	}
	return v, nil
}

func (s *Shell) instance(name string) (*core.Instance, error) {
	in, ok := s.Editor.Cell.InstanceByName(name)
	if !ok {
		return nil, fmt.Errorf("shell: no instance %q in %q", name, s.Editor.Cell.Name)
	}
	return in, nil
}

// splitConnRef splits "inst.conn" at the FIRST dot; connector names may
// themselves contain dots (composition exports like "g1.OUT"), so the
// remainder after the first dot is the connector name.
func splitConnRef(ref string) (inst, conn string, err error) {
	i := strings.IndexByte(ref, '.')
	if i <= 0 || i == len(ref)-1 {
		return "", "", fmt.Errorf("shell: connector reference %q must be <inst>.<conn>", ref)
	}
	return ref[:i], ref[i+1:], nil
}
