package main

// A verdict is the answer a verification command gives, rendered as one
// comparable string: the violation list for DRC, the circuit for
// EXTRACT, the match outcome for LVS. Long parts are folded into a
// digest so a verdict stays small however large the design.

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"riot"
	"riot/internal/core"
	"riot/internal/drc"
	"riot/internal/extract"
	"riot/internal/lvs"
)

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func drcVerdict(vs []drc.Violation) string {
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = v.String()
	}
	return fmt.Sprintf("DRC %d violation(s) %s", len(vs), digest(lines))
}

func extractVerdict(c *extract.Circuit) string {
	lines := make([]string, 0, len(c.Transistors)+len(c.NetOf))
	for _, t := range c.Transistors {
		lines = append(lines, fmt.Sprint(t.Kind, t.Gate, t.A, t.B))
	}
	labels := make([]string, 0, len(c.NetOf))
	for name, n := range c.NetOf {
		labels = append(labels, fmt.Sprint(name, " ", n))
	}
	sort.Strings(labels)
	lines = append(lines, labels...)
	return fmt.Sprintf("EXTRACT %d net(s) %d transistor(s) %d label(s) %s",
		c.NetCount, len(c.Transistors), len(c.NetOf), digest(lines))
}

func lvsVerdict(r *lvs.Result) string {
	mm := make([]string, len(r.Mismatches))
	for i, m := range r.Mismatches {
		mm[i] = m.String()
	}
	return fmt.Sprintf("LVS clean=%v ref %d/%d lay %d/%d %d mismatch(es) %s",
		r.Clean, r.RefNets, r.RefDevices, r.LayNets, r.LayDevices, len(mm), digest(mm))
}

// sessionVerdict asks a riot.Session for the verdict of one
// verification command line ("DRC CHIP", "EXTRACT CHIP", "LVS CHIP").
func sessionVerdict(s *riot.Session, line string) (string, error) {
	verb, cell, _ := strings.Cut(line, " ")
	switch verb {
	case "DRC":
		vs, err := s.CheckDRC(cell)
		if err != nil {
			return "", err
		}
		return drcVerdict(vs), nil
	case "EXTRACT":
		c, err := s.Extract(cell)
		if err != nil {
			return "", err
		}
		return extractVerdict(c), nil
	case "LVS":
		r, err := s.CheckLVS(cell)
		if err != nil {
			return "", err
		}
		return lvsVerdict(r), nil
	}
	return "", fmt.Errorf("perfbench: not a verification command: %q", line)
}

// oracleVerdict is the known answer: the flat from-scratch engines,
// which share no cache with the verification pipeline under test.
// declared are the connections the design's editor retains; the grid
// and array workloads make none, so the flat LVS of the bare cell is
// the editor's verdict.
func oracleVerdict(cell *core.Cell, declared []core.Connection, verb string) (string, error) {
	switch verb {
	case "DRC":
		vs, err := drc.CheckCell(cell)
		if err != nil {
			return "", err
		}
		return drcVerdict(vs), nil
	case "EXTRACT":
		c, err := extract.FromCell(cell)
		if err != nil {
			return "", err
		}
		return extractVerdict(c), nil
	case "LVS":
		if len(declared) != 0 {
			return "", fmt.Errorf("perfbench: %d declared connection(s); the flat cell oracle cannot honour them", len(declared))
		}
		r, err := lvs.CheckCellFlat(cell)
		if err != nil {
			return "", err
		}
		return lvsVerdict(r), nil
	}
	return "", fmt.Errorf("perfbench: unknown verb %q", verb)
}
