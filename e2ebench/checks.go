package main

import (
	"bytes"
	"fmt"
	"time"

	"flowdiff"
	"flowdiff/internal/serve"
)

// The checks compare the program's outputs with facts it did not
// compute: the injected fault's ground truth, the self-diff property,
// the benchmark's own event counts, the report grid and sequence, and
// a fresh offline Monitor. Each returns nil when the output holds.

// checkTruthFirst requires the ground-truth component to rank first
// among the report's suspects.
func checkTruthFirst(rep flowdiff.Report, truth string) error {
	if len(rep.Suspects) == 0 {
		return fmt.Errorf("no suspects; want %s first", truth)
	}
	if got := rep.Suspects[0].Component; got != truth {
		return fmt.Errorf("suspect ranked first is %s; want %s", got, truth)
	}
	return nil
}

// checkAlarmed requires at least one unexplained change.
func checkAlarmed(rep flowdiff.Report) error {
	if len(rep.Unknown) == 0 {
		return fmt.Errorf("no unexplained change in a faulty capture")
	}
	return nil
}

// checkNoChange requires an empty diff: a log compared with itself
// cannot change.
func checkNoChange(rep flowdiff.Report) error {
	if n := len(rep.Known) + len(rep.Unknown); n > 0 {
		c := append(rep.Known, rep.Unknown...)[0]
		return fmt.Errorf("self-diff reports %d changes, first %q", n, c.Description)
	}
	return nil
}

// checkSameBytes requires two serializations to be byte-identical.
func checkSameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s differs at byte %d of %d (want %d bytes)", what, i, len(got), len(want))
}

// checkCount requires the events a query delivered to equal the
// benchmark's own count over the in-memory capture.
func checkCount(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s delivered %d events; the capture holds %d", what, got, want)
	}
	return nil
}

// outOfSetChange returns the first unexplained change that names none
// of the queried hosts. A report narrowed to a host set has no evidence
// about the rest of the fabric, so such a change is an artifact of
// diffing against an un-narrowed baseline.
func outOfSetChange(rep flowdiff.Report, hosts map[string]bool) (flowdiff.Change, bool) {
	for _, c := range rep.Unknown {
		named := false
		for _, comp := range c.Components {
			if hosts[comp] {
				named = true
				break
			}
		}
		if !named {
			return c, true
		}
	}
	return flowdiff.Change{}, false
}

// checkSeqs requires the report list to number reports 1..N without
// gaps.
func checkSeqs(list []serve.ReportSummary) error {
	for i, r := range list {
		if r.Seq != uint64(i+1) {
			return fmt.Errorf("report %d of %d has sequence %d; want %d", i+1, len(list), r.Seq, i+1)
		}
	}
	return nil
}

// checkTiling requires the reports to tile the window grid anchored at
// origin: each starts where the previous ended, every automatic window
// is one grid cell wide, and the final (manual) one ends within its
// cell.
func checkTiling(list []serve.ReportSummary, origin, window time.Duration) error {
	from := origin
	for i, r := range list {
		if r.From != from {
			return fmt.Errorf("report %d starts at %v; want %v", r.Seq, r.From, from)
		}
		last := i == len(list)-1
		if !last && r.To != r.From+window {
			return fmt.Errorf("report %d covers [%v, %v); want one %v window", r.Seq, r.From, r.To, window)
		}
		if last && (r.To < r.From || r.To > r.From+window) {
			return fmt.Errorf("final report %d covers [%v, %v]; want at most one %v window", r.Seq, r.From, r.To, window)
		}
		from = r.To
	}
	return nil
}
