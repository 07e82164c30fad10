package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// spanID identifies a recorded span; noSpan is the parent of a root.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer. Start and End are offsets from
// the tracer's epoch.
type span struct {
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the two halves of a Compare record from two
// goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(parent spanID, name string) spanID {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id spanID) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span named name under parent.
func (t *tracer) do(parent spanID, name string, f func(id spanID)) {
	id := t.start(parent, name)
	f(id)
	t.end(id)
}

// write emits every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// selfTimes returns, for every root span (a pass), the self time of its
// descendants summed by span name. A span's self time is its duration
// minus the part of its interval that its children cover; children that
// run concurrently are counted once where they overlap.
func (t *tracer) selfTimes() map[spanID]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[spanID][]span)
	for _, s := range t.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	root := make([]spanID, len(t.spans))
	out := make(map[spanID]map[string]time.Duration)
	for _, s := range t.spans {
		if s.Parent == noSpan {
			root[s.ID] = s.ID
			out[s.ID] = make(map[string]time.Duration)
		} else {
			// Parents are always opened before their children, so the
			// parent's root is already known.
			root[s.ID] = root[s.Parent]
		}
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		out[root[s.ID]][s.Name] += self
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
